//! Concurrent re-entrancy: many `Simulator` instances running at once on OS
//! threads produce reports byte-identical to sequential execution.
//!
//! This is the property the serving layer (`aikido-serve`) is built on: a
//! worker fleet can execute tenant runs side by side without any
//! cross-contamination, so a service-delivered report is exactly the report
//! a dedicated machine would have produced. The simulator holds no global
//! mutable state — each instance owns its VM, DBI engine, sharing detector
//! and analysis — and this suite pins that with byte-level comparisons.

use aikido::prelude::*;

/// A small mixed batch spanning benchmarks, modes, worker counts and
/// configs.
fn batch() -> Vec<(WorkloadSpec, Mode, SimConfig)> {
    let presets = ["blackscholes", "swaptions", "canneal", "bodytrack"];
    let modes = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];
    let mut batch = Vec::new();
    for (i, preset) in presets.iter().enumerate() {
        for (j, mode) in modes.into_iter().enumerate() {
            let config = SimConfig::default()
                .with_scale(0.02)
                .with_workers(1 + (i + j) % 2);
            let spec = WorkloadSpec::parsec(preset).unwrap();
            batch.push((spec, mode, config));
        }
    }
    batch
}

fn run_one(spec: &WorkloadSpec, mode: Mode, config: &SimConfig) -> RunReport {
    let workload = Workload::generate(&spec.clone().scaled(config.scale));
    Simulator::from_config(config.clone())
        .expect("valid config")
        .try_run(&workload, mode)
        .expect("run succeeds")
}

#[test]
fn concurrent_runs_are_byte_identical_to_sequential_runs() {
    let batch = batch();

    // Sequential reference: one run at a time, in order.
    let sequential: Vec<RunReport> = batch
        .iter()
        .map(|(spec, mode, config)| run_one(spec, *mode, config))
        .collect();

    // Concurrent: every run on its own simultaneous thread.
    let concurrent: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .iter()
            .map(|(spec, mode, config)| scope.spawn(move || run_one(spec, *mode, config)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });

    for ((seq, conc), (spec, mode, _)) in sequential.iter().zip(&concurrent).zip(&batch) {
        assert_eq!(seq, conc, "{} {:?}", spec.name, mode);
        assert_eq!(
            serde_json::to_string(seq).unwrap(),
            serde_json::to_string(conc).unwrap(),
            "{} {:?}: serialized bytes must match",
            spec.name,
            mode
        );
    }
}

#[test]
fn the_same_simulator_instance_is_reusable_across_threads_by_clone() {
    // A cloned simulator is an independent instance: N clones running the
    // same workload concurrently all reproduce the original's report.
    let sim = Simulator::from_config(SimConfig::default().with_quantum(4)).unwrap();
    let spec = WorkloadSpec::parsec("vips").unwrap().scaled(0.02);
    let workload = Workload::generate(&spec);
    let reference = sim.run(&workload, Mode::Aikido);

    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sim = sim.clone();
                let workload = &workload;
                scope.spawn(move || sim.run(workload, Mode::Aikido))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for report in &reports {
        assert_eq!(report, &reference);
    }
}
