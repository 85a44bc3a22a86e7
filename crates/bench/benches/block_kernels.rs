//! The fast executor versus the reference executor, per mode.
//!
//! The simulator's default execution path is the set of monomorphized
//! per-mode kernels that hoist mode dispatch, engine probes and cost-model
//! constants to block entry and process accesses in `(page, kind,
//! instrumented)` runs, on packed shadow words, behind the inline-check
//! tables and the static plan. `Simulator::reference()` swaps every one of
//! those for its unoptimised counterpart (scalar loop, enum shadow store, no
//! inline check, no plan) and must produce byte-identical reports; this
//! bench quantifies what the fast paths buy together, per mode.
//!
//! ```bash
//! cargo bench -p aikido-bench --bench block_kernels
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use aikido::{Mode, Simulator, Workload, WorkloadSpec};

/// One low-sharing and one high-sharing benchmark bound the spectrum.
const BENCHMARKS: [&str; 2] = ["raytrace", "fluidanimate"];

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_kernels");
    for name in BENCHMARKS {
        let spec = WorkloadSpec::parsec(name)
            .expect("preset exists")
            .scaled(0.01);
        let workload = Workload::generate(&spec);
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            let fast = Simulator::default();
            let reference = Simulator::reference();
            // The two executors must agree exactly — a bench that silently
            // compared different behaviours would be meaningless.
            assert_eq!(fast.run(&workload, mode), reference.run(&workload, mode));
            group.bench_with_input(
                BenchmarkId::new(format!("fast/{}", mode.label()), name),
                &workload,
                |b, w| b.iter(|| black_box(fast.run(w, mode))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("reference/{}", mode.label()), name),
                &workload,
                |b, w| b.iter(|| black_box(reference.run(w, mode))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
