//! `SimConfig` is the single front door for simulator configuration: the
//! builder chain, `Simulator::from_config`, and the JSON wire form must all
//! describe the same machine.

use aikido::prelude::*;
use aikido_serve::RunRequest;

#[test]
fn from_config_matches_the_equivalent_with_chain_byte_for_byte() {
    let spec = WorkloadSpec::parsec("streamcluster").unwrap().scaled(0.02);
    let workload = Workload::generate(&spec);

    let config = SimConfig::default()
        .with_quantum(5)
        .with_workers(2)
        .with_checkpoint_every(Some(400));
    let via_config = Simulator::from_config(config).unwrap();
    let via_chain = Simulator::default()
        .with_quantum(5)
        .with_workers(2)
        .with_checkpoint_every(Some(400));

    assert_eq!(via_config.config(), via_chain.config());
    for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
        let a = via_config.run(&workload, mode);
        let b = via_chain.run(&workload, mode);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{mode:?}: the two construction paths must be indistinguishable"
        );
    }
}

#[test]
fn invalid_configs_are_rejected_with_the_offending_field() {
    for (config, field) in [
        (SimConfig::default().with_quantum(0), "quantum"),
        (SimConfig::default().with_workers(0), "workers"),
        (
            SimConfig::default().with_checkpoint_every(Some(0)),
            "checkpoint_every",
        ),
        (SimConfig::default().with_scale(0.0), "scale"),
        (SimConfig::default().with_scale(f64::NAN), "scale"),
    ] {
        let err = Simulator::from_config(config).expect_err("must be rejected");
        assert_eq!(err.field, field);
        assert!(
            err.to_string()
                .starts_with(&format!("invalid SimConfig.{field}:")),
            "structured message names the field: {err}"
        );
    }
}

#[test]
fn the_json_wire_form_round_trips() {
    let config = SimConfig::default()
        .with_quantum(12)
        .with_workers(3)
        .with_checkpoint_every(Some(250))
        .with_scale(0.25);
    let text = serde_json::to_string(&config).unwrap();
    let value = serde_json::from_str(&text).unwrap();
    let back = SimConfig::from_json_value(&value).unwrap();
    assert_eq!(back, config);

    // Absent fields default; unknown keys are an error, not silently dropped.
    let sparse = serde_json::from_str(r#"{"workers": 2}"#).unwrap();
    let parsed = SimConfig::from_json_value(&sparse).unwrap();
    assert_eq!(parsed, SimConfig::default().with_workers(2));
    let junk = serde_json::from_str(r#"{"wokers": 2}"#).unwrap();
    assert!(SimConfig::from_json_value(&junk).is_err());
}

#[test]
fn removed_fast_path_toggles_are_refused_on_the_wire() {
    // Behaviour-neutral fast paths are not configuration (their only off
    // switch is the test-only `Simulator::reference()`), and analysis always
    // runs on the commit thread, so its sharding switch is gone too: a
    // request naming any of them is an unknown field, refused with a message
    // that names it.
    for field in [
        "batched_kernels",
        "inline_tlb",
        "static_precheck",
        "packed_words",
        "sharded_analysis",
    ] {
        let value = serde_json::from_str(&format!(r#"{{"{field}": false}}"#)).unwrap();
        let err = SimConfig::from_json_value(&value).unwrap_err();
        assert!(err.to_string().contains(field), "{field}: {err}");

        let request = format!(
            r#"{{"tenant": "t", "workload": {{"preset": "vips"}}, "mode": "aikido",
                "config": {{"{field}": true}}}}"#
        );
        let err = RunRequest::from_json(&request).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
    }
}
