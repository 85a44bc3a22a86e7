//! The unified request API: one serializable value describing a run.

use aikido_sim::{Mode, SimConfig};
use aikido_workloads::{wire, WorkloadSpec};
use serde::Serialize;

/// One tenant-attributed simulation request: who is asking, what workload to
/// run, in which execution mode, under which [`SimConfig`].
///
/// The embedded config is used *verbatim* — the simulator the fleet builds
/// for this request is exactly `Simulator::from_config(request.config)`, so
/// a delivered report is byte-identical to a direct run of the same request
/// (the `loadgen` harness and the `service_equivalence` suite pin this).
///
/// Wire format (see [`RunRequest::from_json`]):
///
/// ```json
/// {
///   "tenant": "acme",
///   "workload": {"preset": "vips", "threads": 4},
///   "mode": "aikido",
///   "config": {"quantum": 4, "scale": 0.05}
/// }
/// ```
///
/// `config` takes only `SimConfig`'s fields (`quantum`, `checkpoint_every`,
/// `scale`); any other key, such as the retired `workers`, is refused as an
/// unknown field.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRequest {
    /// The tenant the run is attributed to (billing, budgets, quotas).
    pub tenant: String,
    /// The workload to generate and run.
    pub spec: WorkloadSpec,
    /// Execution mode (native / full instrumentation / Aikido).
    pub mode: Mode,
    /// The full simulator configuration, embedded verbatim.
    pub config: SimConfig,
}

impl RunRequest {
    /// A request for `tenant` running `spec` in `mode` under the default
    /// config.
    pub fn new(tenant: impl Into<String>, spec: WorkloadSpec, mode: Mode) -> Self {
        RunRequest {
            tenant: tenant.into(),
            spec,
            mode,
            config: SimConfig::default(),
        }
    }

    /// Builder: replaces the embedded [`SimConfig`].
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Parses a request from its JSON wire format. `tenant`, `workload` and
    /// `mode` are required; `config` is optional (default config when
    /// absent). Unknown or repeated fields and invalid values are structured
    /// errors — the admission layer rejects, it never panics.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("request is not JSON: {e}"))?;
        Self::from_json_value(&value)
    }

    /// [`RunRequest::from_json`] on an already-parsed value.
    pub fn from_json_value(value: &serde_json::Value) -> Result<Self, String> {
        let entries = wire::object(value).map_err(|e| format!("request {e}"))?;
        let mut tenant = None;
        let mut spec = None;
        let mut mode = None;
        let mut config = SimConfig::default();
        for (key, value) in entries {
            match key.as_str() {
                "tenant" => {
                    let t = value.as_str().ok_or("'tenant' must be a JSON string")?;
                    if t.is_empty() {
                        return Err("'tenant' must be non-empty".into());
                    }
                    tenant = Some(t.to_string());
                }
                "workload" => spec = Some(WorkloadSpec::from_json_value(value)?),
                "mode" => {
                    let label = value.as_str().ok_or("'mode' must be a JSON string")?;
                    mode = Some(
                        Mode::from_label(label).ok_or_else(|| format!("unknown mode '{label}'"))?,
                    );
                }
                "config" => {
                    config = SimConfig::from_json_value(value).map_err(|e| e.to_string())?
                }
                unknown => return Err(format!("unknown request field '{unknown}'")),
            }
        }
        Ok(RunRequest {
            tenant: tenant.ok_or("request is missing 'tenant'")?,
            spec: spec.ok_or("request is missing 'workload'")?,
            mode: mode.ok_or("request is missing 'mode'")?,
            config,
        })
    }

    /// The workload spec the fleet will actually generate: the embedded spec
    /// scaled by the config's scale factor. Use this to reproduce a service
    /// run directly.
    pub fn effective_spec(&self) -> WorkloadSpec {
        self.spec.clone().scaled(self.config.scale)
    }

    /// The quota cost of this request: the simulated memory accesses the
    /// effective (scaled) workload performs. Charged against the tenant's
    /// `access_quota` at admission.
    pub fn cost_accesses(&self) -> u64 {
        self.effective_spec().total_mem_accesses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_wire_format() {
        let request = RunRequest::from_json(
            r#"{
                "tenant": "acme",
                "workload": {"preset": "vips", "threads": 4},
                "mode": "aikido",
                "config": {"quantum": 4, "scale": 0.05}
            }"#,
        )
        .unwrap();
        assert_eq!(request.tenant, "acme");
        assert_eq!(request.spec.name, "vips");
        assert_eq!(request.spec.threads, 4);
        assert_eq!(request.mode, Mode::Aikido);
        assert_eq!(request.config.quantum, 4);
        assert_eq!(request.config.scale, 0.05);
    }

    #[test]
    fn config_is_optional_and_defaults() {
        let request = RunRequest::from_json(
            r#"{"tenant": "t", "workload": {"preset": "canneal"}, "mode": "native"}"#,
        )
        .unwrap();
        assert_eq!(request.config, SimConfig::default());
    }

    #[test]
    fn rejects_malformed_requests_with_structured_reasons() {
        for (bad, needle) in [
            (
                r#"{"workload": {"preset": "vips"}, "mode": "aikido"}"#,
                "tenant",
            ),
            (r#"{"tenant": "t", "mode": "aikido"}"#, "workload"),
            (r#"{"tenant": "t", "workload": {"preset": "vips"}}"#, "mode"),
            (
                r#"{"tenant": "t", "workload": {"preset": "vips"}, "mode": "warp"}"#,
                "unknown mode 'warp'",
            ),
            (
                r#"{"tenant": "", "workload": {"preset": "vips"}, "mode": "native"}"#,
                "non-empty",
            ),
            (
                r#"{"tenant": "t", "workload": {"preset": "vips"}, "mode": "native", "extra": 1}"#,
                "unknown request field",
            ),
            ("not json", "not JSON"),
            ("[1]", "must be a JSON object"),
            (
                r#"{"tenant": "acme", "tenant": "umbrella", "workload": {"preset": "vips"}, "mode": "native"}"#,
                "repeats the key 'tenant'",
            ),
            (
                r#"{"tenant": "t", "workload": {"preset": "vips"}, "mode": "native", "config": {"workers": 2}}"#,
                "unknown field 'workers'",
            ),
        ] {
            let err = RunRequest::from_json(bad).unwrap_err();
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn cost_is_the_scaled_access_count() {
        let spec = WorkloadSpec::parsec("blackscholes").unwrap();
        let request = RunRequest::new("t", spec.clone(), Mode::Native)
            .with_config(SimConfig::default().with_scale(0.05));
        assert_eq!(
            request.cost_accesses(),
            spec.scaled(0.05).total_mem_accesses()
        );
    }

    #[test]
    fn wire_form_reconstructs_the_typed_request() {
        // A request is fully described by (tenant, preset + overrides, mode
        // label, config object) — rebuilding it from those four pieces must
        // give back an identical value, seed included. This is the property
        // the service relies on when it logs and replays request sequences.
        let request = RunRequest::new(
            "round-trip",
            WorkloadSpec::parsec("swaptions").unwrap().with_threads(2),
            Mode::FullInstrumentation,
        )
        .with_config(SimConfig::default().with_quantum(3).with_scale(0.1));
        let mut config_json = String::new();
        serde::Serialize::json_write(&request.config, &mut config_json);
        let wire = format!(
            r#"{{"tenant": "round-trip",
                 "workload": {{"preset": "swaptions", "threads": 2}},
                 "mode": "{}",
                 "config": {}}}"#,
            request.mode.label(),
            config_json
        );
        assert_eq!(RunRequest::from_json(&wire).unwrap(), request);
    }
}
