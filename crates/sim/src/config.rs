//! `SimConfig`: one serializable, validated description of everything a
//! [`Simulator`](crate::Simulator) can be configured to do.
//!
//! * every knob is a plain named field a user would turn, so a configuration
//!   can be built, inspected, serialized (it is part of service requests and
//!   fleet reports) and compared;
//! * [`SimConfig::validate`] rejects nonsense (`quantum == 0`,
//!   `checkpoint_every == Some(0)`, a non-finite scale) with a structured
//!   [`SimConfigError`] naming the offending field — a service admission
//!   layer can turn that into a rejection instead of a panic;
//! * [`SimConfig::from_env_overrides`] is the *single* place environment
//!   variables are parsed. Library code never reads the environment; only
//!   binaries and examples opt in by starting from this constructor.
//!
//! Behaviour-neutral fast paths are not configuration: they are always on,
//! and the one unoptimised executor they are proven against is
//! [`Simulator::reference`](crate::Simulator::reference), which no config,
//! wire form or environment variable can select.

use aikido_workloads::wire;
use serde::{Deserialize, Serialize};

/// A structured configuration error: which field is invalid and why.
///
/// Returned by [`SimConfig::validate`] and [`SimConfig::from_json_value`];
/// surfaced verbatim by service admission layers so a bad request is a
/// rejection, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfigError {
    /// The offending `SimConfig` field.
    pub field: &'static str,
    /// Human-readable description of the problem.
    pub reason: String,
}

impl SimConfigError {
    fn new(field: &'static str, reason: impl Into<String>) -> Self {
        SimConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SimConfig.{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for SimConfigError {}

/// The full simulator configuration, as one serializable value.
///
/// Field defaults reproduce `Simulator::default()` exactly; see each field
/// for the `with_*` method it replaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Basic-block executions a thread runs before the round-robin scheduler
    /// switches to the next thread (`Simulator::with_quantum`). Must be ≥ 1.
    pub quantum: u32,
    /// Periodic checkpoint policy for
    /// [`Simulator::run_checkpointed`](crate::Simulator::run_checkpointed):
    /// every `N` block executions the run pauses, serializes, re-validates
    /// and resumes from the restored state. `None` disables the policy;
    /// `Some(0)` is invalid.
    pub checkpoint_every: Option<u64>,
    /// Workload scale factor for harnesses that generate workloads from
    /// specs (`spec.scaled(config.scale)`): benchmarks, the service layer
    /// and CI lanes. The simulator itself does not consume it — a
    /// `Simulator` runs whatever workload it is handed — but carrying it
    /// here keeps "how big" next to "how" in one serializable request.
    /// Must be finite and > 0.
    pub scale: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            quantum: 8,
            checkpoint_every: None,
            scale: 1.0,
        }
    }
}

impl SimConfig {
    /// The default configuration (identical to `SimConfig::default()`,
    /// spelled as a constructor for builder chains).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: sets the scheduling quantum.
    pub fn with_quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum;
        self
    }

    /// Builder: sets the periodic checkpoint policy (`None` disables it).
    pub fn with_checkpoint_every(mut self, every: Option<u64>) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Builder: sets the workload scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Validates the configuration, returning a structured error naming the
    /// first invalid field.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.quantum == 0 {
            return Err(SimConfigError::new("quantum", "must be at least 1"));
        }
        if self.checkpoint_every == Some(0) {
            return Err(SimConfigError::new(
                "checkpoint_every",
                "must be at least 1 when set (use null/None to disable)",
            ));
        }
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(SimConfigError::new(
                "scale",
                format!("must be finite and > 0, got {}", self.scale),
            ));
        }
        Ok(())
    }

    /// The default configuration with the documented environment overrides
    /// applied — the single place the simulator's environment variables are
    /// parsed, intended for binaries and examples only (library behaviour
    /// stays a pure function of arguments):
    ///
    /// | variable | field | parsing |
    /// |----------|-------|---------|
    /// | `AIKIDO_CHECKPOINT_EVERY` | `checkpoint_every` | integer ≥ 1; 0, unset or unparsable disable the policy |
    /// | `AIKIDO_SCALE` | `scale` | float > 0; otherwise ignored |
    pub fn from_env_overrides() -> Self {
        Self::default().with_env_overrides()
    }

    /// Applies the environment overrides of [`SimConfig::from_env_overrides`]
    /// on top of `self` (unset or unparsable variables leave the field
    /// untouched).
    pub fn with_env_overrides(mut self) -> Self {
        if let Some(every) = parse_env::<u64>("AIKIDO_CHECKPOINT_EVERY") {
            self.checkpoint_every = (every > 0).then_some(every);
        }
        if let Some(scale) = parse_env::<f64>("AIKIDO_SCALE").filter(|s| s.is_finite() && *s > 0.0)
        {
            self.scale = scale;
        }
        self
    }

    /// Parses a configuration from a JSON object (as produced by serializing
    /// a `SimConfig`), starting from the defaults: absent fields keep their
    /// default; unknown or repeated fields, type mismatches and integers
    /// outside a field's range are structured errors; and the result is
    /// validated before it is returned.
    ///
    /// This is the wire format of the service request API: a `RunRequest`'s
    /// `config` member is exactly this object.
    pub fn from_json_value(value: &serde_json::Value) -> Result<Self, SimConfigError> {
        let entries = wire::object(value).map_err(|e| SimConfigError::new("config", e))?;
        let mut config = SimConfig::default();
        for (key, value) in entries {
            let int = |field: &'static str, max: u64| {
                wire::uint(value, max).map_err(|e| SimConfigError::new(field, e))
            };
            match key.as_str() {
                "quantum" => config.quantum = int("quantum", u32::MAX.into())? as u32,
                "checkpoint_every" => {
                    config.checkpoint_every = match value {
                        serde_json::Value::Null => None,
                        _ => Some(int("checkpoint_every", u64::MAX)?),
                    }
                }
                "scale" => {
                    config.scale = value
                        .as_f64()
                        .ok_or_else(|| SimConfigError::new("scale", "must be a JSON number"))?
                }
                unknown => {
                    return Err(SimConfigError::new(
                        "config",
                        format!("unknown field '{unknown}'"),
                    ))
                }
            }
        }
        config.validate()?;
        Ok(config)
    }
}

/// Reads and parses one environment variable (`None` when unset or
/// unparsable).
fn parse_env<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.parse::<T>().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_match_the_documented_values() {
        let config = SimConfig::default();
        config.validate().unwrap();
        assert_eq!(config.quantum, 8);
        assert_eq!(config.checkpoint_every, None);
        assert_eq!(config.scale, 1.0);
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases: [(SimConfig, &str); 4] = [
            (SimConfig::default().with_quantum(0), "quantum"),
            (
                SimConfig::default().with_checkpoint_every(Some(0)),
                "checkpoint_every",
            ),
            (SimConfig::default().with_scale(0.0), "scale"),
            (SimConfig::default().with_scale(f64::NAN), "scale"),
        ];
        for (config, field) in cases {
            let err = config.validate().unwrap_err();
            assert_eq!(err.field, field, "{err}");
            assert!(err.to_string().contains(field));
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let config = SimConfig::default()
            .with_quantum(3)
            .with_checkpoint_every(Some(512))
            .with_scale(0.25);
        let json = serde_json::to_string(&config).unwrap();
        let parsed = SimConfig::from_json_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn json_parsing_defaults_absent_fields_and_rejects_unknown_ones() {
        let value = serde_json::from_str(r#"{"scale": 0.5}"#).unwrap();
        let config = SimConfig::from_json_value(&value).unwrap();
        assert_eq!(config.scale, 0.5);
        assert_eq!(config.quantum, 8, "absent fields keep their defaults");

        let bad = serde_json::from_str(r#"{"wrokers": 2}"#).unwrap();
        let err = SimConfig::from_json_value(&bad).unwrap_err();
        assert!(err.reason.contains("wrokers"), "{err}");

        // The within-run worker count is gone: the field is refused by name.
        let bad = serde_json::from_str(r#"{"workers": 2}"#).unwrap();
        let err = SimConfig::from_json_value(&bad).unwrap_err();
        assert_eq!(err.field, "config");
        assert_eq!(err.reason, "unknown field 'workers'");

        let bad = serde_json::from_str(r#"{"quantum": true}"#).unwrap();
        assert_eq!(
            SimConfig::from_json_value(&bad).unwrap_err().field,
            "quantum"
        );

        let bad = serde_json::from_str(r#"{"quantum": 0}"#).unwrap();
        assert_eq!(
            SimConfig::from_json_value(&bad).unwrap_err().field,
            "quantum",
            "parsed configs are validated"
        );

        let bad = serde_json::from_str(r#"{"quantum": 1.5}"#).unwrap();
        assert!(SimConfig::from_json_value(&bad).is_err());

        // One past u32::MAX must not wrap to quantum 1.
        let bad = serde_json::from_str(r#"{"quantum": 4294967297}"#).unwrap();
        assert_eq!(
            SimConfig::from_json_value(&bad).unwrap_err().field,
            "quantum"
        );
        let max = serde_json::from_str(r#"{"quantum": 4294967295}"#).unwrap();
        assert_eq!(SimConfig::from_json_value(&max).unwrap().quantum, u32::MAX);

        // Exactly 2^64 must not saturate to u64::MAX.
        let bad = serde_json::from_str(r#"{"checkpoint_every": 18446744073709551616}"#).unwrap();
        assert_eq!(
            SimConfig::from_json_value(&bad).unwrap_err().field,
            "checkpoint_every"
        );

        let bad = serde_json::from_str("[1,2]").unwrap();
        assert_eq!(
            SimConfig::from_json_value(&bad).unwrap_err().field,
            "config"
        );

        // A repeated key is refused by name, never resolved to the last copy.
        let bad = serde_json::from_str(r#"{"quantum": 4, "quantum": 9}"#).unwrap();
        let err = SimConfig::from_json_value(&bad).unwrap_err();
        assert_eq!(err.field, "config");
        assert!(err.reason.contains("'quantum'"), "{err}");
    }

    #[test]
    fn checkpoint_every_accepts_null_and_rejects_zero() {
        let value = serde_json::from_str(r#"{"checkpoint_every": null}"#).unwrap();
        assert_eq!(
            SimConfig::from_json_value(&value).unwrap().checkpoint_every,
            None
        );
        let value = serde_json::from_str(r#"{"checkpoint_every": 64}"#).unwrap();
        assert_eq!(
            SimConfig::from_json_value(&value).unwrap().checkpoint_every,
            Some(64)
        );
        let value = serde_json::from_str(r#"{"checkpoint_every": 0}"#).unwrap();
        assert!(SimConfig::from_json_value(&value).is_err());
    }
}
