//! The JSON wire-form rules every request parser shares: the workload spec
//! here, `SimConfig` and the service's `RunRequest` downstream.
//!
//! Both return a bare reason (no field name), so each parser wraps it in its
//! own structured error.

use serde_json::Value;

/// The members of a JSON object, in document order. Refuses a non-object
/// and a repeated key: a parser walking the members would otherwise let one
/// copy win silently.
pub fn object(value: &Value) -> Result<&[(String, Value)], String> {
    let Value::Object(entries) = value else {
        return Err("must be a JSON object".into());
    };
    for (i, (key, _)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(seen, _)| seen == key) {
            return Err(format!("repeats the key '{key}'"));
        }
    }
    Ok(entries)
}

/// A JSON number as an integer in `0..=max`, refusing fractions, negatives
/// and values past `max` instead of clamping or wrapping them.
pub fn uint(value: &Value, max: u64) -> Result<u64, String> {
    let n = value.as_f64().ok_or("must be a JSON number")?;
    // `u64::MAX as f64` rounds up to exactly 2^64, the first value `as u64`
    // would saturate.
    if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 || n as u64 > max {
        return Err(format!("must be an integer from 0 to {max}, got {n}"));
    }
    Ok(n as u64)
}
