//! Shadow-memory statistics.

use serde::{Deserialize, Serialize};

/// Counters for shadow translations and the cache levels that served them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowStats {
    /// Total translations performed.
    pub translations: u64,
    /// Translations served by the inline memoization cache.
    pub inline_hits: u64,
    /// Translations served by a thread-local cache.
    pub thread_local_hits: u64,
    /// Translations that required the full region lookup.
    pub full_lookups: u64,
}

impl ShadowStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of translations served by the inline cache, in `[0, 1]`.
    pub fn inline_hit_rate(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.inline_hits as f64 / self.translations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_translations() {
        assert_eq!(ShadowStats::new().inline_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_is_fraction_of_total() {
        let s = ShadowStats {
            translations: 10,
            inline_hits: 7,
            thread_local_hits: 2,
            full_lookups: 1,
        };
        assert!((s.inline_hit_rate() - 0.7).abs() < 1e-12);
    }
}
