//! Sharing-detector statistics (feeds the paper's Table 2 and Figure 6).

use serde::{Deserialize, Serialize};

/// Counters maintained by [`crate::AikidoSd`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharingStats {
    /// Aikido faults handled by the sharing detector (the paper's
    /// "Segmentation Faults" column of Table 2).
    pub faults_handled: u64,
    /// Unused → Private transitions.
    pub private_transitions: u64,
    /// Private → Shared transitions.
    pub shared_transitions: u64,
    /// Faults on pages that were already shared (new instructions discovered).
    pub shared_page_faults: u64,
    /// Spurious faults (page already private to the faulting thread).
    pub spurious_faults: u64,
    /// Distinct static instructions handed to the tool for instrumentation.
    pub instructions_instrumented: u64,
    /// Pages registered (protected + mirrored) with the detector.
    pub pages_registered: u64,
    /// Hypercalls the detector issued to change protections.
    pub protection_hypercalls: u64,
}

impl SharingStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = SharingStats::new();
        assert_eq!(s.faults_handled, 0);
        assert_eq!(s.instructions_instrumented, 0);
        assert_eq!(s, SharingStats::default());
    }
}
