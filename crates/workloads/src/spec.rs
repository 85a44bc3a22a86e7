//! Workload specifications and the PARSEC-calibrated presets.

use serde::{Deserialize, Serialize};

use crate::wire;

/// Names of the ten PARSEC benchmarks used in the paper's evaluation, in the
/// order of Figure 5 / Table 2.
pub const PARSEC_BENCHMARKS: [&str; 10] = [
    "freqmine",
    "blackscholes",
    "bodytrack",
    "raytrace",
    "swaptions",
    "fluidanimate",
    "vips",
    "x264",
    "canneal",
    "streamcluster",
];

/// Full description of a synthetic workload.
///
/// The two calibration fractions mirror the paper's Table 2:
/// `instrumented_exec_fraction` is the fraction of dynamic memory accesses
/// performed by static instructions that ever touch a shared page (column 2 /
/// column 1), and `shared_within_instrumented` is the probability that such
/// an instruction's access actually targets a shared page (column 3 / column
/// 2). Their product is the benchmark's Figure 6 value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable workload name.
    pub name: String,
    /// Number of threads, including the main thread.
    pub threads: u32,
    /// Dynamic memory accesses performed by each worker thread.
    pub mem_accesses_per_thread: u64,
    /// Fraction of dynamic memory accesses executed by static instructions
    /// that ever access shared pages.
    pub instrumented_exec_fraction: f64,
    /// Probability that an access by such an instruction targets a shared
    /// page.
    pub shared_within_instrumented: f64,
    /// Fraction of memory accesses that are reads.
    pub read_fraction: f64,
    /// Register-only instructions per memory instruction (compute density).
    pub compute_per_mem: f64,
    /// Pages of shared memory (read-mostly + lock-protected + racy areas).
    pub shared_pages: u64,
    /// Pages of private memory per thread.
    pub private_pages_per_thread: u64,
    /// Number of distinct locks protecting slices of the shared area.
    pub locks: u32,
    /// Fraction of shared-touching block executions performed inside a
    /// critical section (the rest are reads of read-mostly data).
    pub locked_shared_fraction: f64,
    /// Number of consecutive shared basic blocks executed inside one critical
    /// section (controls how many accesses each lock acquire/release pair
    /// amortises over).
    pub critical_section_blocks: u32,
    /// Number of deliberately racy address pairs (0 = race-free workload).
    pub racy_pairs: u32,
    /// Insert a barrier across all threads every this many block executions
    /// per thread (0 = no barriers).
    pub barrier_every: u64,
    /// Static shared-touching basic blocks in the program (controls how many
    /// distinct instructions end up instrumented and how many faults are
    /// taken on shared pages).
    pub shared_static_blocks: u32,
    /// Static private-only basic blocks in the program.
    pub private_static_blocks: u32,
    /// Memory instructions per generated basic block.
    pub block_mem_instrs: u32,
    /// RNG seed; everything about the workload is a pure function of the spec.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "custom".to_string(),
            threads: 8,
            mem_accesses_per_thread: 20_000,
            instrumented_exec_fraction: 0.25,
            shared_within_instrumented: 0.8,
            read_fraction: 0.7,
            compute_per_mem: 1.5,
            shared_pages: 24,
            private_pages_per_thread: 24,
            locks: 8,
            locked_shared_fraction: 0.5,
            critical_section_blocks: 4,
            racy_pairs: 0,
            barrier_every: 0,
            shared_static_blocks: 24,
            private_static_blocks: 48,
            block_mem_instrs: 4,
            seed: 0xA1C1D0,
        }
    }
}

impl WorkloadSpec {
    /// The preset calibrated to PARSEC benchmark `name` (8 threads, simsmall
    /// scaled down), or `None` if the name is not one of
    /// [`PARSEC_BENCHMARKS`].
    ///
    /// Calibration sources: Table 2 of the paper (instruction counts and
    /// sharing fractions), Figure 6 (shared-access percentages) and Table 1 /
    /// Figure 5 (relative compute density chosen so the baseline FastTrack
    /// slowdowns reproduce the paper's ordering).
    pub fn parsec(name: &str) -> Option<Self> {
        // (name, mem/thread, instr_frac, shared_within, read_frac,
        //  compute_per_mem, shared_pages, private_pages, locks,
        //  locked_frac, racy, barrier_every, shared_blocks, private_blocks)
        type ParsecPreset = (
            &'static str,
            u64,
            f64,
            f64,
            f64,
            f64,
            u64,
            u64,
            u32,
            f64,
            u32,
            u64,
            u32,
            u32,
        );
        let presets: [ParsecPreset; 10] = [
            (
                "freqmine", 73_000, 0.636, 0.877, 0.72, 0.9, 48, 24, 16, 0.55, 0, 0, 64, 96,
            ),
            (
                "blackscholes",
                20_000,
                0.070,
                0.992,
                0.80,
                2.2,
                16,
                24,
                4,
                0.10,
                0,
                0,
                12,
                64,
            ),
            (
                "bodytrack",
                24_000,
                0.217,
                0.923,
                0.70,
                1.6,
                24,
                24,
                12,
                0.45,
                0,
                40,
                40,
                80,
            ),
            (
                "raytrace", 150_000, 0.0013, 0.852, 0.85, 1.8, 16, 40, 8, 0.30, 0, 0, 48, 128,
            ),
            (
                "swaptions",
                22_000,
                0.167,
                0.713,
                0.75,
                1.9,
                16,
                32,
                8,
                0.35,
                0,
                0,
                24,
                72,
            ),
            (
                "fluidanimate",
                35_000,
                0.640,
                0.751,
                0.60,
                0.6,
                64,
                16,
                32,
                0.75,
                0,
                25,
                96,
                64,
            ),
            (
                "vips", 65_000, 0.243, 0.912, 0.68, 1.1, 32, 24, 16, 0.50, 0, 0, 56, 88,
            ),
            (
                "x264", 20_000, 0.342, 0.858, 0.65, 1.4, 32, 24, 16, 0.55, 0, 0, 88, 96,
            ),
            (
                "canneal", 35_000, 0.123, 0.986, 0.78, 1.5, 24, 24, 8, 0.40, 1, 0, 48, 72,
            ),
            (
                "streamcluster",
                67_000,
                0.378,
                0.981,
                0.74,
                0.8,
                40,
                16,
                12,
                0.60,
                0,
                30,
                56,
                64,
            ),
        ];
        presets.iter().find(|p| p.0 == name).map(|p| WorkloadSpec {
            name: p.0.to_string(),
            threads: 8,
            mem_accesses_per_thread: p.1,
            instrumented_exec_fraction: p.2,
            shared_within_instrumented: p.3,
            read_fraction: p.4,
            compute_per_mem: p.5,
            shared_pages: p.6,
            private_pages_per_thread: p.7,
            locks: p.8,
            locked_shared_fraction: p.9,
            critical_section_blocks: 4,
            racy_pairs: p.10,
            barrier_every: p.11,
            shared_static_blocks: p.12,
            private_static_blocks: p.13,
            block_mem_instrs: 4,
            seed: 0xA1C1D0 ^ fxhash(p.0),
        })
    }

    /// All ten PARSEC presets in Figure 5 order.
    pub fn parsec_suite() -> Vec<Self> {
        PARSEC_BENCHMARKS
            .iter()
            .map(|n| Self::parsec(n).expect("every listed benchmark has a preset"))
            .collect()
    }

    /// Returns the spec with the per-thread access count multiplied by
    /// `factor` (used to shrink workloads for tests or grow them for
    /// benchmarking). The count never drops below 500 accesses.
    pub fn scaled(mut self, factor: f64) -> Self {
        let scaled = (self.mem_accesses_per_thread as f64 * factor).round() as u64;
        self.mem_accesses_per_thread = scaled.max(500);
        self
    }

    /// Returns a copy of the spec with a different thread count (used by the
    /// Table 1 thread-scaling experiment). Takes `&self` so sweeping callers
    /// need no explicit `clone()`.
    pub fn with_threads(&self, threads: u32) -> Self {
        let mut spec = self.clone();
        spec.threads = threads.max(1);
        spec
    }

    /// Returns the spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a spec from its request-API wire format: a JSON object naming
    /// a PARSEC `preset` plus optional integer overrides. Preset-based on
    /// purpose — presets carry the calibrated fractions and the derived
    /// 64-bit seed, which a float-typed JSON number could not transport
    /// losslessly — so a request selects a preset and tweaks its shape:
    ///
    /// ```json
    /// {"preset": "vips", "threads": 4, "racy_pairs": 1}
    /// ```
    ///
    /// Recognised overrides: `threads`, `mem_accesses_per_thread`,
    /// `racy_pairs`, `barrier_every`. Unknown or repeated keys, type
    /// mismatches, integers outside the field's range, unknown presets and
    /// overrides that fail [`WorkloadSpec::validate`] are all errors — a service admission layer rejects the request instead of
    /// running a workload the caller did not describe.
    pub fn from_json_value(value: &serde_json::Value) -> Result<Self, String> {
        let entries = wire::object(value).map_err(|e| format!("workload spec {e}"))?;
        let preset = entries
            .iter()
            .find(|(k, _)| k == "preset")
            .ok_or("workload spec is missing the 'preset' field")?
            .1
            .as_str()
            .ok_or("'preset' must be a JSON string")?;
        let mut spec =
            Self::parsec(preset).ok_or_else(|| format!("unknown PARSEC preset '{preset}'"))?;
        for (key, value) in entries {
            let int = |field: &str, max: u64| {
                wire::uint(value, max).map_err(|e| format!("'{field}' {e}"))
            };
            match key.as_str() {
                "preset" => {}
                "threads" => spec.threads = int("threads", u32::MAX.into())? as u32,
                "mem_accesses_per_thread" => {
                    spec.mem_accesses_per_thread = int("mem_accesses_per_thread", u64::MAX)?
                }
                "racy_pairs" => spec.racy_pairs = int("racy_pairs", u32::MAX.into())? as u32,
                "barrier_every" => spec.barrier_every = int("barrier_every", u64::MAX)?,
                unknown => return Err(format!("unknown workload spec field '{unknown}'")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The expected fraction of dynamic memory accesses that target shared
    /// pages (the quantity plotted in Figure 6).
    pub fn expected_shared_access_fraction(&self) -> f64 {
        self.instrumented_exec_fraction * self.shared_within_instrumented
    }

    /// Total dynamic memory accesses across all worker threads (excluding the
    /// main thread's initialisation writes). Saturates at `u64::MAX`, so a
    /// huge spec never wraps to a small count.
    pub fn total_mem_accesses(&self) -> u64 {
        self.mem_accesses_per_thread
            .saturating_mul(self.threads as u64)
    }

    /// Validates the specification, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        for (name, v) in [
            (
                "instrumented_exec_fraction",
                self.instrumented_exec_fraction,
            ),
            (
                "shared_within_instrumented",
                self.shared_within_instrumented,
            ),
            ("read_fraction", self.read_fraction),
            ("locked_shared_fraction", self.locked_shared_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be within [0, 1], got {v}"));
            }
        }
        if self.compute_per_mem < 0.0 {
            return Err("compute_per_mem must be non-negative".into());
        }
        if self.shared_pages == 0 || self.private_pages_per_thread == 0 {
            return Err("shared and private page counts must be non-zero".into());
        }
        if self.locks == 0 {
            return Err("at least one lock is required".into());
        }
        if self.block_mem_instrs == 0 {
            return Err("blocks must contain at least one memory instruction".into());
        }
        if self.critical_section_blocks == 0 {
            return Err("critical sections must span at least one block".into());
        }
        if self.shared_static_blocks == 0 || self.private_static_blocks == 0 {
            return Err("at least one shared and one private static block are required".into());
        }
        Ok(())
    }
}

/// A tiny deterministic string hash (FxHash-style) used to derive per-preset
/// seeds without pulling in a hashing crate.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_parsec_benchmark_has_a_valid_preset() {
        for name in PARSEC_BENCHMARKS {
            let spec = WorkloadSpec::parsec(name).unwrap();
            assert_eq!(spec.name, name);
            assert_eq!(spec.threads, 8);
            spec.validate().unwrap();
        }
        assert_eq!(WorkloadSpec::parsec_suite().len(), 10);
        assert!(WorkloadSpec::parsec("nonexistent").is_none());
    }

    #[test]
    fn presets_are_ordered_like_figure6() {
        // raytrace has by far the least sharing; fluidanimate and freqmine the
        // most — this ordering is what drives Figure 5's speedups.
        let frac = |n: &str| {
            WorkloadSpec::parsec(n)
                .unwrap()
                .expected_shared_access_fraction()
        };
        assert!(frac("raytrace") < 0.01);
        assert!(frac("blackscholes") < 0.10);
        assert!(frac("fluidanimate") > 0.40);
        assert!(frac("freqmine") > 0.50);
        assert!(frac("raytrace") < frac("blackscholes"));
        assert!(frac("blackscholes") < frac("vips"));
        assert!(frac("vips") < frac("fluidanimate"));
    }

    #[test]
    fn scaling_changes_only_the_access_count() {
        let spec = WorkloadSpec::parsec("vips").unwrap();
        let scaled = spec.clone().scaled(0.1);
        assert_eq!(scaled.mem_accesses_per_thread, 6_500);
        assert_eq!(scaled.shared_pages, spec.shared_pages);
        // Never collapses to zero.
        assert_eq!(spec.scaled(0.0).mem_accesses_per_thread, 500);
    }

    #[test]
    fn with_threads_clamps_to_at_least_one() {
        let spec = WorkloadSpec::default().with_threads(0);
        assert_eq!(spec.threads, 1);
        assert_eq!(WorkloadSpec::default().with_threads(4).threads, 4);
    }

    #[test]
    fn validation_rejects_bad_fractions_and_zero_resources() {
        let invalid = [
            WorkloadSpec {
                read_fraction: 1.5,
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                shared_pages: 0,
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                locks: 0,
                ..WorkloadSpec::default()
            },
            WorkloadSpec {
                threads: 0,
                ..WorkloadSpec::default()
            },
        ];
        for spec in invalid {
            assert!(spec.validate().is_err());
        }
        assert!(WorkloadSpec::default().validate().is_ok());
    }

    #[test]
    fn from_json_value_selects_a_preset_and_applies_overrides() {
        let value = serde_json::from_str(r#"{"preset": "vips", "threads": 4}"#).unwrap();
        let spec = WorkloadSpec::from_json_value(&value).unwrap();
        let expected = WorkloadSpec::parsec("vips").unwrap().with_threads(4);
        assert_eq!(spec, expected, "preset + override, seed included");

        for bad in [
            r#"{"threads": 4}"#,
            r#"{"preset": "doesnotexist"}"#,
            r#"{"preset": "vips", "threads": 0}"#,
            r#"{"preset": "vips", "threads": 1.5}"#,
            r#"{"preset": "vips", "seed": 7}"#,
            "[]",
        ] {
            let value = serde_json::from_str(bad).unwrap();
            assert!(WorkloadSpec::from_json_value(&value).is_err(), "{bad}");
        }

        // A repeated key is refused by name, never resolved to one copy.
        let value = serde_json::from_str(
            r#"{"preset": "vips", "preset": "canneal", "threads": 2, "threads": 3}"#,
        )
        .unwrap();
        let err = WorkloadSpec::from_json_value(&value).unwrap_err();
        assert!(err.contains("'preset'"), "{err}");

        // Out-of-range integers are refused, never clamped or saturated.
        for (bad, field) in [
            (r#"{"preset": "vips", "threads": 4294967296}"#, "threads"),
            (
                r#"{"preset": "vips", "racy_pairs": 4294967296}"#,
                "racy_pairs",
            ),
            (
                r#"{"preset": "vips", "mem_accesses_per_thread": 18446744073709551616}"#,
                "mem_accesses_per_thread",
            ),
            (
                r#"{"preset": "vips", "barrier_every": 18446744073709551616}"#,
                "barrier_every",
            ),
        ] {
            let value = serde_json::from_str(bad).unwrap();
            let err = WorkloadSpec::from_json_value(&value).unwrap_err();
            assert!(err.contains(field), "{bad} -> {err}");
        }
        let value = serde_json::from_str(r#"{"preset": "vips", "threads": 4294967295}"#).unwrap();
        assert_eq!(
            WorkloadSpec::from_json_value(&value).unwrap().threads,
            u32::MAX
        );
    }

    #[test]
    fn preset_seeds_differ_between_benchmarks() {
        let a = WorkloadSpec::parsec("vips").unwrap().seed;
        let b = WorkloadSpec::parsec("x264").unwrap().seed;
        assert_ne!(a, b);
    }
}
