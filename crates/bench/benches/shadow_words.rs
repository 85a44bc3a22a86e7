//! Microbenchmark of the per-access metadata probe: the packed shadow-word
//! slab plane versus the enum-based `ShadowStore`/`ChunkMap` store it
//! replaced. Two synthetic single-region streams bracket the spectrum (few
//! hot pages in long same-page runs; many pages in short runs), and a
//! two-region stream uses the workloads' shared and private bases, whose
//! page numbers are multiples of every directory size. This isolates the
//! micro-level claim — "the hot path reads one packed word from a slab
//! found in one directory probe" — from end-to-end throughput, which mixes
//! in everything else.
//!
//! ```bash
//! cargo bench -p aikido-bench --bench shadow_words
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aikido::fasttrack::{Epoch, FastTrack, VarState};
use aikido::shadow::ShadowStore;
use aikido::types::{Addr, ShadowWord, SlabDirectory, ThreadId};

/// Deterministic xorshift so both probes see the identical access stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// An address stream over `pages` pages from each base in `bases`, with
/// runs of `run_len` consecutive same-page accesses. The streams are
/// synthetic: the measured full-mode raytrace stream touches 336 pages, and
/// only 2.5% of its accesses hit the thread's previous page.
fn access_stream(bases: &[u64], pages: u64, run_len: usize, accesses: usize) -> Vec<u64> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::with_capacity(accesses);
    while out.len() < accesses {
        let base = bases[(rng.next() % bases.len() as u64) as usize];
        let page = rng.next() % pages;
        for i in 0..run_len {
            let block_in_page = (rng.next().wrapping_add(i as u64 * 3)) % 512;
            out.push(base + page * 4096 + block_in_page * 8);
            if out.len() == accesses {
                break;
            }
        }
    }
    out
}

fn bench_distribution(c: &mut Criterion, label: &str, bases: &[u64], pages: u64, run_len: usize) {
    const ACCESSES: usize = 4096;
    let addrs = access_stream(bases, pages, run_len, ACCESSES);
    let epoch = Epoch::new(3, ThreadId::new(1));
    let probe = ShadowWord::write_probe(ShadowWord::pack_field(3, 1).expect("packs"));

    // The retained reference representation: ChunkMap probe + enum compare.
    let mut store: ShadowStore<VarState> = ShadowStore::new(8);
    for &a in &addrs {
        store.get_or_default(Addr::new(a)).write = epoch;
    }
    c.bench_function(&format!("shadow_words/{label}/store_probe"), |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &a in &addrs {
                let (_, state) = store.get_or_default_tracked(Addr::new(black_box(a)));
                hits += u64::from(state.write == epoch);
            }
            black_box(hits)
        })
    });

    // The packed plane, probed per access (the scalar delivery path).
    let mut dir = SlabDirectory::new();
    let word = ShadowWord::from_fields(
        ShadowWord::pack_field(3, 1).expect("packs"),
        ShadowWord::pack_field(3, 1).expect("packs"),
    );
    for &a in &addrs {
        dir.set(a >> 3, word);
    }
    c.bench_function(&format!("shadow_words/{label}/slab_probe"), |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &a in &addrs {
                let w = dir.get(black_box(a) >> 3);
                hits += u64::from(w.matches_write(probe));
            }
            black_box(hits)
        })
    });

    // The packed plane with the slab resolved once per same-page run (the
    // batched delivery path the block kernels drive).
    c.bench_function(&format!("shadow_words/{label}/slab_probe_per_run"), |b| {
        b.iter(|| {
            let mut hits = 0u64;
            let mut i = 0;
            while i < addrs.len() {
                let page = addrs[i] >> 12;
                let (chunk, _) = SlabDirectory::split(addrs[i] >> 3);
                let handle = dir.resolve(chunk);
                while i < addrs.len() && addrs[i] >> 12 == page {
                    let slot = SlabDirectory::split(addrs[i] >> 3).1;
                    let w = dir.word_at(handle, black_box(slot));
                    hits += u64::from(w.matches_write(probe));
                    i += 1;
                }
            }
            black_box(hits)
        })
    });
}

/// Drives the full detector (public API, same binary) through a spill-heavy
/// read-shared distribution: every shared block is promoted to a read-shared
/// history, and a barrier between rounds advances every thread's epoch so
/// each round's first read per block misses the packed fast path and lands
/// in the spill slot. The two sides differ only in ONE thread index: the
/// `inline_lanes` set (0..=7) fits the slot's inline epoch lanes, while the
/// `boxed_clock` set swaps thread 7 for thread 8 — one past the lane budget
/// — forcing every history onto the boxed `VectorClock` fallback. Identical
/// thread count, read count and barrier cadence, so the delta is exactly the
/// inline-clock-vs-boxed-clock cost the PR 9 spill rebuild targets.
fn bench_spill_clocks(c: &mut Criterion) {
    const BLOCKS: u64 = 64;
    const ROUNDS: u32 = 8;
    let base = 0x40_0000u64;
    for (label, last_thread) in [("inline_lanes", 7u32), ("boxed_clock", 8u32)] {
        let threads: Vec<ThreadId> = (0..7u32)
            .chain(std::iter::once(last_thread))
            .map(ThreadId::new)
            .collect();
        c.bench_function(&format!("shadow_words/spill_read_shared/{label}"), |b| {
            b.iter(|| {
                let mut ft = FastTrack::new();
                for _ in 0..ROUNDS {
                    for t in &threads {
                        for blk in 0..BLOCKS {
                            ft.read_at(*t, Addr::new(base + blk * 8), None);
                        }
                    }
                    ft.barrier(&threads);
                }
                black_box(ft.spill_stats().spills)
            })
        });
    }
}

fn bench_shadow_words(c: &mut Criterion) {
    // One contiguous region at 0x40_0000: a small hot page set in long
    // same-page runs, then a wide page set in short runs.
    bench_distribution(c, "raytrace", &[0x40_0000], 48, 24);
    bench_distribution(c, "vips", &[0x40_0000], 512, 3);
    // The workload layout: 64 pages at the shared base and 64 at the
    // private base, one access per page visit, as in full mode.
    bench_distribution(c, "two_regions", &[0x1000_0000, 0x20_0000_0000], 64, 1);
    bench_spill_clocks(c);
}

criterion_group!(benches, bench_shadow_words);
criterion_main!(benches);
