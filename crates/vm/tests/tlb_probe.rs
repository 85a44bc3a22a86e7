//! The software-TLB probe contract: a hit in `AikidoVm::tlb(thread)` for
//! `(page, kind)` means `touch` would return a free `Ok` and change no state.
//!
//! Random sequences of the operations that change what a thread may access
//! (thread registration, `mmap`, mirror mappings and `munmap`, per-thread and
//! all-thread protection hypercalls, kernel accesses that temporarily
//! unprotect a page, and user accesses that fill the TLB) run against one VM.
//! After every step, every `(thread, page, kind)` hit is checked twice:
//!
//! * against the ground truth, a copy of the VM restored from its snapshot
//!   image, whose TLBs start empty, so its `touch` walks the shadow table:
//!   the copy must return a free `Ok` without counting anything;
//! * against the live VM: `touch` returns a free `Ok`, its statistics do not
//!   move, and its snapshot image (all state but the TLBs) is unchanged.
//!
//! The page set puts several pages in each direct-mapped TLB slot, so
//! eviction by a colliding page is exercised too.

use aikido_snapshot::{SectionWriter, SnapshotBuilder};
use aikido_types::{AccessKind, Prot, ThreadId, Vpn};
use aikido_vm::{AikidoVm, Hypercall, TouchOutcome, VmConfig};
use proptest::prelude::*;

/// Pages per mapping.
const PAGES: u64 = 2;
/// The two data mappings and the mirror of the first. All three bases are
/// multiples of the TLB size, so page `i` of each maps to the same slot.
const BASES: [u64; 3] = [
    0x100,
    0x100 + AikidoVm::TLB_ENTRIES as u64,
    0x100 + 4 * AikidoVm::TLB_ENTRIES as u64,
];
const THREADS: u32 = 4;
const KINDS: [AccessKind; 2] = [AccessKind::Read, AccessKind::Write];

/// One step of a random sequence.
#[derive(Clone, Debug)]
enum Op {
    Register(ThreadId),
    /// Maps `BASES[i]` with a guest protection; `i == 2` maps the mirror.
    Mmap(usize, Prot),
    Munmap(usize),
    Protect(ThreadId, Vpn, u64, Prot),
    Unprotect(ThreadId, Vpn, u64),
    ProtectAll(Vpn, u64, Prot),
    KernelTouch(ThreadId, Vpn, AccessKind),
    Touch(ThreadId, Vpn, AccessKind),
}

/// Every page an operation can name: all pages of the three mappings and
/// one unmapped page past each.
fn universe() -> impl Iterator<Item = Vpn> {
    BASES
        .iter()
        .flat_map(|&base| (base..=base + PAGES).map(Vpn::new))
}

fn op() -> impl Strategy<Value = Op> {
    let pages: Vec<Vpn> = universe().collect();
    (
        0u8..12,
        0u32..THREADS,
        prop::sample::select(pages),
        1u64..3,
        0u8..12,
        any::<bool>(),
        0usize..BASES.len(),
    )
        .prop_map(|(tag, thread, page, pages, bits, write, mapping)| {
            let thread = ThreadId::new(thread);
            // Every bit pattern, with `NONE` (the sharing detector's
            // protection) drawn five times as often as any other.
            let prot = Prot::from_bits(bits & 1 != 0, bits & 2 != 0, bits & 4 != 0)
                & if bits < 8 { Prot::RW_USER } else { Prot::NONE };
            let kind = KINDS[usize::from(write)];
            match tag {
                0 => Op::Register(thread),
                1 => Op::Mmap(mapping, prot),
                2 => Op::Munmap(mapping),
                3 | 4 => Op::Protect(thread, page, pages, prot),
                5 => Op::Unprotect(thread, page, pages),
                6 => Op::ProtectAll(page, pages, prot),
                7 | 8 => Op::KernelTouch(thread, page, kind),
                // User accesses fill the TLB; weight them up.
                _ => Op::Touch(thread, page, kind),
            }
        })
}

/// Applies `op`. Refused operations (an unknown thread, an overlapping or
/// missing mapping) are part of the input space: their errors are ignored,
/// and the contract must hold after them too.
fn apply(vm: &mut AikidoVm, op: &Op) {
    let base = |mapping: usize| Vpn::new(BASES[mapping]).base();
    let _ = match *op {
        Op::Register(thread) => vm.register_thread(thread),
        Op::Mmap(2, _) => vm.mmap_mirror(base(0), base(2)).map(drop),
        Op::Mmap(mapping, prot) => vm.mmap(base(mapping), PAGES, prot).map(drop),
        Op::Munmap(mapping) => vm.munmap(base(mapping)),
        Op::Protect(thread, page, pages, prot) => vm.hypercall(Hypercall::ProtectRange {
            thread,
            base: page.base(),
            pages,
            prot,
        }),
        Op::Unprotect(thread, page, pages) => vm.hypercall(Hypercall::UnprotectRange {
            thread,
            base: page.base(),
            pages,
        }),
        Op::ProtectAll(page, pages, prot) => vm.hypercall(Hypercall::ProtectAllThreads {
            base: page.base(),
            pages,
            prot,
        }),
        Op::KernelTouch(thread, page, kind) => vm
            .kernel_touch(thread, page.base().offset(8), kind)
            .map(drop),
        Op::Touch(thread, page, kind) => vm.touch(thread, page.base().offset(8), kind).map(drop),
    };
}

/// The VM's snapshot image: every piece of its state except the TLBs.
fn image(vm: &AikidoVm) -> Vec<u8> {
    let mut section = SectionWriter::new(*b"AKVM", 1);
    vm.encode_snapshot(&mut section);
    let mut builder = SnapshotBuilder::new();
    builder.push(section);
    builder.finish().into_bytes()
}

/// A copy of the VM restored from `image`, with every TLB empty.
fn cold_copy(image: Vec<u8>) -> AikidoVm {
    let snapshot = aikido_snapshot::Snapshot::from_bytes(image).expect("image is intact");
    let mut reader = snapshot.reader().expect("image is intact");
    let mut section = reader.section(*b"AKVM", 1).expect("one AKVM section");
    let vm = AikidoVm::decode_snapshot(&mut section).expect("image decodes");
    section.finish().expect("section fully read");
    vm
}

/// Checks every `(thread, page, kind)` hit of `vm`'s TLBs; returns how many
/// hits there were.
fn check_hits(vm: &mut AikidoVm) -> Result<usize, TestCaseError> {
    let before = image(vm);
    let mut truth = cold_copy(before.clone());
    let mut hits = 0;
    for thread in vm.threads() {
        for page in universe() {
            for kind in KINDS {
                let lane = vm.tlb(thread).expect("registered thread has a TLB");
                if !lane.hits(page, kind) {
                    continue;
                }
                hits += 1;
                let addr = page.base().offset(8);
                let context = format!("{thread:?} {page:?} {kind:?}");

                let stats = *truth.stats();
                let walked = truth.touch(thread, addr, kind).expect("thread is known");
                prop_assert!(
                    matches!(walked.outcome, TouchOutcome::Ok),
                    "{context}: the shadow walk gives {:?}",
                    walked.outcome
                );
                prop_assert!(walked.charges.is_free(), "{context}: {:?}", walked.charges);
                prop_assert_eq!(*truth.stats(), stats);

                let stats = *vm.stats();
                let live = vm.touch(thread, addr, kind).expect("thread is known");
                prop_assert!(matches!(live.outcome, TouchOutcome::Ok), "{context}");
                prop_assert!(live.charges.is_free(), "{context}: {:?}", live.charges);
                prop_assert_eq!(*vm.stats(), stats);
            }
        }
    }
    prop_assert!(image(vm) == before, "a TLB-hit touch changed VM state");
    Ok(hits)
}

#[test]
fn a_hit_is_a_free_touch_on_a_small_sequence() {
    // Guards the property below against a probe that never hits.
    let mut vm = AikidoVm::new(VmConfig::default());
    let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
    let page = Vpn::new(BASES[0]);
    apply(&mut vm, &Op::Register(t0));
    apply(&mut vm, &Op::Register(t1));
    apply(&mut vm, &Op::Mmap(0, Prot::RW_USER));
    apply(&mut vm, &Op::Touch(t0, page, AccessKind::Write));
    assert_eq!(check_hits(&mut vm).unwrap(), 2, "read and write both hit");
    // Protecting the page for t0 alone must drop t0's entry.
    apply(&mut vm, &Op::Protect(t0, page, 1, Prot::NONE));
    assert_eq!(check_hits(&mut vm).unwrap(), 0);
    assert!(vm.tlb(ThreadId::new(9)).is_none());
}

proptest! {
    #[test]
    fn every_tlb_hit_is_a_free_touch(
        ops in prop::collection::vec(op(), 1..60),
    ) {
        // Two threads and all three mappings to start from; the sequence
        // registers the other two threads and unmaps and remaps at will.
        let mut vm = AikidoVm::new(VmConfig::default());
        for op in [
            Op::Register(ThreadId::new(0)),
            Op::Register(ThreadId::new(1)),
            Op::Mmap(0, Prot::RW_USER),
            Op::Mmap(1, Prot::RW_USER),
            Op::Mmap(2, Prot::RW_USER),
        ] {
            apply(&mut vm, &op);
        }
        for op in &ops {
            apply(&mut vm, op);
            check_hits(&mut vm)?;
        }
    }
}
