//! Pins the trace generator at its own layer: every thread's stream of the
//! ten PARSEC presets (scale 0.02), the racy scenario and the spill-pressure
//! scenario hashes to a recorded FNV-1a digest. The hash covers each
//! execution's block id, its step (with the sync op's operand) and every
//! access's address and kind, so a slip in the RNG draw order — or any other
//! change to what the generator emits — fails here by workload and thread,
//! before it shows up as a report diff downstream.

use aikido_types::{SyncOp, ThreadId};
use aikido_workloads::{
    racy_workload, spill_pressure_workload, Step, Workload, WorkloadSpec, PARSEC_BENCHMARKS,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A step as a tag byte plus one operand word.
fn step_code(step: Step) -> (u8, u64) {
    match step {
        Step::Work => (0, 0),
        Step::Sync(SyncOp::Acquire(lock)) => (1, lock.raw()),
        Step::Sync(SyncOp::Release(lock)) => (2, lock.raw()),
        Step::Sync(SyncOp::Fork(thread)) => (3, u64::from(thread.raw())),
        Step::Sync(SyncOp::Join(thread)) => (4, u64::from(thread.raw())),
        Step::Sync(SyncOp::Barrier(id)) => (5, u64::from(id)),
        Step::Exit => (6, 0),
    }
}

fn digest(w: &Workload, thread: ThreadId) -> u64 {
    let mut h = Fnv::new();
    for exec in w.thread_trace(thread) {
        h.u64(u64::from(exec.block.raw()));
        let (tag, operand) = step_code(exec.step);
        h.bytes(&[tag]);
        h.u64(operand);
        for word in &exec.accesses {
            h.u64(word.addr().raw());
            h.bytes(&[u8::from(word.kind().is_write())]);
        }
    }
    h.0
}

/// Per-thread digests, thread 0 first.
#[rustfmt::skip]
const EXPECTED: [(&str, &[u64]); 12] = [
    ("freqmine", &[0x93fdb6385f61900b, 0x4a4a30d83e2c7219, 0x250245254c84b0bd, 0xf67ea6de9f8faf17, 0xd2dc976ecd1942b2, 0xd3eecb4a691c605e, 0x2af7a613e4333354, 0x39d604ab1722f25b]),
    ("blackscholes", &[0x9a1fa8abb1521ec6, 0x97195bcb688ecaed, 0xe3280ae56925be5a, 0x4c3657136cefbf37, 0xfc4aa0f2c41e4d6c, 0x4c8dc987a88bbbd1, 0x2feb3cb4148b80f5, 0xc9a494092e68648d]),
    ("bodytrack", &[0xcd49c2fb683d961b, 0x8323089906dad9dd, 0xafae8ddb811f6da7, 0x8a56d641d496345e, 0x85db40776e353014, 0x312ba67faf76d365, 0x398833581408c088, 0x6ca4e85de5cf5cff]),
    ("raytrace", &[0xd7436ef9c1ba54a3, 0x961b64a4f17c588b, 0x94b50a30e9304195, 0x621a57e9bff8bb6c, 0x5fc0438c27e7a4a7, 0x48b77b4f491de1ea, 0xa77f02df3c8eb948, 0x1176907d736354d3]),
    ("swaptions", &[0x94ea1b60b7d7335b, 0x0754a0f943d1ce0d, 0x5298371ace3aa2d7, 0x6565b9e36ad35763, 0x8061fcb6e391947c, 0xf8eb7f5576ef08f3, 0xddb01df22e66681d, 0x797989d143ac3f16]),
    ("fluidanimate", &[0x9eb30d21ba1782ef, 0x3e6b62333ae87275, 0x5948215f5a22739b, 0x4f4854fdc0394151, 0x8b463d12155e12b6, 0xe8249fee05a17b74, 0x7c95f5d6a3a2d8f9, 0xe773b0b3e5d7d97e]),
    ("vips", &[0x07f0722257de2d17, 0x96c98d87fdbb761e, 0x755592ead28bc075, 0xd79dc08cfb338f33, 0x3ce6db41449079a2, 0x4750402e822acab8, 0x638a14fdfa841af8, 0xc0afae116514855d]),
    ("x264", &[0xc19801377735bb78, 0xb2f0cd65961501b4, 0xb33adcb7fb63ac1a, 0x83765754ba48c4c8, 0xa6bfe10b24e694a3, 0x9fc00c8bf792a8af, 0x38c0391109c80916, 0x466de064bdcdb70a]),
    ("canneal", &[0xc43d563a35f8582c, 0x0200aef1968bb270, 0x393d1520ed622c3b, 0xa59e6dbaf6d42df2, 0x2ede3a374cf71b8a, 0xc8706d17f3892e0e, 0x8f304cf93b6ea628, 0x5d2373167c918a86]),
    ("streamcluster", &[0x64baf6366478b18b, 0x0dd55b816b856bbf, 0x7634d0132415b880, 0x4f9b513e6ece375d, 0x67270d43774dbfce, 0x56dcaa7e09a3ee89, 0x032248eec4728995, 0xcf4c3f7a5eae97d3]),
    ("racy", &[0xa4cb4e154cf8c501, 0x5965bb1473a29b3f, 0x8e1bd2e367d850f1, 0x4f7c8bdb4b0de453]),
    ("spill_pressure", &[0x3f1391be8bc47b27, 0x7203f84fa5564240, 0x5629a13aefe1d0a7, 0x869a6c1a3eefc137, 0x0b485503f46bcedb, 0xc83485b62d900efd, 0xbd1986326f80a6c8, 0x2429917443efb99e]),
];

#[test]
fn every_thread_stream_matches_its_recorded_digest() {
    let mut specs: Vec<WorkloadSpec> = PARSEC_BENCHMARKS
        .iter()
        .map(|name| WorkloadSpec::parsec(name).unwrap().scaled(0.02))
        .collect();
    specs.push(racy_workload(4));
    specs.push(spill_pressure_workload(8));
    assert_eq!(specs.len(), EXPECTED.len());
    let mut mismatches = Vec::new();
    for (spec, (name, expected)) in specs.iter().zip(EXPECTED) {
        assert_eq!(spec.name, name, "workload order");
        let w = Workload::generate(spec);
        assert_eq!(w.threads().len(), expected.len(), "{name}: thread count");
        for (thread, &want) in w.threads().into_iter().zip(expected) {
            let got = digest(&w, thread);
            if got != want {
                mismatches.push(format!(
                    "{name} {thread}: {got:#018x}, recorded {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "trace streams changed:\n{}",
        mismatches.join("\n")
    );
}
