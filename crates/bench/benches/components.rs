//! Component microbenchmarks: the building blocks of the Aikido stack.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aikido::dbi::{DbiEngine, Program, StaticInstr};
use aikido::fasttrack::FastTrack;
use aikido::shadow::{DualShadow, RegionKind, ShadowStore, TranslationCache};
use aikido::types::AddrMode;
use aikido::types::{AccessKind, Addr, BlockId, InstrId, LockId, Prot, ThreadId};
use aikido::vm::{AikidoVm, Hypercall, VmConfig};
use aikido::workloads::BlockExec;
use aikido::{CheckpointOutcome, Mode, Simulator, Snapshot, Workload, WorkloadSpec};

fn bench_vector_clock_detector(c: &mut Criterion) {
    c.bench_function("fasttrack/same_epoch_write", |b| {
        let mut ft = FastTrack::new();
        let t = ThreadId::new(0);
        ft.write(t, Addr::new(0x1000));
        b.iter(|| ft.write(black_box(t), black_box(Addr::new(0x1000))));
    });
    c.bench_function("fasttrack/lock_handover", |b| {
        let mut ft = FastTrack::new();
        let l = LockId::new(1);
        let mut i = 0u32;
        b.iter(|| {
            let t = ThreadId::new(i % 4);
            ft.acquire(t, l);
            ft.write(t, Addr::new(0x2000));
            ft.release(t, l);
            i += 1;
        });
    });
}

fn bench_shadow(c: &mut Criterion) {
    c.bench_function("shadow/translation_cached", |b| {
        let mut shadow = DualShadow::new();
        shadow
            .register_region(Addr::new(0x10_0000), 64, RegionKind::Heap)
            .unwrap();
        let mut cache = TranslationCache::new();
        let region = shadow.region_of(Addr::new(0x10_0000)).unwrap().id;
        let instr = InstrId::new(BlockId::new(0), 0);
        b.iter(|| {
            let level = cache.access(ThreadId::new(0), instr, region);
            black_box(shadow.mirror_addr(Addr::new(0x10_0040)).unwrap());
            black_box(level)
        });
    });
    c.bench_function("shadow/store_update", |b| {
        let mut store: ShadowStore<u64> = ShadowStore::new(8);
        let mut i = 0u64;
        b.iter(|| {
            *store.get_or_default(Addr::new(0x1000 + (i % 512) * 8)) += 1;
            i += 1;
        });
    });
}

fn bench_vm(c: &mut Criterion) {
    c.bench_function("vm/unprotected_touch", |b| {
        let mut vm = AikidoVm::new(VmConfig::default());
        let t = ThreadId::new(0);
        vm.register_thread(t).unwrap();
        vm.mmap(Addr::new(0x40_0000), 16, Prot::RW_USER).unwrap();
        vm.touch(t, Addr::new(0x40_0000), AccessKind::Write)
            .unwrap();
        b.iter(|| {
            vm.touch(
                black_box(t),
                black_box(Addr::new(0x40_0100)),
                AccessKind::Read,
            )
            .unwrap()
        });
    });
    c.bench_function("vm/protect_fault_unprotect_cycle", |b| {
        let mut vm = AikidoVm::new(VmConfig::default());
        let t = ThreadId::new(0);
        vm.register_thread(t).unwrap();
        let base = Addr::new(0x50_0000);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t, base, AccessKind::Write).unwrap();
        b.iter(|| {
            vm.hypercall(Hypercall::ProtectRange {
                thread: t,
                base,
                pages: 1,
                prot: Prot::NONE,
            })
            .unwrap();
            let fault = vm.touch(t, base, AccessKind::Read).unwrap();
            vm.hypercall(Hypercall::UnprotectRange {
                thread: t,
                base,
                pages: 1,
            })
            .unwrap();
            black_box(fault)
        });
    });
}

fn bench_dbi(c: &mut Criterion) {
    c.bench_function("dbi/cached_block_execution", |b| {
        let mut program = Program::new();
        let block = program.add_block(vec![
            StaticInstr::Compute,
            StaticInstr::Mem {
                kind: AccessKind::Read,
                mode: AddrMode::Indirect,
            },
            StaticInstr::Mem {
                kind: AccessKind::Write,
                mode: AddrMode::Indirect,
            },
        ]);
        let mut engine = DbiEngine::new(program);
        engine.execute_block(block);
        b.iter(|| black_box(engine.execute_block(black_box(block))));
    });
    c.bench_function("dbi/flush_and_rejit", |b| {
        let mut program = Program::new();
        let block = program.add_block(vec![StaticInstr::Mem {
            kind: AccessKind::Write,
            mode: AddrMode::Indirect,
        }]);
        let instr = InstrId::new(block, 0);
        let mut engine = DbiEngine::new(program);
        b.iter(|| {
            engine.request_instrumentation(instr);
            black_box(engine.execute_block(block));
        });
    });
}

/// One checkpoint period of `run_checkpointed`: resume from a validated
/// image, simulate one period, checkpoint, serialize the image and
/// re-validate it from its bytes. A period should cost what the state is
/// worth, independent of how far into the run it starts.
fn bench_checkpoint_period(c: &mut Criterion) {
    let spec = WorkloadSpec::parsec("blackscholes")
        .expect("known preset")
        .scaled(0.25);
    let workload = Workload::generate(&spec);
    let sim = Simulator::default();
    let mode = Mode::FullInstrumentation;
    let total = sim.run(&workload, mode).counts.block_execs;
    let (start, period) = (total / 2, total / 16);
    let CheckpointOutcome::Paused(snapshot) = sim.checkpoint(&workload, mode, start).unwrap()
    else {
        panic!("the midpoint checkpoint must pause");
    };
    let mut group = c.benchmark_group("checkpoint_period");
    group.sample_size(20);
    group.bench_function("blackscholes_full_0.25", |b| {
        b.iter(|| {
            let outcome = sim
                .resume_until(&workload, &snapshot, start + period)
                .unwrap();
            let CheckpointOutcome::Paused(next) = outcome else {
                panic!("one period cannot finish the run");
            };
            black_box(Snapshot::from_bytes(next.into_bytes()).unwrap())
        });
    });
    group.finish();
}

/// Trace generation on its own: drains every thread of a scale-1 preset
/// through `ThreadTrace::next_into` with one reused execution, exactly as
/// the scheduler pulls blocks. Returns the access count so the work cannot
/// be optimised away.
fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(20);
    for name in ["raytrace", "fluidanimate"] {
        let spec = WorkloadSpec::parsec(name).expect("known preset");
        let workload = Workload::generate(&spec);
        group.bench_function(name, |b| {
            let mut exec = BlockExec::default();
            b.iter(|| {
                let mut accesses = 0;
                for thread in workload.threads() {
                    let mut trace = workload.thread_trace(thread);
                    while trace.next_into(&mut exec) {
                        accesses += exec.accesses.len();
                    }
                }
                black_box(accesses)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vector_clock_detector,
    bench_shadow,
    bench_vm,
    bench_dbi,
    bench_checkpoint_period,
    bench_trace_generation
);
criterion_main!(benches);
