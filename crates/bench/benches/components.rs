//! Component microbenchmarks: the building blocks of the Aikido stack.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aikido::dbi::{DbiEngine, Program, StaticInstr};
use aikido::fasttrack::FastTrack;
use aikido::shadow::{DualShadow, RegionKind, ShadowStore, TranslationCache};
use aikido::types::AddrMode;
use aikido::types::{
    AccessContext, AccessKind, Addr, AnalysisReport, BlockId, InstrId, LockId, Prot,
    SharedDataAnalysis, ThreadId,
};
use aikido::vm::{AikidoVm, Hypercall, VmConfig};
use aikido::workloads::{spill_pressure_workload, BlockExec};
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
    // One thread reading then writing 256 private blocks per epoch, with a
    // release between epochs: every access misses the same-epoch fast path
    // on an unspilled word, so this times the word-decided slow path.
    c.bench_function("fasttrack/exclusive_slow_path", |b| {
        let mut ft = FastTrack::new();
        let (t, l) = (ThreadId::new(0), LockId::new(1));
        b.iter(|| {
            for block in 0..256u64 {
                let addr = Addr::new(0x4_0000 + block * 8);
                ft.read(black_box(t), addr);
                ft.write(black_box(t), addr);
            }
            ft.release(t, l);
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

/// The checkpoint codec on its own: validate a scale-1 midpoint image from
/// its bytes, then resume it with the midpoint itself as the target, which
/// decodes every section, runs at most one scheduling round and encodes
/// the image again.
fn bench_checkpoint_codec(c: &mut Criterion) {
    let spec = WorkloadSpec::parsec("blackscholes").expect("known preset");
    let workload = Workload::generate(&spec);
    let sim = Simulator::default();
    let mut group = c.benchmark_group("checkpoint_codec");
    group.sample_size(20);
    for (name, mode) in [
        ("blackscholes_full", Mode::FullInstrumentation),
        ("blackscholes_aikido", Mode::Aikido),
    ] {
        let midpoint = sim.run(&workload, mode).counts.block_execs / 2;
        let CheckpointOutcome::Paused(snapshot) =
            sim.checkpoint(&workload, mode, midpoint).unwrap()
        else {
            panic!("the midpoint checkpoint must pause");
        };
        let bytes = snapshot.into_bytes();
        group.bench_function(name, |b| {
            b.iter(|| {
                let snapshot = Snapshot::from_bytes(bytes.clone()).unwrap();
                black_box(sim.resume_until(&workload, &snapshot, midpoint).unwrap())
            });
        });
    }
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

/// One FastTrack callback as the simulator made it; a batch is a range of
/// [`Recording::accesses`].
enum Event {
    Access(AccessContext),
    Batch(std::ops::Range<usize>),
    Acquire(ThreadId, LockId),
    Release(ThreadId, LockId),
    Fork(ThreadId, ThreadId),
    Join(ThreadId, ThreadId),
    Barrier(Vec<ThreadId>, u32),
    ThreadExit(ThreadId),
}

/// A full-mode run's FastTrack callbacks, in order.
#[derive(Default)]
struct Recording {
    accesses: Vec<AccessContext>,
    events: Vec<Event>,
}

impl Recording {
    /// Replays every callback into `analysis`, exactly as the simulator
    /// delivered them.
    fn replay(&self, analysis: &mut impl SharedDataAnalysis) {
        let mut costs = Vec::new();
        for event in &self.events {
            match event {
                Event::Access(cx) => analysis.on_access(*cx),
                Event::Batch(range) => {
                    analysis.on_access_batch(&self.accesses[range.clone()], &mut costs)
                }
                Event::Acquire(t, l) => analysis.on_acquire(*t, *l),
                Event::Release(t, l) => analysis.on_release(*t, *l),
                Event::Fork(p, c) => analysis.on_fork(*p, *c),
                Event::Join(p, c) => analysis.on_join(*p, *c),
                Event::Barrier(threads, id) => analysis.on_barrier(threads, *id),
                Event::ThreadExit(t) => analysis.on_thread_exit(*t),
            }
        }
    }
}

/// A FastTrack that records every callback it receives. The recorded run
/// is the real one: the simulator charges FastTrack's own costs, so the
/// schedule, and with it the event order, is the one a plain run sees.
#[derive(Default)]
struct Recorder {
    inner: FastTrack,
    log: Recording,
}

impl SharedDataAnalysis for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_access(&mut self, cx: AccessContext) {
        self.log.events.push(Event::Access(cx));
        self.inner.on_access(cx);
    }
    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        let start = self.log.accesses.len();
        self.log.accesses.extend_from_slice(run);
        self.log
            .events
            .push(Event::Batch(start..self.log.accesses.len()));
        self.inner.on_access_batch(run, costs);
    }
    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.log.events.push(Event::Acquire(thread, lock));
        self.inner.on_acquire(thread, lock);
    }
    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        self.log.events.push(Event::Release(thread, lock));
        self.inner.on_release(thread, lock);
    }
    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.log.events.push(Event::Fork(parent, child));
        self.inner.on_fork(parent, child);
    }
    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.log.events.push(Event::Join(parent, child));
        self.inner.on_join(parent, child);
    }
    fn on_barrier(&mut self, threads: &[ThreadId], id: u32) {
        self.log.events.push(Event::Barrier(threads.to_vec(), id));
        self.inner.on_barrier(threads, id);
    }
    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.log.events.push(Event::ThreadExit(thread));
        self.inner.on_thread_exit(thread);
    }
    fn reports(&self) -> Vec<AnalysisReport> {
        self.inner.reports()
    }
    fn access_cost_cycles(&self) -> u64 {
        self.inner.access_cost_cycles()
    }
    fn last_access_cost_cycles(&self) -> u64 {
        self.inner.last_access_cost_cycles()
    }
    fn sync_cost_cycles(&self) -> u64 {
        self.inner.sync_cost_cycles()
    }
}

/// FastTrack on its own: each perfbench workload's full-mode callbacks are
/// recorded once, and every iteration replays them into a fresh detector.
/// No scheduler, kernel or trace generation runs inside the timed loop;
/// divide ns/iter by the printed access count for ns per access.
fn bench_fasttrack_replay(c: &mut Criterion) {
    let specs = [
        (
            "low_sharing",
            WorkloadSpec::parsec("raytrace").expect("known preset"),
        ),
        (
            "high_sharing",
            WorkloadSpec::parsec("fluidanimate").expect("known preset"),
        ),
        ("read_shared", spill_pressure_workload(8).scaled(8.0)),
    ];
    let mut group = c.benchmark_group("fasttrack_replay");
    group.sample_size(10);
    for (name, spec) in specs {
        let workload = Workload::generate(&spec);
        let mut recorder = Recorder::default();
        Simulator::default().run_with_analysis(&workload, Mode::FullInstrumentation, &mut recorder);
        let log = recorder.log;
        let mut check = FastTrack::new();
        log.replay(&mut check);
        assert_eq!(check.stats(), recorder.inner.stats(), "replay of {name}");
        let spills = check.spill_stats();
        assert_eq!(spills, recorder.inner.spill_stats(), "replay of {name}");
        let stats = check.stats();
        println!(
            "fasttrack_replay/{name}: {} accesses ({} same-epoch, {} first touches, \
             {} spills, {} ownership keeps, {} claims) in {} callbacks per replay",
            stats.reads + stats.writes,
            stats.read_same_epoch + stats.write_same_epoch,
            stats.blocks_tracked,
            spills.spills,
            spills.ownership_keeps,
            spills.ownership_claims,
            log.events.len()
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut ft = FastTrack::new();
                log.replay(&mut ft);
                black_box(ft.stats().reads)
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
    bench_checkpoint_codec,
    bench_trace_generation,
    bench_fasttrack_replay
);
criterion_main!(benches);
