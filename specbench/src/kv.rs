//! The `kv-read` and `kv-write` workloads on [`KvService`].
//!
//! One client thread drives the service closed loop. Op streams are
//! generated window by window outside the timed intervals; each window is
//! timed on its own, and the verifying shadow map is advanced after the
//! window, also outside the timing. After the measured phase every shard
//! is captured with every unflushed line lost, recovered through
//! [`KvShard::recover_image`], and checked key by key against the shadow.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use specpmt_baselines::{PmdkConfig, PmdkUndo};
use specpmt_core::concurrent::DEFAULT_BBOX_STALL_NS;
use specpmt_core::{
    forensics, ConcurrentConfig, LockedTxHandle, RecoveryOptions, RecoveryReport, SpecConfig,
    SpecSpmt, SpecSpmtShared,
};
use specpmt_hwtx::{hw_pool, Ede, EdeConfig, HwSpecConfig, HwSpecPmt};
use specpmt_kv::{
    AdmissionConfig, CasOutcome, KvConfig, KvError, KvOp, KvService, KvShard, LoadGen, OpClass,
    OpMix, OpResult, ShardTable, WorkloadSpec, SLOT_BYTES,
};
use specpmt_pmem::{
    CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool, PmemStats,
};
use specpmt_telemetry::blackbox::DEFAULT_RING_CAPACITY;
use specpmt_telemetry::BbKind;
use specpmt_txn::{run_tx, TxRuntime};

use crate::stats::{median, ratio, Windows};
use crate::trace::{Layer, Timed, Tracer};
use crate::{procfs, Metrics, Mode, RunResult};

/// Setups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Recoveries of clones of one captured image; `core.recovery.host_ms`
/// is the median.
const RECOVERY_REPEATS: usize = 11;
/// Ops of the stream replayed on the sequential stacks for the two
/// speedup metrics.
const REPLAY_OPS: usize = 20_000;
/// Payload bytes a put or applied cas acknowledges (key and value).
const PUT_PAYLOAD: u64 = 16;
/// Payload bytes a delete of a present key acknowledges (the key).
const DELETE_PAYLOAD: u64 = 8;

/// Everything that defines one kv workload.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Workload name.
    pub name: &'static str,
    /// Service configuration, every field set here.
    pub cfg: KvConfig,
    /// Op-stream parameters, seed applied.
    pub load: WorkloadSpec,
    /// Insert every key of the key space during setup.
    pub preload: bool,
    /// The client calls `write_checkpoint` on each shard every this many
    /// ops (0: never).
    pub checkpoint_every: u64,
    /// Enable each shard runtime's telemetry registry.
    pub registry: bool,
    /// Ops per timed window.
    pub window_ops: usize,
    /// Ops run before the first timed window.
    pub warmup_ops: usize,
}

/// The shipped admission tuning, spelled out so a change to the defaults
/// cannot silently change the benchmark.
pub const ADMISSION: AdmissionConfig = AdmissionConfig {
    window_ops: 1024,
    quota_per_window: u64::MAX,
    slo_ns: 200_000,
    shed_step_permille: 100,
    max_shed_permille: 900,
};

/// `kv-read`: 2 shards, solo commit, shipped daemons and governor,
/// recorder and telemetry off; read-mostly zipf θ=0.99 over 2×8192 keys,
/// all preloaded. The hot set fits in L2, so the read path dominates.
pub fn kv_read(seed: u64) -> KvSpec {
    KvSpec {
        name: "kv-read",
        cfg: KvConfig {
            shards: 2,
            workers: 1,
            tenants: 2,
            capacity_per_shard: 1 << 14,
            pool_bytes: 16 << 20,
            media_channels: 6,
            group_commit: false,
            reclaim_threshold_bytes: 1 << 20,
            daemons: true,
            stripe_bytes: 64,
            admission: ADMISSION,
            governor_every: 256,
            flight_recorder: false,
        },
        load: WorkloadSpec {
            seed: 0x5EED_CAFE ^ seed,
            tenants: 2,
            key_space: 8192,
            theta: 0.99,
            mix: OpMix { get_pct: 90, put_pct: 6, delete_pct: 0, cas_pct: 2, scan_pct: 2 },
        },
        preload: true,
        checkpoint_every: 0,
        registry: false,
        window_ops: 40_000,
        warmup_ops: 40_000,
    }
}

/// `kv-write`: 1 shard, group commit with its combiner and reclaim
/// daemons, recorder and telemetry registry on; write-heavy uniform keys
/// over 2×2^16 identities (a 6 MiB table and a log of tens of MiB, far
/// beyond L2), no preload, and a client checkpoint at the end of every
/// window.
pub fn kv_write(seed: u64) -> KvSpec {
    KvSpec {
        name: "kv-write",
        cfg: KvConfig {
            shards: 1,
            workers: 1,
            tenants: 2,
            capacity_per_shard: 1 << 17,
            pool_bytes: 64 << 20,
            media_channels: 6,
            group_commit: true,
            reclaim_threshold_bytes: 8 << 20,
            daemons: true,
            stripe_bytes: 64,
            admission: ADMISSION,
            governor_every: 256,
            flight_recorder: true,
        },
        load: WorkloadSpec {
            seed: 0x5EED_CAFE ^ seed,
            tenants: 2,
            key_space: 1 << 15,
            theta: 0.0,
            mix: OpMix { get_pct: 10, put_pct: 70, delete_pct: 10, cas_pct: 10, scan_pct: 0 },
        },
        preload: false,
        checkpoint_every: 160_000,
        registry: true,
        window_ops: 160_000,
        warmup_ops: 160_000,
    }
}

/// The shard runtime configuration [`KvService::open`] must produce for
/// `cfg`: every field explicit, so a drifting default or an inherited
/// environment knob fails the run instead of changing what it measures.
pub fn pinned_runtime_config(cfg: &KvConfig) -> ConcurrentConfig {
    ConcurrentConfig::builder()
        .block_bytes(4096)
        .data_persistence(false)
        .threads(cfg.workers)
        .reclaim_threshold_bytes(cfg.reclaim_threshold_bytes)
        .group_commit(cfg.group_commit)
        .group_linger_ns(0)
        .checkpoint_interval_cycles(0)
        .flight_recorder(cfg.flight_recorder)
        .bbox_capacity(DEFAULT_RING_CAPACITY)
        .bbox_stall_ns(DEFAULT_BBOX_STALL_NS)
        .bbox_eager_receipts(false)
        .build()
}

/// Deterministic preload value of `(tenant, key)` under `seed`.
fn preload_value(seed: u64, tenant: u32, key: u64) -> u64 {
    let mut x = seed ^ (u64::from(tenant) << 48) ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The preload puts of `spec` (empty without preload).
pub fn preload_ops(spec: &KvSpec) -> Vec<KvOp> {
    if !spec.preload {
        return Vec::new();
    }
    let l = &spec.load;
    (0..l.tenants)
        .flat_map(|tenant| {
            (0..l.key_space).map(move |key| KvOp {
                tenant,
                class: OpClass::Put,
                key,
                value: preload_value(l.seed, tenant, key),
            })
        })
        .collect()
}

/// The verifying shadow of the table contents: advanced op by op, after
/// each window, against the results the service returned.
#[derive(Debug, Default)]
pub struct Shadow {
    /// `(tenant, key)` → value; `None` once deleted.
    pub map: HashMap<(u32, u64), Option<u64>>,
    /// Payload bytes of acknowledged puts, applied cases and deletes.
    pub acked_payload: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Of those, `TableFull`.
    pub table_full: u64,
    /// Results that disagree with the shadow.
    pub mismatches: Vec<String>,
}

impl Shadow {
    fn current(&self, tenant: u32, key: u64) -> Option<u64> {
        self.map.get(&(tenant, key)).copied().flatten()
    }

    fn mismatch(&mut self, op: &KvOp, what: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(format!("{op:?}: {what}"));
        }
    }

    /// Checks `out` against the shadow and applies `op` if it took effect.
    pub fn apply(&mut self, op: &KvOp, out: &Result<OpResult, KvError>) {
        let cur = self.current(op.tenant, op.key);
        let id = (op.tenant, op.key);
        match (op.class, out) {
            (_, Err(e)) => {
                self.failed += 1;
                if *e == KvError::TableFull {
                    self.table_full += 1;
                }
            }
            (OpClass::Get, Ok(OpResult::Value(v))) => {
                if *v != cur {
                    self.mismatch(op, format!("get returned {v:?}, shadow holds {cur:?}"));
                }
            }
            (OpClass::Put, Ok(OpResult::Stored)) => {
                self.map.insert(id, Some(op.value));
                self.acked_payload += PUT_PAYLOAD;
            }
            (OpClass::Delete, Ok(OpResult::Deleted(found))) => {
                if *found != cur.is_some() {
                    self.mismatch(op, format!("delete found={found}, shadow holds {cur:?}"));
                }
                if *found {
                    self.acked_payload += DELETE_PAYLOAD;
                }
                self.map.insert(id, None);
            }
            // One client: the generated cas reads the current value and
            // proposes against it, so it must apply.
            (OpClass::Cas, Ok(OpResult::Cas(CasOutcome::Applied))) => {
                self.map.insert(id, Some(op.value));
                self.acked_payload += PUT_PAYLOAD;
            }
            (OpClass::Scan, Ok(OpResult::Scanned(entries))) => {
                if entries.len() > op.value as usize {
                    self.mismatch(op, format!("scan returned {} > limit", entries.len()));
                }
                for &(k, v) in entries {
                    let want = self.current(op.tenant, k);
                    if want != Some(v) {
                        self.mismatch(op, format!("scan saw ({k}, {v}), shadow holds {want:?}"));
                    }
                }
            }
            (_, Ok(r)) => self.mismatch(op, format!("unexpected result {r:?}")),
        }
    }

    /// Live keys.
    pub fn live(&self) -> u64 {
        self.map.values().filter(|v| v.is_some()).count() as u64
    }
}

/// Opens the service for `spec` and brings it to the ready-to-serve state
/// (preload included). Returns it with the format and preload seconds.
pub fn setup(spec: &KvSpec, preload: &[KvOp]) -> Result<(KvService, f64, f64), String> {
    let t0 = Instant::now();
    let svc = KvService::open(spec.cfg);
    let format_s = t0.elapsed().as_secs_f64();
    let want = pinned_runtime_config(&spec.cfg);
    for i in 0..spec.cfg.shards {
        let rt = svc.shard(i).runtime();
        if *rt.config() != want {
            return Err(format!(
                "shard {i} runtime config drifted from the pinned one: {:?} != {want:?}",
                rt.config()
            ));
        }
        rt.telemetry().set_enabled(spec.registry);
    }
    let t1 = Instant::now();
    {
        let mut w = svc.worker(0);
        for op in preload {
            w.execute(*op).map_err(|e| format!("preload {op:?} failed: {e}"))?;
        }
    }
    Ok((svc, format_s, t1.elapsed().as_secs_f64()))
}

/// Sum over shards of one device counter snapshot.
fn pmem_stats(svc: &KvService) -> PmemStats {
    let mut sum = PmemStats::default();
    for i in 0..svc.config().shards {
        let s = svc.shard(i).runtime().device().stats();
        sum.clwb_count += s.clwb_count;
        sum.sfence_count += s.sfence_count;
        sum.fence_stall_ns += s.fence_stall_ns;
        sum.lines_persisted += s.lines_persisted;
        sum.seq_line_hits += s.seq_line_hits;
        sum.bytes_stored += s.bytes_stored;
        sum.bytes_loaded += s.bytes_loaded;
        sum.nt_stores += s.nt_stores;
    }
    sum
}

/// Simulated ns the service's own per-class histograms summed (exact
/// sums, not quantiles), and the ops they counted.
fn sim_totals(svc: &KvService) -> (u64, u64) {
    let st = svc.stats();
    specpmt_kv::OP_CLASSES
        .iter()
        .fold((0, 0), |(ns, n), &c| (ns + st.sim(c).sum, n + st.sim(c).count()))
}

/// One op through the composition `KvWorker::execute` uses, with a span
/// around every layer call.
fn execute_traced(
    svc: &KvService,
    handles: &mut [LockedTxHandle],
    tr: &mut Tracer,
    per_shard: &mut [u64],
    op: KvOp,
) -> Result<OpResult, KvError> {
    tr.begin_op();
    tr.enter(Layer::Admission);
    let admitted = svc.admission().try_admit(op.tenant);
    tr.exit();
    let seq = match admitted {
        Ok(seq) => seq,
        Err(e) => {
            tr.end_op();
            return Err(e);
        }
    };
    tr.enter(Layer::Router);
    let shard = svc.router().shard_of(op.tenant, op.key);
    tr.exit();
    per_shard[shard] += 1;
    let table = svc.shard(shard).table();
    let recorder = svc.config().flight_recorder;
    let class = op.class.index() as u8;
    if recorder {
        tr.enter(Layer::Recorder);
        handles[shard].inner().record_event(BbKind::KvOp, op.key, shard as u64, class);
        tr.exit();
    }
    let layer = match op.class {
        OpClass::Get => Layer::TableGet,
        OpClass::Put => Layer::TablePut,
        OpClass::Delete => Layer::TableDelete,
        OpClass::Cas => Layer::TableCas,
        OpClass::Scan => Layer::TableScan,
    };
    tr.enter(layer);
    let out = {
        let mut t = Timed { inner: &mut handles[shard], tr: &mut *tr };
        let (tenant, key, value) = (op.tenant, op.key, op.value);
        match op.class {
            OpClass::Get => Ok(OpResult::Value(run_tx(&mut t, |tx| table.get(tx, tenant, key)))),
            OpClass::Put => run_tx(&mut t, |tx| table.put(tx, tenant, key, value))
                .map(|()| OpResult::Stored)
                .map_err(|_| KvError::TableFull),
            OpClass::Delete => {
                Ok(OpResult::Deleted(run_tx(&mut t, |tx| table.delete(tx, tenant, key))))
            }
            OpClass::Cas => {
                let expected = run_tx(&mut t, |tx| table.get(tx, tenant, key));
                run_tx(&mut t, |tx| table.cas(tx, tenant, key, expected, value))
                    .map(OpResult::Cas)
                    .map_err(|_| KvError::TableFull)
            }
            OpClass::Scan => Ok(OpResult::Scanned(run_tx(&mut t, |tx| {
                table.scan(tx, tenant, key, value as usize)
            }))),
        }
    };
    tr.exit();
    if recorder {
        tr.enter(Layer::Recorder);
        handles[shard].inner().record_event(BbKind::KvOpDone, op.key, shard as u64, class);
        tr.exit();
    }
    let every = svc.config().governor_every;
    if every != 0 && (seq + 1).is_multiple_of(every) {
        tr.enter(Layer::Governor);
        let shards = svc.config().shards;
        let worst = (0..shards).map(|i| svc.shard(i).tail_p99_ns()).max().unwrap_or(0);
        svc.admission().observe_tail(worst);
        tr.exit();
    }
    tr.end_op();
    out
}

/// The client loop's state for one service instance.
struct Client<'s> {
    spec: &'s KvSpec,
    svc: &'s KvService,
    gen: LoadGen,
    shadow: Shadow,
    executed: u64,
    checkpoint_us: Vec<f64>,
    traced: Option<(Vec<LockedTxHandle>, Tracer, Vec<u64>)>,
    log_bytes: u64,
}

impl<'s> Client<'s> {
    fn new(spec: &'s KvSpec, svc: &'s KvService, shadow: Shadow, traced: bool) -> Self {
        let traced = traced.then(|| {
            let handles = (0..spec.cfg.shards)
                .map(|i| {
                    let s = svc.shard(i);
                    LockedTxHandle::new(s.runtime().tx_handle(0), Arc::clone(s.locks()))
                })
                .collect();
            (handles, Tracer::new(false), vec![0; spec.cfg.shards])
        });
        Self {
            spec,
            svc,
            gen: LoadGen::new(spec.load),
            shadow,
            executed: 0,
            checkpoint_us: Vec::new(),
            traced,
            log_bytes: 0,
        }
    }

    /// Runs `ops` (already generated) closed loop. Returns the host ns the
    /// ops took and, per op, its result and latency. The client's
    /// checkpoint calls are timed on their own and left out of the
    /// returned time, so a window's rate counts requests only.
    fn run(
        &mut self,
        ops: &[KvOp],
        worker: &mut Option<specpmt_kv::KvWorker<'s>>,
        out: &mut Vec<(Result<OpResult, KvError>, u64)>,
    ) -> u64 {
        out.clear();
        let mut checkpoint_ns = 0;
        let t0 = Instant::now();
        for op in ops {
            let s0 = Instant::now();
            let r = match (&mut self.traced, worker.as_mut()) {
                (Some((handles, tr, per_shard)), _) => {
                    // Bytes the tx stored beyond its own writes: its log
                    // record (plus any daemon store in the same window).
                    let stored0 = pmem_stats(self.svc).bytes_stored;
                    let wb0 = tr.tx.write_bytes;
                    let r = execute_traced(self.svc, handles, tr, per_shard, *op);
                    let stored = pmem_stats(self.svc).bytes_stored - stored0;
                    self.log_bytes += stored.saturating_sub(tr.tx.write_bytes - wb0);
                    r
                }
                (None, Some(w)) => w.execute(*op),
                (None, None) => unreachable!("a client has a worker or traced handles"),
            };
            out.push((r, s0.elapsed().as_nanos() as u64));
            self.executed += 1;
            if self.spec.checkpoint_every != 0
                && self.executed.is_multiple_of(self.spec.checkpoint_every)
            {
                let c0 = Instant::now();
                for i in 0..self.spec.cfg.shards {
                    self.svc.shard(i).runtime().write_checkpoint();
                }
                let ns = c0.elapsed().as_nanos() as u64;
                checkpoint_ns += ns;
                self.checkpoint_us.push(ns as f64 / 1e3);
            }
        }
        t0.elapsed().as_nanos() as u64 - checkpoint_ns
    }
}

/// Measured-phase output of one service instance.
struct Measured {
    windows: Windows,
    cpu_ns: u64,
    pmem: PmemStats,
    sim_ns: u64,
    sim_ops: u64,
    attempted: u64,
    lock: specpmt_txn::LockTableStats,
    shared: Vec<specpmt_core::SharedStats>,
    reclaim: Vec<specpmt_core::ReclaimStats>,
    registry_spans: u64,
    batch_wait: (u64, u64),
    group: (u64, u64),
}

/// Warm up, then run timed windows until `seconds` of measured time.
fn measure<'s>(
    client: &mut Client<'s>,
    worker: &mut Option<specpmt_kv::KvWorker<'s>>,
    seconds: f64,
) -> Measured {
    let svc = client.svc;
    let spec = client.spec;
    let mut results = Vec::with_capacity(spec.window_ops);
    let warm = client.gen.take(spec.warmup_ops);
    client.run(&warm, worker, &mut results);
    for (op, (r, _)) in warm.iter().zip(&results) {
        client.shadow.apply(op, r);
    }
    if let Some((_, tr, per_shard)) = client.traced.as_mut() {
        *tr = Tracer::new(false);
        per_shard.iter_mut().for_each(|c| *c = 0);
        client.log_bytes = 0;
    }
    client.checkpoint_us.clear();
    let shards = spec.cfg.shards;
    let lock_of = |svc: &KvService| {
        (0..shards).fold(specpmt_txn::LockTableStats::default(), |mut a, i| {
            let s = svc.shard(i).locks().stats();
            a.acquires += s.acquires;
            a.conflicts += s.conflicts;
            a
        })
    };
    for i in 0..shards {
        svc.shard(i).runtime().telemetry().registry.snapshot_delta();
    }
    let pmem0 = pmem_stats(svc);
    let (sim0, simn0) = sim_totals(svc);
    let lock0 = lock_of(svc);
    let shared0: Vec<_> = (0..shards).map(|i| svc.shard(i).runtime().stats()).collect();
    let reclaim0: Vec<_> = (0..shards).map(|i| svc.shard(i).runtime().reclaim_stats()).collect();
    let mut windows = Windows::default();
    let mut cpu_ns = 0;
    let mut attempted = 0;
    let (mut gets, mut puts) = (Vec::new(), Vec::new());
    // Stop only on a window that ended with the client's checkpoint, so
    // the crash image's replay tail does not depend on how many windows
    // the host managed.
    let at_checkpoint = |executed: u64| {
        spec.checkpoint_every == 0 || executed.is_multiple_of(spec.checkpoint_every)
    };
    while (windows.measured_ns as f64) < seconds * 1e9 || !at_checkpoint(client.executed) {
        let ops = client.gen.take(spec.window_ops);
        let c0 = procfs::cpu_ns();
        let elapsed = client.run(&ops, worker, &mut results);
        cpu_ns += procfs::cpu_ns() - c0;
        gets.clear();
        puts.clear();
        for (op, (r, ns)) in ops.iter().zip(&results) {
            match op.class {
                OpClass::Get => gets.push(*ns),
                OpClass::Put => puts.push(*ns),
                _ => {}
            }
            client.shadow.apply(op, r);
        }
        attempted += ops.len() as u64;
        windows.push(ops.len() as u64, elapsed, &mut gets, &mut puts);
    }
    let (sim1, simn1) = sim_totals(svc);
    let lock1 = lock_of(svc);
    let mut registry_spans = 0;
    let mut batch_wait = (0, 0);
    let mut group = (0, 0);
    for i in 0..shards {
        let d = svc.shard(i).runtime().telemetry().registry.snapshot_delta();
        registry_spans += d.phase_counts.iter().sum::<u64>();
        let (n, sum) = d.phase(specpmt_telemetry::Phase::BatchWait);
        batch_wait = (batch_wait.0 + n, batch_wait.1 + sum);
        group.0 += d.metric(specpmt_telemetry::Metric::GroupCommits);
        group.1 += d.metric(specpmt_telemetry::Metric::GroupBatches);
    }
    Measured {
        windows,
        cpu_ns,
        pmem: pmem_stats(svc).delta_since(&pmem0),
        sim_ns: sim1 - sim0,
        sim_ops: simn1 - simn0,
        attempted,
        lock: lock1.delta_since(&lock0),
        shared: (0..shards)
            .map(|i| {
                let s = svc.shard(i).runtime().stats();
                let b = shared0[i];
                specpmt_core::SharedStats {
                    commits: s.commits - b.commits,
                    aborts: s.aborts - b.aborts,
                    reclaim_cycles: s.reclaim_cycles - b.reclaim_cycles,
                    records_reclaimed: s.records_reclaimed - b.records_reclaimed,
                    log_live_bytes: s.log_live_bytes,
                }
            })
            .collect(),
        reclaim: (0..shards)
            .map(|i| svc.shard(i).runtime().reclaim_stats().delta_since(&reclaim0[i]))
            .collect(),
        registry_spans,
        batch_wait,
        group,
    }
}

/// Recovery gates over every shard, and the captured images.
pub struct Recovered {
    /// One report per shard.
    pub reports: Vec<RecoveryReport>,
    /// Live log bytes over shards at the capture.
    pub log_live_bytes: u64,
    /// Per shard, the captured image and its recovered form.
    pub images: Vec<(CrashImage, CrashImage)>,
}

/// Captures each shard with every unflushed line lost, recovers it through
/// [`KvShard::recover_image`], and checks every key the shadow knows.
pub fn recover_and_check(
    spec: &KvSpec,
    svc: &KvService,
    shadow: &Shadow,
    res: &mut RunResult,
) -> Recovered {
    let mut out = Recovered { reports: Vec::new(), log_live_bytes: 0, images: Vec::new() };
    for i in 0..spec.cfg.shards {
        let shard: &KvShard = svc.shard(i);
        // Crash right after a reclamation cycle: the log then holds the
        // fresh entries the op stream left, whatever phase the daemon's
        // cycles were in, so its size repeats run to run. (The measured
        // phase ends on the client's checkpoint, so replay also starts at
        // a fixed point.)
        shard.runtime().reclaim_cycle();
        out.log_live_bytes += shard.runtime().stats().log_live_bytes;
        let img = shard.runtime().device().capture(CrashPolicy::AllLost);
        let mut rec = img.clone();
        let report = shard.recover_image(&mut rec);
        if spec.cfg.flight_recorder {
            let fx = forensics(&img);
            res.check(fx.recorder_present, || {
                format!("shard {i}: no flight recorder in the image")
            });
            res.check(fx.is_clean(), || {
                format!("shard {i}: forensics violations {:?}", fx.violations)
            });
            let issues = fx.check_against(&report);
            res.check(issues.is_empty(), || {
                format!("shard {i}: forensics vs recovery: {issues:?}")
            });
        }
        check_image(spec, svc, i, &rec, shadow, res);
        out.reports.push(report);
        out.images.push((img, rec));
    }
    out
}

/// Sum over shards of the median time (ms) of `repeats` recoveries of
/// clones of the captured image, with the options `KvShard::recover_image`
/// uses. Runs after the service has shut down, so no daemon shares the
/// host with the timed recoveries; every clone must recover to the same
/// report and bytes.
pub fn time_recoveries(rec: &Recovered, repeats: usize, res: &mut RunResult) -> f64 {
    let mut total = 0.0;
    for (i, ((img, recovered), report)) in rec.images.iter().zip(&rec.reports).enumerate() {
        let mut times = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let mut clone = img.clone();
            let t0 = Instant::now();
            let again = SpecSpmtShared::recover_opts(&mut clone, &RecoveryOptions::parallel(4));
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            res.check(again == *report && clone == *recovered, || {
                format!("shard {i}: recovering a clone of the same image differed")
            });
        }
        res.notes.push(format!(
            "recovery shard {i}: ms={:?}",
            times.iter().map(|t| (t * 1e3).round() / 1e3).collect::<Vec<_>>()
        ));
        total += median(&times);
    }
    total
}

fn check_image(
    spec: &KvSpec,
    svc: &KvService,
    shard: usize,
    img: &CrashImage,
    shadow: &Shadow,
    res: &mut RunResult,
) {
    let table: ShardTable = svc.shard(shard).table();
    let mut bad = 0u64;
    for (&(tenant, key), &want) in &shadow.map {
        if svc.router().shard_of(tenant, key) != shard {
            continue;
        }
        let got = table.get_in_image(img, tenant, key);
        if got != want {
            bad += 1;
            if bad <= 4 {
                res.fail(format!(
                    "{}: shard {shard} recovered ({tenant}, {key}) = {got:?}, acked {want:?}",
                    spec.name
                ));
            }
        }
    }
    res.check(bad == 0, || format!("{}: {bad} acked keys lost or wrong after recovery", spec.name));
}

/// The fig12/fig13 pipeline applied to the kv op stream: the first
/// [`REPLAY_OPS`] ops (after the preload) through `ShardTable` on one
/// sequential runtime. Returns the simulated ns of the replayed ops and a
/// digest of their results, which every runtime must agree on.
fn replay<R: TxRuntime>(rt: &mut R, capacity: usize, preload: &[KvOp], ops: &[KvOp]) -> (u64, u64) {
    let table = ShardTable::create(rt, capacity);
    rt.untimed(|rt| {
        for op in preload {
            run_tx(rt, |tx| table.put(tx, op.tenant, op.key, op.value))
                .expect("replay preload fits");
        }
    });
    let clock0 = rt.pool().device().now_ns();
    let bg0 = rt.tx_stats().background_ns;
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0100_0000_01B3);
    for op in ops {
        let (t, k, v) = (op.tenant, op.key, op.value);
        match op.class {
            OpClass::Get => fold(run_tx(rt, |tx| table.get(tx, t, k)).map_or(1, |x| x ^ 2)),
            OpClass::Put => fold(run_tx(rt, |tx| table.put(tx, t, k, v)).map_or(3, |()| 4)),
            OpClass::Delete => fold(u64::from(run_tx(rt, |tx| table.delete(tx, t, k))) + 5),
            OpClass::Cas => {
                let exp = run_tx(rt, |tx| table.get(tx, t, k));
                fold(match run_tx(rt, |tx| table.cas(tx, t, k, exp, v)) {
                    Ok(CasOutcome::Applied) => 7,
                    Ok(CasOutcome::Mismatch(_)) => 8,
                    Err(_) => 9,
                });
            }
            OpClass::Scan => {
                for (a, b) in run_tx(rt, |tx| table.scan(tx, t, k, v as usize)) {
                    fold(a ^ b.rotate_left(17));
                }
            }
        }
    }
    let bg = rt.tx_stats().background_ns - bg0;
    ((rt.pool().device().now_ns() - clock0).saturating_sub(bg), digest)
}

/// Simulated speedups of the replayed kv ops: PMDK ÷ SpecSPMT and EDE ÷
/// SpecHPMT, the same ratios fig12/fig13 take per STAMP app.
pub fn replay_speedups(spec: &KvSpec, res: &mut RunResult) -> (f64, f64) {
    let preload = preload_ops(spec);
    let ops = LoadGen::new(spec.load).take(REPLAY_OPS);
    let capacity = spec.cfg.capacity_per_shard * spec.cfg.shards;
    let bytes = (capacity * SLOT_BYTES).next_power_of_two().max(16 << 20) * 2;
    let pool = || PmemPool::create(PmemDevice::new(PmemConfig::new(bytes)));
    // Reclamation runs on its own core in the modelled system and is
    // excluded from the simulated time; its threshold is raised past the
    // pool size so the bounded replay never pays for host-side cycles
    // that rescan a log of still-fresh distinct keys after every commit.
    let no_reclaim = SpecConfig { reclaim_threshold_bytes: bytes, ..crate::stamp::spec_config() };
    let spec_rt = replay(&mut SpecSpmt::new(pool(), no_reclaim), capacity, &preload, &ops);
    let pmdk = replay(&mut PmdkUndo::new(pool(), PmdkConfig::default()), capacity, &preload, &ops);
    let hw = replay(
        &mut HwSpecPmt::new(hw_pool(bytes), HwSpecConfig::default()),
        capacity,
        &preload,
        &ops,
    );
    let ede = replay(&mut Ede::new(hw_pool(bytes), EdeConfig::default()), capacity, &preload, &ops);
    let digests = [spec_rt.1, pmdk.1, hw.1, ede.1];
    res.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("{}: replay results differ across runtimes: {digests:x?}", spec.name)
    });
    (ratio(pmdk.0 as f64, spec_rt.0 as f64), ratio(ede.0 as f64, hw.0 as f64))
}

/// Runs one kv workload for `seconds` of measured time.
pub fn run(spec: &KvSpec, seconds: f64, mode: Mode) -> RunResult {
    let mut res = RunResult::default();
    let preload = preload_ops(spec);
    res.notes.push(format!("config {}: {:?}", spec.name, spec.cfg));
    res.notes.push(format!("runtime config (pinned): {:?}", pinned_runtime_config(&spec.cfg)));
    res.notes.push(format!(
        "load: {:?} preload_keys={} checkpoint_every={}",
        spec.load,
        preload.len(),
        spec.checkpoint_every
    ));
    let initial_shadow = || {
        let mut s = Shadow::default();
        for op in &preload {
            s.map.insert((op.tenant, op.key), Some(op.value));
        }
        s
    };
    match mode {
        Mode::EndToEnd => {
            let (setup_s, last) = crate::median_setup(SETUP_REPEATS, || setup(spec, &preload));
            let svc = match last {
                Ok((svc, _, _)) => svc,
                Err(e) => {
                    res.fail(e);
                    return res;
                }
            };
            res.notes.push(procfs::pin_client_and_daemons());
            let mut worker = Some(svc.worker(0));
            let mut client = Client::new(spec, &svc, initial_shadow(), false);
            let ph = measure(&mut client, &mut worker, seconds);
            drop(worker);
            let shadow = std::mem::take(&mut client.shadow);
            res.check(shadow.mismatches.is_empty(), || {
                format!("results disagree with the shadow: {:?}", shadow.mismatches)
            });
            let rec = recover_and_check(spec, &svc, &shadow, &mut res);
            let checkpoints = std::mem::take(&mut client.checkpoint_us);
            drop(client);
            svc.shutdown();
            let (sp_pmdk, sp_ede) = replay_speedups(spec, &mut res);
            let table_bytes = (spec.cfg.capacity_per_shard * SLOT_BYTES * spec.cfg.shards) as u64;
            let payload = shadow.live() * PUT_PAYLOAD;
            let [g50, g99, p50, p99] = ph.windows.latencies_us();
            let m = &mut res.metrics;
            m.put("setup_s", setup_s, "s");
            m.put("ops_per_s", ph.windows.ops_per_s(), "1/s");
            m.put("get_p50_us", g50, "us");
            m.put("get_p99_us", g99, "us");
            m.put("put_p50_us", p50, "us");
            m.put("put_p99_us", p99, "us");
            m.put("cpu_us_per_op", ratio(ph.cpu_ns as f64 / 1e3, ph.windows.ops as f64), "us");
            m.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
            m.put("sim_ns_per_op", ratio(ph.sim_ns as f64, ph.sim_ops as f64), "ns");
            m.put(
                "recovery_sim_us",
                rec.reports.iter().map(|r| r.sim_ns()).sum::<u64>() as f64 / 1e3,
                "us",
            );
            m.put(
                "write_amp",
                ratio(ph.pmem.pm_write_bytes() as f64, shadow.acked_payload as f64),
                "ratio",
            );
            m.put(
                "space_amp",
                ratio((table_bytes + rec.log_live_bytes) as f64, payload as f64),
                "ratio",
            );
            m.put("speedup_vs_pmdk", sp_pmdk, "x");
            m.put("hw_speedup_vs_ede", sp_ede, "x");
            res.notes.push(format!(
                "samples: windows={} ops={} get={} put={} measured_s={:.3} checkpoints={} checkpoint_us_median={:.1} failed={} table_full={} window_rates={:?}",
                ph.windows.count(),
                ph.windows.ops,
                ph.windows.get_samples,
                ph.windows.put_samples,
                ph.windows.measured_ns as f64 / 1e9,
                checkpoints.len(),
                median(&checkpoints),
                shadow.failed,
                shadow.table_full,
                ph.windows.rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
            ));
            res.attempted = ph.attempted;
            res.failed = shadow.failed;
        }
        Mode::Traced => {
            // Untraced reference first, then a fresh instance replaying
            // the same stream with spans on.
            let untraced_ops_per_s = {
                let (svc, _, _) = match setup(spec, &preload) {
                    Ok(s) => s,
                    Err(e) => {
                        res.fail(e);
                        return res;
                    }
                };
                res.notes.push(procfs::pin_client_and_daemons());
                let mut worker = Some(svc.worker(0));
                let mut client = Client::new(spec, &svc, initial_shadow(), false);
                let ph = measure(&mut client, &mut worker, seconds / 2.0);
                drop(worker);
                res.check(client.shadow.mismatches.is_empty(), || {
                    format!(
                        "untraced results disagree with the shadow: {:?}",
                        client.shadow.mismatches
                    )
                });
                drop(client);
                svc.shutdown();
                ph.windows.ops_per_s()
            };
            let (svc, format_s, preload_s) = match setup(spec, &preload) {
                Ok(s) => s,
                Err(e) => {
                    res.fail(e);
                    return res;
                }
            };
            res.notes.push(procfs::pin_client_and_daemons());
            let mut client = Client::new(spec, &svc, initial_shadow(), true);
            let ph = measure(&mut client, &mut None, seconds / 2.0);
            let threads = procfs::threads();
            let shadow = std::mem::take(&mut client.shadow);
            res.check(shadow.mismatches.is_empty(), || {
                format!("traced results disagree with the shadow: {:?}", shadow.mismatches)
            });
            let (handles, tr, per_shard) = client.traced.take().expect("traced client");
            drop(handles);
            let rec = recover_and_check(spec, &svc, &shadow, &mut res);
            res.check(tr.ledger_mismatches == 0, || {
                format!(
                    "{} of {} traced ops did not reconcile with their spans",
                    tr.ledger_mismatches, tr.ops
                )
            });
            let traced_ops_per_s = ph.windows.ops_per_s();
            let ops = ph.windows.ops as f64;
            let adm = svc.admission_stats();
            let admitted_share = ratio(
                tr.calls[Layer::Router as usize] as f64,
                tr.calls[Layer::Admission as usize] as f64,
            );
            let mean_shard = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
            let max_shard = per_shard.iter().copied().max().unwrap_or(0) as f64;
            let commits: u64 = ph.shared.iter().map(|s| s.commits).sum();
            let aborts: u64 = ph.shared.iter().map(|s| s.aborts).sum();
            let rc = ph.reclaim.iter().fold(specpmt_core::ReclaimStats::default(), |mut a, r| {
                a.cycles += r.cycles;
                a.noop_cycles += r.noop_cycles;
                a.records_kept += r.records_kept;
                a.records_dropped += r.records_dropped;
                a.bytes_reclaimed += r.bytes_reclaimed;
                a.last_cycle_ns = a.last_cycle_ns.max(r.last_cycle_ns);
                a
            });
            let wait_p99 = (0..spec.cfg.shards)
                .map(|i| svc.shard(i).locks().wait_histogram().quantile(0.99))
                .max()
                .unwrap_or(0);
            let drain_p99 = (0..spec.cfg.shards)
                .map(|i| svc.shard(i).runtime().device().wpq_drain_histogram().quantile(0.99))
                .max()
                .unwrap_or(0);
            let trace_dropped: u64 = (0..spec.cfg.shards)
                .map(|i| svc.shard(i).runtime().telemetry().tracer.snapshot().dropped)
                .sum();
            let checkpoints: u64 =
                (0..spec.cfg.shards).map(|i| svc.shard(i).runtime().checkpoints()).sum();
            let parsed: usize = rec.reports.iter().map(|r| r.records_parsed).sum();
            let replayed: usize = rec.reports.iter().map(|r| r.records_replayed).sum();
            let parse_sim: u64 = rec.reports.iter().map(|r| r.sim_ns() - r.replay_sim_ns()).sum();
            let replay_sim: u64 = rec.reports.iter().map(|r| r.replay_sim_ns()).sum();
            let log_bytes = client.log_bytes;
            let checkpoint_us = std::mem::take(&mut client.checkpoint_us);
            drop(client);
            svc.shutdown();
            let recovery_ms = time_recoveries(&rec, RECOVERY_REPEATS, &mut res);
            let m = &mut res.metrics;
            layer_defaults(m);
            set(m, "kv.service.self_us", ratio(tr.unattributed_ns as f64 / 1e3, tr.ops as f64));
            set(m, "kv.admission.us_per_call", tr.self_us(Layer::Admission));
            set(m, "kv.admission.accept_share", admitted_share);
            set(m, "kv.admission.shed_permille", f64::from(adm.shed_permille));
            set(m, "kv.router.us_per_call", tr.self_us(Layer::Router));
            set(m, "kv.router.shard_skew", ratio(max_shard, mean_shard));
            set(m, "kv.table.get_self_us", tr.self_us(Layer::TableGet));
            set(m, "kv.table.put_self_us", tr.self_us(Layer::TablePut));
            set(m, "kv.table.scan_self_us", tr.self_us(Layer::TableScan));
            set(m, "kv.table.full", shadow.table_full as f64);
            set(m, "txn.lock.acquires_per_op", ratio(ph.lock.acquires as f64, ops));
            set(m, "txn.lock.conflict_share", ph.lock.conflict_rate());
            set(m, "txn.lock.wait_p99_us", wait_p99 as f64 / 1e3);
            set(m, "txn.lock.aborts", aborts as f64);
            set(
                m,
                "txn.group.commits_per_batch",
                if spec.cfg.group_commit {
                    ratio(ph.group.0 as f64, ph.group.1 as f64)
                } else {
                    1.0
                },
            );
            set(
                m,
                "txn.group.fences_per_commit",
                ratio(ph.pmem.sfence_count as f64, commits as f64),
            );
            set(
                m,
                "txn.group.commit_wait_us",
                ratio(ph.batch_wait.1 as f64 / 1e3, ph.batch_wait.0 as f64),
            );
            set(m, "core.tx.begin_us", tr.self_us(Layer::TxBegin));
            set(m, "core.tx.read_us", tr.self_us(Layer::TxRead));
            set(m, "core.tx.write_us", tr.self_us(Layer::TxWrite));
            set(m, "core.tx.commit_us", tr.self_us(Layer::TxCommit));
            set(
                m,
                "core.tx.commit_sim_ns",
                ratio(tr.tx.commit_sim_ns as f64, tr.tx.commits as f64),
            );
            set(m, "core.tx.writes_per_commit", ratio(tr.tx.writes as f64, tr.tx.commits as f64));
            set(m, "core.tx.log_bytes_per_commit", ratio(log_bytes as f64, tr.tx.commits as f64));
            set(m, "core.reclaim.cycles", rc.cycles as f64);
            set(m, "core.reclaim.noop_share", ratio(rc.noop_cycles as f64, rc.cycles as f64));
            set(
                m,
                "core.reclaim.yield",
                ratio(rc.records_dropped as f64, (rc.records_dropped + rc.records_kept) as f64),
            );
            set(m, "core.reclaim.bytes_per_op", ratio(rc.bytes_reclaimed as f64, ops));
            set(m, "core.reclaim.cycle_sim_us", rc.last_cycle_ns as f64 / 1e3);
            set(m, "core.checkpoint.count", checkpoints as f64);
            set(m, "core.checkpoint.us_per_call", median(&checkpoint_us));
            set(
                m,
                "core.checkpoint.records_skipped",
                rec.reports.iter().map(|r| r.records_skipped_checkpoint).sum::<usize>() as f64,
            );
            set(m, "core.recovery.records_parsed", parsed as f64);
            set(m, "core.recovery.replay_share", ratio(replayed as f64, parsed as f64));
            set(
                m,
                "core.recovery.bytes_parsed",
                rec.reports.iter().map(|r| r.bytes_parsed).sum::<u64>() as f64,
            );
            set(m, "core.recovery.parse_sim_us", parse_sim as f64 / 1e3);
            set(m, "core.recovery.replay_sim_us", replay_sim as f64 / 1e3);
            set(m, "core.recovery.host_ms", recovery_ms);
            device_layer(m, &ph.pmem, ops);
            set(m, "pmem.device.wpq_drain_p99_ns", drain_p99 as f64);
            set(m, "telemetry.spans_per_op", ratio(ph.registry_spans as f64, ops));
            set(m, "telemetry.trace_dropped", trace_dropped as f64);
            set(m, "proc.setup.format_s", format_s);
            set(m, "proc.setup.preload_s", preload_s);
            set(m, "proc.threads", threads as f64);
            set(m, "trace.ops_per_s", traced_ops_per_s);
            set(m, "trace.overhead_share", 1.0 - ratio(traced_ops_per_s, untraced_ops_per_s));
            set(m, "trace.ledger_mismatches", tr.ledger_mismatches as f64);
            res.notes.push(format!(
                "tracing overhead: untraced ops_per_s={untraced_ops_per_s:.1} traced ops_per_s={traced_ops_per_s:.1}"
            ));
            res.notes.push(format!(
                "ledger: ops={} root_ns={} attributed_ns={} unattributed_ns={} mismatches={}",
                tr.ops,
                tr.root_ns,
                tr.root_ns - tr.unattributed_ns,
                tr.unattributed_ns,
                tr.ledger_mismatches
            ));
            res.attempted = ph.attempted;
            res.failed = shadow.failed;
        }
    }
    res
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("kv.service.self_us", "us"),
    ("kv.admission.us_per_call", "us"),
    ("kv.admission.accept_share", "ratio"),
    ("kv.admission.shed_permille", "permille"),
    ("kv.router.us_per_call", "us"),
    ("kv.router.shard_skew", "ratio"),
    ("kv.table.get_self_us", "us"),
    ("kv.table.put_self_us", "us"),
    ("kv.table.scan_self_us", "us"),
    ("kv.table.full", "count"),
    ("txn.lock.acquires_per_op", "count"),
    ("txn.lock.conflict_share", "ratio"),
    ("txn.lock.wait_p99_us", "us"),
    ("txn.lock.aborts", "count"),
    ("txn.group.commits_per_batch", "count"),
    ("txn.group.fences_per_commit", "count"),
    ("txn.group.commit_wait_us", "us"),
    ("core.tx.begin_us", "us"),
    ("core.tx.read_us", "us"),
    ("core.tx.write_us", "us"),
    ("core.tx.commit_us", "us"),
    ("core.tx.commit_sim_ns", "ns"),
    ("core.tx.writes_per_commit", "count"),
    ("core.tx.log_bytes_per_commit", "bytes"),
    ("core.reclaim.cycles", "count"),
    ("core.reclaim.noop_share", "ratio"),
    ("core.reclaim.yield", "ratio"),
    ("core.reclaim.bytes_per_op", "bytes"),
    ("core.reclaim.cycle_sim_us", "us"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.us_per_call", "us"),
    ("core.checkpoint.records_skipped", "count"),
    ("core.recovery.records_parsed", "count"),
    ("core.recovery.replay_share", "ratio"),
    ("core.recovery.bytes_parsed", "bytes"),
    ("core.recovery.parse_sim_us", "us"),
    ("core.recovery.replay_sim_us", "us"),
    ("core.recovery.host_ms", "ms"),
    ("core.runtime.begin_us", "us"),
    ("core.runtime.write_us", "us"),
    ("core.runtime.commit_us", "us"),
    ("core.runtime.sim_ns_per_tx", "ns"),
    ("core.runtime.log_bytes_per_tx", "bytes"),
    ("core.runtime.records_reclaimed", "count"),
    ("pmem.device.clwb_per_op", "count"),
    ("pmem.device.fences_per_op", "count"),
    ("pmem.device.fence_stall_sim_ns_per_op", "ns"),
    ("pmem.device.media_bytes_per_op", "bytes"),
    ("pmem.device.seq_line_share", "ratio"),
    ("pmem.device.wpq_drain_p99_ns", "ns"),
    ("telemetry.spans_per_op", "count"),
    ("telemetry.trace_dropped", "count"),
    ("baselines.pmdk.sim_ns_per_tx", "ns"),
    ("baselines.pmdk.host_us_per_tx", "us"),
    ("hwtx.spec.sim_ns_per_tx", "ns"),
    ("hwtx.ede.sim_ns_per_tx", "ns"),
    ("hwtx.host_us_per_tx", "us"),
    ("hwsim.l1_hit_share", "ratio"),
    ("hwsim.tlb_miss_share", "ratio"),
    ("hwsim.pages_made_hot", "count"),
    ("proc.setup.format_s", "s"),
    ("proc.setup.preload_s", "s"),
    ("proc.threads", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.ledger_mismatches", "count"),
];

/// Fills every per-layer metric with 0: a layer the workload does not
/// exercise did no work.
pub fn layer_defaults(m: &mut Metrics) {
    for &(name, unit) in LAYER_METRICS {
        m.put(name, 0.0, unit);
    }
}

/// Overwrites the value of a per-layer metric.
///
/// # Panics
///
/// Panics if `name` is not in [`LAYER_METRICS`].
pub fn set(m: &mut Metrics, name: &str, value: f64) {
    let slot =
        m.0.iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
    slot.1 = value;
}

/// The `pmem.device.*` per-op metrics from a device-counter delta.
pub fn device_layer(m: &mut Metrics, d: &PmemStats, ops: f64) {
    set(m, "pmem.device.clwb_per_op", ratio(d.clwb_count as f64, ops));
    set(m, "pmem.device.fences_per_op", ratio(d.sfence_count as f64, ops));
    set(m, "pmem.device.fence_stall_sim_ns_per_op", ratio(d.fence_stall_ns as f64, ops));
    set(m, "pmem.device.media_bytes_per_op", ratio(d.pm_write_bytes() as f64, ops));
    set(m, "pmem.device.seq_line_share", ratio(d.seq_line_hits as f64, d.lines_persisted as f64));
}
