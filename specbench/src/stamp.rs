//! The `stamp` workload: the paper's fig12/fig13 pipeline.
//!
//! One pass runs the nine STAMP applications at `Scale::Small` on four
//! runtimes: SpecSPMT and PMDK on the sequential `PmemDevice`, SpecHPMT
//! and EDE on the hardware model, each on a fresh pool exactly as the
//! figure binaries build them. Passes repeat for the measured time. The
//! workload seed is folded into every application's input seed (seed 0
//! leaves them as shipped, so the figure geomeans are reproduced there).

use std::time::Instant;

use specpmt_baselines::{PmdkConfig, PmdkUndo};
use specpmt_core::{
    recover_image_opts, ReclaimMode, ReclaimStats, RecoveryOptions, RecoveryReport, SpecConfig,
    SpecSpmt,
};
use specpmt_hwsim::HwStats;
use specpmt_hwtx::{hw_pool, Ede, EdeConfig, HwSpecConfig, HwSpecPmt};
use specpmt_pmem::{CrashControl, CrashPolicy, PmemConfig, PmemDevice, PmemPool, PmemStats};
use specpmt_stamp::{
    genome, intruder, kmeans, labyrinth, ssca2, vacation, yada, AppRun, Scale, StampApp,
};
use specpmt_txn::{geomean, RunReport, TxAccess, TxRuntime};

use crate::kv::{device_layer, layer_defaults, set};
use crate::stats::{median, ratio, Windows};
use crate::trace::{Layer, Timed, Tracer};
use crate::{procfs, Mode, RunResult};

/// Pool size of every runtime: the figure binaries' `POOL_BYTES`.
pub const POOL_BYTES: usize = 64 << 20;
/// Setups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Recoveries of clones of each captured image; the median counts.
const RECOVERY_REPEATS: usize = 5;
/// The four runtimes of a pass, in report order.
pub const RUNTIMES: [&str; 4] = ["SpecSPMT", "PMDK", "SpecHPMT", "EDE"];

const SPEC: usize = 0;
const PMDK: usize = 1;
const HWSPEC: usize = 2;
const EDE: usize = 3;

/// The SpecSPMT configuration, every field explicit (the shipped
/// default).
pub fn spec_config() -> SpecConfig {
    SpecConfig {
        block_bytes: 4096,
        data_persistence: false,
        reclaim_mode: ReclaimMode::Background,
        reclaim_threshold_bytes: 1 << 20,
        threads: 1,
    }
}

fn fresh_pool() -> PmemPool {
    PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)))
}

/// Runs `app`'s transactional phase on `rt` with `seed` folded into its
/// input seed (seed 0: the shipped `Scale::Small` configuration).
///
/// # Errors
///
/// The application's own verification failure.
pub fn run_seeded<A: TxAccess>(app: StampApp, rt: &mut A, seed: u64) -> Result<(), String> {
    let s = Scale::Small;
    match app {
        StampApp::Genome => {
            let mut c = genome::GenomeCfg::scaled(s);
            c.seed ^= seed;
            genome::run(rt, &c)
        }
        StampApp::Intruder => {
            let mut c = intruder::IntruderCfg::scaled(s);
            c.seed ^= seed;
            intruder::run(rt, &c)
        }
        StampApp::KmeansLow => {
            let mut c = kmeans::KmeansCfg::low(s);
            c.seed ^= seed;
            kmeans::run(rt, &c)
        }
        StampApp::KmeansHigh => {
            let mut c = kmeans::KmeansCfg::high(s);
            c.seed ^= seed;
            kmeans::run(rt, &c)
        }
        StampApp::Labyrinth => {
            let mut c = labyrinth::LabyrinthCfg::scaled(s);
            c.seed ^= seed;
            labyrinth::run(rt, &c)
        }
        StampApp::Ssca2 => {
            let mut c = ssca2::Ssca2Cfg::scaled(s);
            c.seed ^= seed;
            ssca2::run(rt, &c)
        }
        StampApp::VacationLow => {
            let mut c = vacation::VacationCfg::low(s);
            c.seed ^= seed;
            vacation::run(rt, &c)
        }
        StampApp::VacationHigh => {
            let mut c = vacation::VacationCfg::high(s);
            c.seed ^= seed;
            vacation::run(rt, &c)
        }
        StampApp::Yada => {
            let mut c = yada::YadaCfg::scaled(s);
            c.seed ^= seed;
            yada::run(rt, &c)
        }
    }
}

/// Measures `body` on `rt` the way `specpmt_stamp::run_app` measures an
/// application: simulated time of the transactional phase minus
/// background maintenance, with device and runtime counter deltas.
pub fn measure_app<R: TxRuntime>(
    app: StampApp,
    rt: &mut R,
    body: impl FnOnce(&mut R) -> Result<(), String>,
) -> AppRun {
    let clock0 = rt.pool().device().now_ns();
    let pmem0 = rt.pool().device().stats().clone();
    let tx0 = rt.tx_stats();
    let verified = body(rt);
    let tx1 = rt.tx_stats();
    let clock1 = rt.pool().device().now_ns();
    let background = tx1.background_ns - tx0.background_ns;
    let mut tx = tx1.clone();
    tx.tx_begun -= tx0.tx_begun;
    tx.tx_committed -= tx0.tx_committed;
    tx.updates -= tx0.updates;
    tx.data_bytes -= tx0.data_bytes;
    tx.log_bytes -= tx0.log_bytes;
    tx.records_reclaimed -= tx0.records_reclaimed;
    tx.background_ns = background;
    AppRun {
        report: RunReport {
            runtime: rt.name().to_string(),
            workload: app.name().to_string(),
            sim_ns: (clock1 - clock0).saturating_sub(background),
            tx,
            pmem: rt.pool().device().stats().delta_since(&pmem0),
            heap_peak_bytes: rt.pool().heap_peak() as u64,
        },
        verified,
    }
}

/// [`measure_app`] of the seeded application on `rt`, under the timing
/// wrapper when a tracer is given.
fn run_on<R: TxRuntime>(app: StampApp, rt: &mut R, seed: u64, tr: Option<&mut Tracer>) -> AppRun {
    match tr {
        Some(tr) => measure_app(app, rt, |rt| run_seeded(app, &mut Timed { inner: rt, tr }, seed)),
        None => measure_app(app, rt, |rt| run_seeded(app, rt, seed)),
    }
}

/// Formats the four runtimes one application run needs (what a pass
/// builds per application; `setup_s` times it).
pub fn build_runtimes() -> (SpecSpmt, PmdkUndo, HwSpecPmt, Ede) {
    (
        SpecSpmt::new(fresh_pool(), spec_config()),
        PmdkUndo::new(fresh_pool(), PmdkConfig::default()),
        HwSpecPmt::new(hw_pool(POOL_BYTES), HwSpecConfig::default()),
        Ede::new(hw_pool(POOL_BYTES), EdeConfig::default()),
    )
}

/// Output of one pass over the nine applications.
pub struct Pass {
    /// Per application, the four runtimes' reports in [`RUNTIMES`] order.
    pub reports: Vec<[RunReport; 4]>,
    /// Host ns spent per runtime (construction + run).
    pub host_ns: [u64; 4],
    /// SpecSPMT per-transaction host latencies (ns) of the read-dominant
    /// and the write-intensive applications (paper §7.2).
    pub lat: [Vec<u64>; 2],
    /// Per runtime, its tracer (spans only in traced passes).
    pub tracers: [Tracer; 4],
    /// Hardware-model counters of the SpecHPMT and EDE runs.
    pub hw: HwStats,
    /// SpecSPMT reclamation counters, summed over applications.
    pub reclaim: ReclaimStats,
    /// Verification failures.
    pub errors: Vec<String>,
}

impl Pass {
    /// Transactions committed across the four runtimes.
    pub fn txs(&self) -> u64 {
        self.reports.iter().flatten().map(|r| r.tx.tx_committed).sum()
    }

    /// Geomean over applications of PMDK ÷ SpecSPMT simulated time
    /// (fig12), and of EDE ÷ SpecHPMT (fig13).
    pub fn speedups(&self) -> (f64, f64) {
        (
            geomean(self.reports.iter().map(|r| r[SPEC].speedup_over(&r[PMDK]))),
            geomean(self.reports.iter().map(|r| r[HWSPEC].speedup_over(&r[EDE]))),
        )
    }

    /// Every simulated-clock figure of the pass, for bit-identity checks.
    pub fn sim_fingerprint(&self) -> Vec<(u64, u64, PmemStats)> {
        self.reports
            .iter()
            .flatten()
            .map(|r| (r.sim_ns, r.tx.tx_committed, r.pmem.clone()))
            .collect()
    }
}

fn add_hw(a: &mut HwStats, b: &HwStats) {
    a.l1_hits += b.l1_hits;
    a.l2_hits += b.l2_hits;
    a.mem_accesses += b.mem_accesses;
    a.tlb_l1_hits += b.tlb_l1_hits;
    a.tlb_l2_hits += b.tlb_l2_hits;
    a.tlb_misses += b.tlb_misses;
    a.pages_made_hot += b.pages_made_hot;
}

/// One pass. With `traced` every runtime runs under a span-recording
/// [`Timed`] wrapper; otherwise only SpecSPMT is wrapped, to sample its
/// per-transaction latency.
pub fn pass(seed: u64, traced: bool) -> Pass {
    let mut tracers: [Tracer; 4] = std::array::from_fn(|_| {
        let mut t = Tracer::new(true);
        t.span_calls = traced;
        t
    });
    tracers[SPEC].latencies = Some(Vec::new());
    let mut out = Pass {
        reports: Vec::new(),
        host_ns: [0; 4],
        lat: [Vec::new(), Vec::new()],
        tracers: std::array::from_fn(|_| Tracer::new(true)),
        hw: HwStats::default(),
        reclaim: ReclaimStats::default(),
        errors: Vec::new(),
    };
    for app in StampApp::all() {
        let class = usize::from(app.write_intensive());
        let mut runs: Vec<RunReport> = Vec::with_capacity(4);
        let mut record = |i: usize, run: AppRun, t0: Instant, out: &mut Pass| {
            out.host_ns[i] += t0.elapsed().as_nanos() as u64;
            if let Err(e) = &run.verified {
                out.errors.push(format!("{} on {}: {e}", app.name(), RUNTIMES[i]));
            }
            runs.push(run.report);
        };
        let t0 = Instant::now();
        let mut rt = SpecSpmt::new(fresh_pool(), spec_config());
        let run = run_on(app, &mut rt, seed, Some(&mut tracers[SPEC]));
        let r = rt.reclaim_stats();
        out.reclaim.cycles += r.cycles;
        out.reclaim.noop_cycles += r.noop_cycles;
        out.reclaim.records_kept += r.records_kept;
        out.reclaim.records_dropped += r.records_dropped;
        out.reclaim.bytes_reclaimed += r.bytes_reclaimed;
        out.reclaim.last_cycle_ns = out.reclaim.last_cycle_ns.max(r.last_cycle_ns);
        out.lat[class].append(tracers[SPEC].latencies.as_mut().expect("latency sampling on"));
        record(SPEC, run, t0, &mut out);

        let t0 = Instant::now();
        let mut rt = PmdkUndo::new(fresh_pool(), PmdkConfig::default());
        let run = run_on(app, &mut rt, seed, traced.then_some(&mut tracers[PMDK]));
        record(PMDK, run, t0, &mut out);

        let t0 = Instant::now();
        let mut rt = HwSpecPmt::new(hw_pool(POOL_BYTES), HwSpecConfig::default());
        let run = run_on(app, &mut rt, seed, traced.then_some(&mut tracers[HWSPEC]));
        add_hw(&mut out.hw, rt.hw_stats());
        record(HWSPEC, run, t0, &mut out);

        let t0 = Instant::now();
        let mut rt = Ede::new(hw_pool(POOL_BYTES), EdeConfig::default());
        let run = run_on(app, &mut rt, seed, traced.then_some(&mut tracers[EDE]));
        add_hw(&mut out.hw, rt.hw_stats());
        record(EDE, run, t0, &mut out);

        out.reports.push(runs.try_into().expect("four runtimes"));
    }
    out.tracers = tracers;
    out
}

/// Crash-recovery gate and timing over every application's SpecSPMT run.
pub struct Recovered {
    /// One report per application.
    pub reports: Vec<RecoveryReport>,
    /// Sum over applications of the median recovery time of clones, ms.
    pub recovery_ms: f64,
    /// SpecSPMT live log bytes at the capture, summed over applications.
    pub log_live_bytes: u64,
    /// Bytes the applications allocated and still hold.
    pub payload_bytes: u64,
}

/// Runs each application once more on SpecSPMT, recording every range
/// written; captures the pool with every unflushed line lost, recovers it,
/// and requires the recovered bytes to equal the live bytes over every
/// recorded range. Then times `repeats` recoveries of clones.
pub fn recover_and_check(seed: u64, repeats: usize, res: &mut RunResult) -> Recovered {
    let mut out =
        Recovered { reports: Vec::new(), recovery_ms: 0.0, log_live_bytes: 0, payload_bytes: 0 };
    for app in StampApp::all() {
        let mut rt = SpecSpmt::new(fresh_pool(), spec_config());
        let mut tr = Tracer::new(true);
        tr.span_calls = false;
        tr.ranges = Some(Vec::new());
        let run = run_on(app, &mut rt, seed, Some(&mut tr));
        res.check(run.verified.is_ok(), || {
            format!("{} on SpecSPMT: {:?}", app.name(), run.verified)
        });
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        let mut rec = img.clone();
        let report = recover_image_opts(&mut rec, &RecoveryOptions::default());
        let live = rt.pool().device();
        let ranges = tr.ranges.take().unwrap_or_default();
        let bad = ranges.iter().filter(|&&(a, n)| rec.read_bytes(a, n) != live.peek(a, n)).count();
        res.check(bad == 0, || {
            format!(
                "{}: {bad} of {} written ranges differ after recovery",
                app.name(),
                ranges.len()
            )
        });
        let mut times = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let mut clone = img.clone();
            let t0 = Instant::now();
            let again = recover_image_opts(&mut clone, &RecoveryOptions::default());
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            res.check(again == report, || format!("{}: recovering a clone differed", app.name()));
        }
        out.recovery_ms += median(&times);
        out.log_live_bytes += rt.tx_stats().log_live_bytes;
        out.payload_bytes += tr.tx.alloc_bytes.max(0) as u64;
        out.reports.push(report);
    }
    out
}

/// The SpecSPMT and SpecHPMT geomeans checked in under `results/`, as
/// printed there (two decimals).
pub fn checked_in_geomeans() -> Result<(String, String), String> {
    let read = |file: &str, column: &str| -> Result<String, String> {
        let path = format!("{}/../results/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let header = text.lines().find(|l| l.starts_with("app")).ok_or("no header row")?;
        let col = header
            .split_whitespace()
            .skip(1)
            .position(|h| h == column)
            .ok_or_else(|| format!("{path}: no {column} column"))?;
        let row = text.lines().find(|l| l.starts_with("geomean")).ok_or("no geomean row")?;
        let cell = row.split_whitespace().nth(1 + col).ok_or("short geomean row")?;
        Ok(cell.trim_end_matches('x').to_string())
    };
    Ok((
        read("fig12_software_speedup.txt", "SpecSPMT")?,
        read("fig13_hardware_speedup.txt", "SpecHPMT")?,
    ))
}

/// Runs the workload for `seconds` of measured time.
pub fn run(seed: u64, seconds: f64, mode: Mode) -> RunResult {
    let mut res = RunResult::default();
    res.notes.push(format!(
        "config stamp: apps={:?} scale=Small runtimes={RUNTIMES:?} pool_bytes={POOL_BYTES} spec={:?} pmdk={:?} hwspec={:?} ede={:?}",
        StampApp::all().map(|a| a.name()),
        spec_config(),
        PmdkConfig::default(),
        HwSpecConfig::default(),
        EdeConfig::default(),
    ));
    let (setup_s, _) =
        crate::median_setup(SETUP_REPEATS, || StampApp::all().map(|_| build_runtimes()));
    // Warm-up pass: fills caches and the allocator, and fixes the
    // simulated-clock fingerprint every later pass must reproduce.
    let first = pass(seed, false);
    res.errors.extend(first.errors.iter().cloned());
    let fingerprint = first.sim_fingerprint();
    match mode {
        Mode::EndToEnd => {
            let (windows, cpu_ns, _) = timed_passes(seed, seconds, false, &fingerprint, &mut res);
            let rec = recover_and_check(seed, 0, &mut res);
            let spec = first.reports.iter().map(|r| &r[SPEC]);
            let sim_ns: u64 = spec.clone().map(|r| r.sim_ns).sum();
            let commits: u64 = spec.clone().map(|r| r.tx.tx_committed).sum();
            let media: u64 = spec.clone().map(|r| r.pmem.pm_write_bytes()).sum();
            let data: u64 = spec.map(|r| r.tx.data_bytes).sum();
            let (sp_pmdk, sp_ede) = first.speedups();
            if seed == 0 {
                match checked_in_geomeans() {
                    Ok((fig12, fig13)) => {
                        let (a, b) = (format!("{sp_pmdk:.2}"), format!("{sp_ede:.2}"));
                        res.check(a == fig12, || {
                            format!("speedup_vs_pmdk {a} != checked-in fig12 geomean {fig12}")
                        });
                        res.check(b == fig13, || {
                            format!("hw_speedup_vs_ede {b} != checked-in fig13 geomean {fig13}")
                        });
                    }
                    Err(e) => res.fail(format!("cannot read the checked-in figure geomeans: {e}")),
                }
            }
            let [g50, g99, p50, p99] = windows.latencies_us();
            let m = &mut res.metrics;
            m.put("setup_s", setup_s, "s");
            m.put("ops_per_s", windows.ops_per_s(), "1/s");
            m.put("get_p50_us", g50, "us");
            m.put("get_p99_us", g99, "us");
            m.put("put_p50_us", p50, "us");
            m.put("put_p99_us", p99, "us");
            m.put("cpu_us_per_op", ratio(cpu_ns as f64 / 1e3, windows.ops as f64), "us");
            m.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
            m.put("sim_ns_per_op", ratio(sim_ns as f64, commits as f64), "ns");
            m.put(
                "recovery_sim_us",
                rec.reports.iter().map(|r| r.sim_ns()).sum::<u64>() as f64 / 1e3,
                "us",
            );
            m.put("write_amp", ratio(media as f64, data as f64), "ratio");
            m.put(
                "space_amp",
                ratio((rec.payload_bytes + rec.log_live_bytes) as f64, rec.payload_bytes as f64),
                "ratio",
            );
            m.put("speedup_vs_pmdk", sp_pmdk, "x");
            m.put("hw_speedup_vs_ede", sp_ede, "x");
            res.notes.push(format!(
                "samples: passes={} txs={} read_tx={} write_tx={} measured_s={:.3}",
                windows.count(),
                windows.ops,
                windows.get_samples,
                windows.put_samples,
                windows.measured_ns as f64 / 1e9
            ));
            res.attempted = windows.ops;
        }
        Mode::Traced => {
            let (untraced, _, _) = timed_passes(seed, seconds / 2.0, false, &fingerprint, &mut res);
            let (traced, _, last) = timed_passes(seed, seconds / 2.0, true, &fingerprint, &mut res);
            let threads = procfs::threads();
            let rec = recover_and_check(seed, RECOVERY_REPEATS, &mut res);
            let p = last.expect("at least one traced pass");
            let sum = |i: usize, f: &dyn Fn(&RunReport) -> u64| {
                p.reports.iter().map(|r| f(&r[i])).sum::<u64>() as f64
            };
            let commits = |i: usize| sum(i, &|r| r.tx.tx_committed);
            let spec_commits = commits(SPEC);
            let mut dev = PmemStats::default();
            for r in p.reports.iter().map(|r| &r[SPEC].pmem) {
                dev.clwb_count += r.clwb_count;
                dev.sfence_count += r.sfence_count;
                dev.fence_stall_ns += r.fence_stall_ns;
                dev.lines_persisted += r.lines_persisted;
                dev.seq_line_hits += r.seq_line_hits;
            }
            let hw = &p.hw;
            let tr = &p.tracers;
            for (i, t) in tr.iter().enumerate() {
                res.check(t.ledger_mismatches == 0, || {
                    format!(
                        "{}: {} of {} traced transactions did not reconcile",
                        RUNTIMES[i], t.ledger_mismatches, t.ops
                    )
                });
            }
            let mismatches: u64 = tr.iter().map(|t| t.ledger_mismatches).sum();
            let parsed: usize = rec.reports.iter().map(|r| r.records_parsed).sum();
            let replayed: usize = rec.reports.iter().map(|r| r.records_replayed).sum();
            let rc = &p.reclaim;
            let m = &mut res.metrics;
            layer_defaults(m);
            set(m, "core.reclaim.cycles", rc.cycles as f64);
            set(m, "core.reclaim.noop_share", ratio(rc.noop_cycles as f64, rc.cycles as f64));
            set(
                m,
                "core.reclaim.yield",
                ratio(rc.records_dropped as f64, (rc.records_dropped + rc.records_kept) as f64),
            );
            set(m, "core.reclaim.bytes_per_op", ratio(rc.bytes_reclaimed as f64, spec_commits));
            set(m, "core.reclaim.cycle_sim_us", rc.last_cycle_ns as f64 / 1e3);
            set(m, "core.recovery.records_parsed", parsed as f64);
            set(m, "core.recovery.replay_share", ratio(replayed as f64, parsed as f64));
            set(
                m,
                "core.recovery.bytes_parsed",
                rec.reports.iter().map(|r| r.bytes_parsed).sum::<u64>() as f64,
            );
            set(
                m,
                "core.recovery.parse_sim_us",
                rec.reports.iter().map(|r| r.sim_ns() - r.replay_sim_ns()).sum::<u64>() as f64
                    / 1e3,
            );
            set(
                m,
                "core.recovery.replay_sim_us",
                rec.reports.iter().map(|r| r.replay_sim_ns()).sum::<u64>() as f64 / 1e3,
            );
            set(m, "core.recovery.host_ms", rec.recovery_ms);
            set(m, "core.runtime.begin_us", tr[SPEC].self_us(Layer::TxBegin));
            set(m, "core.runtime.write_us", tr[SPEC].self_us(Layer::TxWrite));
            set(m, "core.runtime.commit_us", tr[SPEC].self_us(Layer::TxCommit));
            set(m, "core.runtime.sim_ns_per_tx", ratio(sum(SPEC, &|r| r.sim_ns), spec_commits));
            set(
                m,
                "core.runtime.log_bytes_per_tx",
                ratio(sum(SPEC, &|r| r.tx.log_bytes), spec_commits),
            );
            set(m, "core.runtime.records_reclaimed", sum(SPEC, &|r| r.tx.records_reclaimed));
            device_layer(m, &dev, spec_commits);
            set(m, "baselines.pmdk.sim_ns_per_tx", ratio(sum(PMDK, &|r| r.sim_ns), commits(PMDK)));
            set(
                m,
                "baselines.pmdk.host_us_per_tx",
                ratio(p.host_ns[PMDK] as f64 / 1e3, commits(PMDK)),
            );
            set(m, "hwtx.spec.sim_ns_per_tx", ratio(sum(HWSPEC, &|r| r.sim_ns), commits(HWSPEC)));
            set(m, "hwtx.ede.sim_ns_per_tx", ratio(sum(EDE, &|r| r.sim_ns), commits(EDE)));
            set(
                m,
                "hwtx.host_us_per_tx",
                ratio(
                    (p.host_ns[HWSPEC] + p.host_ns[EDE]) as f64 / 1e3,
                    commits(HWSPEC) + commits(EDE),
                ),
            );
            set(
                m,
                "hwsim.l1_hit_share",
                ratio(hw.l1_hits as f64, (hw.l1_hits + hw.l2_hits + hw.mem_accesses) as f64),
            );
            set(
                m,
                "hwsim.tlb_miss_share",
                ratio(
                    hw.tlb_misses as f64,
                    (hw.tlb_l1_hits + hw.tlb_l2_hits + hw.tlb_misses) as f64,
                ),
            );
            set(m, "hwsim.pages_made_hot", hw.pages_made_hot as f64);
            set(m, "proc.setup.format_s", setup_s);
            set(m, "proc.threads", threads as f64);
            set(m, "trace.ops_per_s", traced.ops_per_s());
            set(m, "trace.overhead_share", 1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s()));
            set(m, "trace.ledger_mismatches", mismatches as f64);
            res.notes.push(format!(
                "tracing overhead: untraced ops_per_s={:.1} traced ops_per_s={:.1}",
                untraced.ops_per_s(),
                traced.ops_per_s()
            ));
            for (i, t) in tr.iter().enumerate() {
                res.notes.push(format!(
                    "ledger {}: txs={} root_ns={} attributed_ns={} unattributed_ns={} mismatches={}",
                    RUNTIMES[i],
                    t.ops,
                    t.root_ns,
                    t.root_ns - t.unattributed_ns,
                    t.unattributed_ns,
                    t.ledger_mismatches
                ));
            }
            res.attempted = traced.ops;
        }
    }
    res
}

/// Timed passes until `seconds` of measured time (at least one). Every
/// pass must reproduce the simulated-clock `fingerprint`. Returns the
/// per-pass windows, the CPU ns they took, and the last pass.
fn timed_passes(
    seed: u64,
    seconds: f64,
    traced: bool,
    fingerprint: &[(u64, u64, PmemStats)],
    res: &mut RunResult,
) -> (Windows, u64, Option<Pass>) {
    let mut windows = Windows::default();
    let mut cpu_ns = 0;
    let mut last = None;
    while windows.count() == 0 || (windows.measured_ns as f64) < seconds * 1e9 {
        let c0 = procfs::cpu_ns();
        let t0 = Instant::now();
        let mut p = pass(seed, traced);
        let elapsed = t0.elapsed().as_nanos() as u64;
        cpu_ns += procfs::cpu_ns() - c0;
        res.check(p.errors.is_empty(), || format!("verification failed: {:?}", p.errors));
        res.failed += p.errors.len() as u64;
        res.check(p.sim_fingerprint() == fingerprint, || {
            "a pass's simulated-clock results differ from the first pass".to_string()
        });
        let txs = p.txs();
        let [read, write] = &mut p.lat;
        windows.push(txs, elapsed, read, write);
        last = Some(p);
    }
    (windows, cpu_ns, last)
}
