//! Self-tests of the benchmark's noise fixes, gates and determinism.

use specbench::kv::{self, Shadow};
use specbench::{stamp, Mode, RunResult};
use specpmt_kv::{KvError, KvOp, LoadGen, OpClass, OpResult};
use specpmt_telemetry::Metric;

/// `kv-read` shrunk to test size: same configuration, short windows.
fn small_read(seed: u64) -> kv::KvSpec {
    let mut spec = kv::kv_read(seed);
    spec.window_ops = 2000;
    spec.warmup_ops = 1000;
    spec
}

#[test]
fn warm_up_ops_are_not_measured() {
    // One window is pre-generated and timed; the warm-up ops before it
    // run through the same path but count nowhere.
    let res = kv::run(&small_read(3), 1e-6, Mode::EndToEnd);
    assert!(res.errors.is_empty(), "{:?}", res.errors);
    assert_eq!(res.attempted, 2000);
    assert_eq!(res.failed, 0);
}

#[test]
fn op_streams_and_shadow_live_outside_the_timed_windows() {
    // The timed loop only compares nothing and stores results; the shadow
    // judges them afterwards and must catch a wrong answer.
    let mut shadow = Shadow::default();
    let put = KvOp { tenant: 0, class: OpClass::Put, key: 1, value: 5 };
    shadow.apply(&put, &Ok(OpResult::Stored));
    let get = KvOp { tenant: 0, class: OpClass::Get, key: 1, value: 0 };
    shadow.apply(&get, &Ok(OpResult::Value(Some(5))));
    assert!(shadow.mismatches.is_empty());
    shadow.apply(&get, &Ok(OpResult::Value(Some(6))));
    assert_eq!(shadow.mismatches.len(), 1, "a stale read is flagged");
    shadow.apply(&put, &Err(KvError::Overloaded));
    assert_eq!(shadow.failed, 1);
    assert_eq!(shadow.acked_payload, 16);
}

#[test]
fn recovery_is_the_median_of_identical_recoveries_of_clones() {
    let spec = small_read(5);
    let (svc, _, _) = kv::setup(&spec, &kv::preload_ops(&spec)).expect("setup");
    let mut shadow = Shadow::default();
    for op in kv::preload_ops(&spec) {
        shadow.map.insert((op.tenant, op.key), Some(op.value));
    }
    let mut res = RunResult::default();
    let rec = kv::recover_and_check(&spec, &svc, &shadow, &mut res);
    svc.shutdown();
    let ms = kv::time_recoveries(&rec, 5, &mut res);
    assert!(res.errors.is_empty(), "{:?}", res.errors);
    assert!(ms > 0.0);
    assert_eq!(rec.reports.len(), spec.cfg.shards);
}

#[test]
fn kv_write_setup_commits_nothing() {
    // No preload: set-up never hands a commit to the combiner daemon.
    let spec = kv::kv_write(1);
    let (svc, _, preload_s) = kv::setup(&spec, &kv::preload_ops(&spec)).expect("setup");
    let rt = svc.shard(0).runtime();
    assert_eq!(rt.stats().commits, 0);
    assert_eq!(rt.telemetry().registry.counter(Metric::GroupCommits), 0);
    assert!(preload_s < 0.01, "nothing to preload: {preload_s}");
    svc.shutdown();
}

#[test]
fn one_seed_gives_identical_streams_and_simulated_metrics() {
    for spec in [kv::kv_read(7), kv::kv_write(7)] {
        assert_eq!(LoadGen::new(spec.load).take(10_000), LoadGen::new(spec.load).take(10_000));
        assert_eq!(kv::preload_ops(&spec), kv::preload_ops(&spec));
    }
    let spec = kv::kv_read(7);
    let mut res = RunResult::default();
    let a = kv::replay_speedups(&spec, &mut res);
    let b = kv::replay_speedups(&spec, &mut res);
    assert!(res.errors.is_empty(), "{:?}", res.errors);
    assert_eq!(a.0.to_bits(), b.0.to_bits());
    assert_eq!(a.1.to_bits(), b.1.to_bits());
    let (p, q) = (stamp::pass(7, false), stamp::pass(7, false));
    assert!(p.errors.is_empty(), "{:?}", p.errors);
    assert_eq!(p.sim_fingerprint(), q.sim_fingerprint());
    assert_eq!(p.speedups().0.to_bits(), q.speedups().0.to_bits());
}

#[test]
fn seed_zero_reproduces_the_checked_in_figure_geomeans() {
    let (fig12, fig13) = stamp::checked_in_geomeans().expect("results/ files");
    let (sw, hw) = stamp::pass(0, false).speedups();
    assert_eq!(format!("{sw:.2}"), fig12);
    assert_eq!(format!("{hw:.2}"), fig13);
}

#[test]
fn traced_run_reconciles_every_op() {
    let res = kv::run(&small_read(9), 1e-6, Mode::Traced);
    assert!(res.errors.is_empty(), "{:?}", res.errors);
    assert_eq!(res.metrics.get("trace.ledger_mismatches"), Some(0.0));
    assert!(res.metrics.get("kv.table.get_self_us").unwrap() > 0.0);
    assert!(res.metrics.get("core.tx.commit_us").unwrap() > 0.0);
}
