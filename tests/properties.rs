//! Property-style tests on the core data structures and the crash-recovery
//! invariants, driven by deterministic seeded loops (the workspace is
//! zero-dependency, so there is no `proptest`). Every case derives from a
//! [`SplitMix64`] seed; on failure the assertion message names the seed so
//! the case replays exactly with `SEED=<n>`-style edits.

use specpmt::core::reclaim::FreshnessIndex;
use specpmt::core::record::{encode_record, parse_chain, LogArea, LogEntry, LogRecord, PoolStore};
use specpmt::core::{SpecConfig, SpecSpmt};
use specpmt::pmem::{
    CrashPlan, CrashPolicy, PmemConfig, PmemDevice, PmemPool, SplitMix64, TimingMode,
};
use specpmt::txn::driver::{check_crash_atomicity, StreamSpec};
use specpmt::txn::{Recover, TxAccess, TxRuntime};
use specpmt_pmem::CrashControl;

/// Draws a random log record: 1–5 entries of 1–40 bytes in a 4 KiB window
/// above the root block.
fn random_record(rng: &mut SplitMix64, ts: u64) -> LogRecord {
    let entries = (0..rng.range_usize(1, 5))
        .map(|_| {
            let len = rng.range_usize(1, 40);
            let addr = 4096 + rng.range_usize(0, 4096 - len);
            LogEntry { addr, value: (0..len).map(|_| rng.next_u8()).collect() }
        })
        .collect();
    LogRecord { ts, entries }
}

/// Any sequence of records round-trips through the chained-block log, for
/// any block size, including sizes that force records to straddle many
/// blocks.
#[test]
fn log_chain_roundtrips() {
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed);
        let block_bytes = [64usize, 96, 128, 512, 4096][rng.range_usize(0, 4)];
        let records: Vec<LogRecord> = (0..rng.range_usize(1, 12))
            .map(|i| {
                let ts = 1 + i as u64;
                random_record(&mut rng, ts)
            })
            .collect();

        let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20).untimed()));
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area =
            LogArea::create(&mut PoolStore::new(&mut pool, &mut free), block_bytes, &mut dirty);
        for rec in &records {
            area.append(&mut PoolStore::new(&mut pool, &mut free), &encode_record(rec), &mut dirty);
        }
        area.write_terminator(&mut PoolStore::new(&mut pool, &mut free), &mut dirty);
        let parsed = parse_chain(pool.device(), area.head(), block_bytes);
        assert_eq!(parsed, records, "roundtrip mismatch (seed={seed})");
    }
}

/// Compaction never drops the youngest record covering a byte: for any
/// record set, replaying the *compacted* set in timestamp order gives the
/// same final bytes as replaying the original set.
#[test]
fn compaction_preserves_replay_semantics() {
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        let records: Vec<LogRecord> =
            (0..rng.range_usize(1, 15)).map(|i| random_record(&mut rng, 1 + i as u64)).collect();
        let index = FreshnessIndex::build(records.iter());
        let compacted: Vec<LogRecord> =
            records.iter().filter_map(|r| index.compact_record(r).0).collect();

        let replay = |recs: &[LogRecord]| {
            let mut mem = std::collections::HashMap::new();
            for r in recs {
                for e in &r.entries {
                    for (i, &b) in e.value.iter().enumerate() {
                        mem.insert(e.addr + i, b);
                    }
                }
            }
            mem
        };
        assert_eq!(
            replay(&records),
            replay(&compacted),
            "compaction changed replay state (seed={seed})"
        );
    }
}

/// The crash-atomicity property, randomized: any stream, any crash point,
/// any crash nondeterminism.
#[test]
fn specspmt_crash_atomicity_random() {
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9));
        let stream_seed = rng.next_u64();
        let crash_after = rng.below(300);
        let policy_seed = rng.next_u64();
        let spec_stream = StreamSpec {
            txs: 8,
            max_writes_per_tx: 4,
            max_write_len: 16,
            region_len: 256,
            seed: stream_seed,
        };
        let make = |pool: PmemPool| {
            SpecSpmt::new(
                pool,
                SpecConfig {
                    block_bytes: 512,
                    reclaim_threshold_bytes: 8 * 1024,
                    ..SpecConfig::default()
                },
            )
        };
        check_crash_atomicity(
            make,
            &spec_stream,
            CrashPlan::after_ops(crash_after).with_policy(CrashPolicy::Random(policy_seed)),
        )
        .unwrap_or_else(|e| {
            panic!("atomicity violation (seed={seed} crash_after={crash_after}): {e}")
        });
    }
}

/// Write-set indexing: repeated same-address writes inside one transaction
/// recover to the last value, under any crash policy after commit.
#[test]
fn last_write_wins_within_tx() {
    for seed in 0u64..32 {
        let mut rng = SplitMix64::new(seed ^ 0xBEEF);
        let values: Vec<u64> = (0..rng.range_usize(1, 20)).map(|_| rng.next_u64()).collect();
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
        let mut rt = SpecSpmt::new(pool, SpecConfig::default());
        rt.begin();
        let a = rt.alloc(8, 8);
        for &v in &values {
            rt.write_u64(a, v);
        }
        rt.commit();
        for policy in [CrashPolicy::AllLost, CrashPolicy::AllSurvive, CrashPolicy::Random(1)] {
            let mut img = rt.pool().device().capture(policy);
            SpecSpmt::recover(&mut img);
            assert_eq!(
                img.read_u64(a),
                *values.last().unwrap(),
                "lost last write (seed={seed} policy={policy:?})"
            );
        }
    }
}

/// Device persistence semantics: flushed+fenced data survives every crash
/// policy; unflushed data never survives `AllLost`.
#[test]
fn device_persistence_invariants() {
    for seed in 0u64..32 {
        let mut rng = SplitMix64::new(seed.wrapping_add(0x51DE));
        let writes: Vec<(usize, u64)> =
            (0..rng.range_usize(1, 30)).map(|_| (rng.range_usize(0, 99), rng.next_u64())).collect();

        // One slot per cache line so a flush never persists a neighbour.
        let mut dev = PmemDevice::new(PmemConfig::new(8192));
        dev.set_timing(TimingMode::On);
        let mut persisted = std::collections::HashMap::new();
        let mut volatile_only = std::collections::HashMap::new();
        for (i, &(slot, v)) in writes.iter().enumerate() {
            let addr = slot * 64;
            dev.write_u64(addr, v);
            if i % 2 == 0 {
                dev.clwb(addr);
                dev.sfence();
                persisted.insert(addr, v);
                volatile_only.remove(&addr);
            } else if persisted.get(&addr) != Some(&v) {
                volatile_only.insert(addr, v);
            } else {
                volatile_only.remove(&addr);
            }
        }
        let img = dev.capture(CrashPolicy::AllLost);
        for (&addr, &v) in &persisted {
            if !volatile_only.contains_key(&addr) {
                assert_eq!(img.read_u64(addr), v, "fenced write lost at {addr} (seed={seed})");
            }
        }
        for (&addr, &v) in &volatile_only {
            assert_ne!(
                img.read_u64(addr),
                v,
                "unflushed write survived AllLost at {addr} (seed={seed})"
            );
        }
    }
}

/// Multi-threaded crash atomicity, randomized: real threads, random
/// streams, random crash points and policies, on the concurrent runtime.
/// (The structured sweep lives in `tests/concurrency.rs`; this adds seeded
/// random exploration on top.)
#[test]
fn concurrent_crash_atomicity_random() {
    use specpmt::core::{ConcurrentConfig, SpecSpmtShared};
    use specpmt::pmem::{SharedPmemDevice, SharedPmemPool};
    use specpmt::txn::check_mt_crash_atomicity;
    use specpmt::txn::driver::generate_stream;

    for seed in 0u64..24 {
        let mut rng = SplitMix64::new(seed ^ 0xAB1E);
        let threads = rng.range_usize(1, 4);
        let crash_after = 1 + rng.below(600);
        let policy = match rng.range_usize(0, 2) {
            0 => CrashPolicy::AllLost,
            1 => CrashPolicy::AllSurvive,
            _ => CrashPolicy::Random(rng.next_u64()),
        };
        let dp = rng.next_bool();

        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 21));
        let pool = SharedPmemPool::create(dev.clone());
        let cfg = ConcurrentConfig::builder().threads(threads).data_persistence(dp).build();
        let shared = SpecSpmtShared::new(pool, cfg);
        let region_len = 192;
        let bases: Vec<usize> =
            (0..threads).map(|_| shared.pool().alloc_direct(region_len, 64).unwrap()).collect();
        let streams: Vec<_> = (0..threads)
            .map(|t| {
                generate_stream(&StreamSpec {
                    txs: 8,
                    max_writes_per_tx: 3,
                    max_write_len: 12,
                    region_len,
                    seed: rng.next_u64().wrapping_add(t as u64),
                })
            })
            .collect();
        let handles: Vec<_> = (0..threads).map(|t| shared.tx_handle(t)).collect();
        check_mt_crash_atomicity(
            &dev,
            handles,
            &bases,
            region_len,
            &streams,
            CrashPlan::after_ops(crash_after).with_policy(policy),
            SpecSpmtShared::recover,
        )
        .unwrap_or_else(|e| {
            panic!(
                "MT atomicity violation (seed={seed} threads={threads} dp={dp} \
                 crash_after={crash_after} policy={policy:?}): {e}"
            )
        });
    }
}

/// The word-at-a-time FNV-1a (`fnv1a64`) and the streaming hasher
/// ([`Fnv1a`], fed in arbitrary chunk splits) are bit-identical to the
/// byte-serial reference for every length and every source alignment.
///
/// Lengths sweep 0..=257 deterministically (covering the 0–7 byte tail of
/// every word boundary) plus random longer buffers; alignments sweep all 8
/// byte offsets into a shared backing buffer so the word loop sees every
/// misalignment the runtime can hand it.
#[test]
fn fnv_word_at_a_time_matches_byte_reference() {
    use specpmt::core::{fnv1a64, fnv1a64_reference, Fnv1a};

    let mut rng = SplitMix64::new(0xf17e);
    let backing: Vec<u8> = (0..512 + 8).map(|_| rng.next_u8()).collect();
    let mut lens: Vec<usize> = (0..=257).collect();
    for _ in 0..32 {
        lens.push(rng.range_usize(258, 512));
    }
    for &len in &lens {
        for align in 0..8 {
            let s = &backing[align..align + len];
            let want = fnv1a64_reference(s);
            assert_eq!(fnv1a64(s), want, "word loop diverges (len={len} align={align})");

            // Streaming: random chunk splits must not change the digest.
            let mut h = Fnv1a::new();
            let mut off = 0;
            while off < s.len() {
                let take = rng.range_usize(1, s.len() - off);
                h.update(&s[off..off + take]);
                off += take;
            }
            assert_eq!(h.finish(), want, "streamed digest diverges (len={len} align={align})");
        }
    }
}

/// One operation of a differential script.
#[derive(Debug, Clone)]
enum ScriptOp {
    /// Write these bytes at this region offset.
    Write(usize, Vec<u8>),
    /// Transactionally allocate this many bytes and write into the object.
    Alloc(usize),
    /// Read a word at this region offset.
    Read(usize),
}

const SCRIPT_REGION: usize = 1024;

/// A seeded `txs`-transaction script: random write sizes, repeated hot
/// addresses (same-size rewrites patch the write set in place), allocs,
/// and a read-only transaction every fifth commit.
fn differential_script(seed: u64, txs: usize) -> Vec<Vec<ScriptOp>> {
    let mut rng = SplitMix64::new(seed);
    (0..txs)
        .map(|i| {
            if i % 5 == 4 {
                return vec![ScriptOp::Read(8 * rng.range_usize(0, SCRIPT_REGION / 8 - 1))];
            }
            (0..rng.range_usize(1, 8))
                .map(|_| match rng.range_usize(0, 9) {
                    0 => ScriptOp::Alloc(rng.range_usize(8, 256)),
                    1 => ScriptOp::Read(8 * rng.range_usize(0, SCRIPT_REGION / 8 - 1)),
                    2..=4 => ScriptOp::Write(8 * rng.range_usize(0, 3), vec![rng.next_u8(); 8]),
                    _ => {
                        let len = rng.range_usize(1, 64);
                        let off = rng.range_usize(0, SCRIPT_REGION - len);
                        ScriptOp::Write(off, (0..len).map(|_| rng.next_u8()).collect())
                    }
                })
                .collect()
        })
        .collect()
}

fn run_script<A: TxAccess>(a: &mut A, base: usize, script: &[Vec<ScriptOp>]) {
    for tx in script {
        a.begin();
        for op in tx {
            match op {
                ScriptOp::Write(off, data) => a.write(base + off, data),
                ScriptOp::Alloc(size) => {
                    let obj = a.alloc(*size, 8);
                    a.write_u64(obj, *size as u64);
                }
                ScriptOp::Read(off) => {
                    let _ = a.read_u64(base + off);
                }
            }
        }
        a.commit();
    }
}

/// The committed records of chain 0 in `img`.
fn chain0_records(img: &specpmt::pmem::CrashImage) -> Vec<LogRecord> {
    let layout = specpmt::core::PoolLayout::read(img).expect("formatted pool");
    parse_chain(img, layout.head(img, 0), layout.block_bytes())
}

/// Drives one script through the sequential `SpecSpmt` (one thread, no
/// reclamation) and through the concurrent `SpecSpmtShared` (one handle,
/// solo commits, no daemons), base and DP, and asserts they leave the same
/// simulated clock, the same device counters, the same committed log
/// records, and the same recovered bytes.
fn assert_runtimes_agree(seeds: std::ops::Range<u64>, txs: usize) {
    use specpmt::core::{ConcurrentConfig, ReclaimMode, SpecSpmtShared};

    for seed in seeds {
        let script = differential_script(seed, txs);
        for dp in [false, true] {
            let cfg = SpecConfig {
                reclaim_mode: ReclaimMode::Disabled,
                data_persistence: dp,
                ..SpecConfig::default()
            };
            let mut seq =
                SpecSpmt::new(PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 21))), cfg);
            let base = seq.setup_alloc(SCRIPT_REGION, 64);
            run_script(&mut seq, base, &script);

            let cfg = ConcurrentConfig::builder()
                .threads(1)
                .data_persistence(dp)
                .group_commit(false)
                .flight_recorder(false)
                .build();
            let shared = SpecSpmtShared::open_or_format(PmemConfig::new(1 << 21), cfg);
            let mut h = shared.tx_handle(0);
            assert_eq!(h.setup_alloc(SCRIPT_REGION, 64), base, "seed={seed} dp={dp}");
            run_script(&mut h, base, &script);

            let ctx = format!("seed={seed} dp={dp}");
            let dev = seq.pool().device();
            assert_eq!(dev.now_ns(), shared.device().now_ns(), "simulated clock, {ctx}");
            assert_eq!(*dev.stats(), shared.device().stats(), "device counters, {ctx}");
            let mut seq_img = dev.capture(CrashPolicy::AllLost);
            let mut shared_img = shared.device().capture(CrashPolicy::AllLost);
            let records = chain0_records(&seq_img);
            assert_eq!(records.len(), script.len(), "every commit is a record, {ctx}");
            assert_eq!(records, chain0_records(&shared_img), "committed records, {ctx}");
            SpecSpmt::recover(&mut seq_img);
            SpecSpmtShared::recover(&mut shared_img);
            assert!(seq_img == shared_img, "recovered images differ, {ctx}");
        }
    }
}

/// Differential oracle for the two runtimes over scripts whose log fits
/// the first batch of log blocks each runtime allocates at format time.
#[test]
fn sequential_and_shared_runtimes_agree_on_one_script() {
    assert_runtimes_agree(0..4, 160);
}

/// The same oracle over a script long enough to allocate a second batch of
/// log blocks mid-run. The shared runtime persists the heap bump pointer
/// for that batch on a temporary device handle, so its fence stall lands
/// on no thread's timeline and `fence_stall_ns` diverges from the
/// sequential runtime, which charges the committing thread.
#[test]
#[ignore = "the shared runtime persists log-block allocations off the committing thread's timeline"]
fn sequential_and_shared_runtimes_agree_across_log_block_batches() {
    assert_runtimes_agree(0..1, 800);
}
