//! Spans recorded from outside the program, around calls into each layer.
//!
//! A [`Tracer`] keeps the spans of the op in flight (name, start, end,
//! parent; the op id is the tracer's op counter) and folds them into
//! per-layer totals when the op ends, so memory stays bounded however long
//! the run is. A layer's self time is its span minus the part of that
//! interval its child spans cover. Every finished op is reconciled in
//! integer nanoseconds: the self times of all its spans, the root's own
//! (`unattributed`) included, must add up to the root span exactly. A
//! child that escapes its parent or overlaps a sibling breaks the sum and
//! is counted in [`Tracer::ledger_mismatches`].
//!
//! [`Timed`] is the timing [`TxAccess`] wrapper: it puts a span around
//! every begin / read / write / commit / abort call of the wrapped access
//! point while an op is open.

use std::time::Instant;

use specpmt_pmem::TimingMode;
use specpmt_txn::TxAccess;

/// The span names: one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one op (a kv request, or one STAMP transaction).
    Op,
    /// `Admission::try_admit`.
    Admission,
    /// `ShardRouter::shard_of`.
    Router,
    /// `ShardTable::get` under `run_tx`.
    TableGet,
    /// `ShardTable::put` under `run_tx`.
    TablePut,
    /// `ShardTable::delete` under `run_tx`.
    TableDelete,
    /// The read-then-`ShardTable::cas` pair of a generated cas.
    TableCas,
    /// `ShardTable::scan` under `run_tx`.
    TableScan,
    /// Flight-recorder `record_event` calls the service makes per op.
    Recorder,
    /// The governor's tail sample (`KvShard::tail_p99_ns` +
    /// `Admission::observe_tail`).
    Governor,
    /// `TxAccess::begin`.
    TxBegin,
    /// `TxAccess::read`.
    TxRead,
    /// `TxAccess::write`.
    TxWrite,
    /// `TxAccess::commit`.
    TxCommit,
    /// `TxAccess::abort`.
    TxAbort,
    /// Allocation and maintenance calls inside a transaction.
    TxOther,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: u32,
}

/// Transaction-level counters the [`Timed`] wrapper keeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxCounters {
    /// Commits that went through the wrapper.
    pub commits: u64,
    /// `write` calls inside transactions.
    pub writes: u64,
    /// Bytes those writes carried.
    pub write_bytes: u64,
    /// Simulated ns charged to the caller's clock inside `commit`.
    pub commit_sim_ns: u64,
    /// Net bytes the workload allocated (`setup_alloc` + `alloc` − `free`).
    pub alloc_bytes: i64,
}

/// Span recorder and per-layer aggregate (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    covered: Vec<u64>,
    cursor: Vec<u64>,
    /// Open a root span at `begin` and close it at `commit`/`abort` when
    /// no op is open (STAMP: one op per transaction).
    auto_root: bool,
    /// Self time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Spans per layer.
    pub calls: [u64; LAYERS],
    /// Sum of root-span durations, ns.
    pub root_ns: u64,
    /// Root self time: op time outside every child span, ns.
    pub unattributed_ns: u64,
    /// Ops finished.
    pub ops: u64,
    /// Ops whose span self times did not add up to the root span.
    pub ledger_mismatches: u64,
    /// Transaction counters from [`Timed`].
    pub tx: TxCounters,
    /// Every `(addr, len)` written through [`Timed`], when recording.
    pub ranges: Option<Vec<(usize, usize)>>,
    /// Put a span around each wrapped call; off, only root spans are
    /// recorded (per-op latency sampling at two clock reads per op).
    pub span_calls: bool,
    /// Every root-span duration (ns), when sampling latencies.
    pub latencies: Option<Vec<u64>>,
}

impl Tracer {
    /// An idle tracer. `auto_root` makes each transaction its own op.
    pub fn new(auto_root: bool) -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::with_capacity(64),
            stack: Vec::with_capacity(8),
            covered: Vec::new(),
            cursor: Vec::new(),
            auto_root,
            self_ns: [0; LAYERS],
            calls: [0; LAYERS],
            root_ns: 0,
            unattributed_ns: 0,
            ops: 0,
            ledger_mismatches: 0,
            tx: TxCounters::default(),
            ranges: None,
            span_calls: true,
            latencies: None,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Whether an op (root span) is open.
    pub fn in_op(&self) -> bool {
        !self.stack.is_empty()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let start = self.now();
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span { layer, start, end: start, parent });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let idx = self.stack.pop().expect("exit without an open span") as usize;
        self.spans[idx].end = end;
    }

    /// Opens the root span of a new op.
    ///
    /// # Panics
    ///
    /// Panics if an op is already open.
    pub fn begin_op(&mut self) {
        assert!(self.stack.is_empty(), "op already open");
        self.spans.clear();
        self.enter(Layer::Op);
    }

    /// Closes the root span and folds the op's spans into the totals.
    ///
    /// # Panics
    ///
    /// Panics if a child span is still open.
    pub fn end_op(&mut self) {
        self.exit();
        assert!(self.stack.is_empty(), "child span left open at end of op");
        self.fold();
    }

    fn fold(&mut self) {
        let n = self.spans.len();
        self.covered.clear();
        self.covered.resize(n, 0);
        self.cursor.clear();
        self.cursor.extend(self.spans.iter().map(|s| s.start));
        // Spans are recorded in start order, so one sweep per parent
        // measures the union of its children clipped to the parent.
        for i in 1..n {
            let s = self.spans[i];
            let p = s.parent as usize;
            let (ps, pe) = (self.spans[p].start, self.spans[p].end);
            let lo = s.start.max(ps).max(self.cursor[p]);
            let hi = s.end.min(pe);
            if hi > lo {
                self.covered[p] += hi - lo;
            }
            self.cursor[p] = self.cursor[p].max(hi);
        }
        let mut total_self = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start) - self.covered[i];
            total_self += own;
            self.self_ns[s.layer as usize] += own;
            self.calls[s.layer as usize] += 1;
        }
        let root = self.spans[0];
        let root_ns = root.end - root.start;
        if total_self != root_ns {
            self.ledger_mismatches += 1;
        }
        self.root_ns += root_ns;
        if let Some(l) = self.latencies.as_mut() {
            l.push(root_ns);
        }
        self.unattributed_ns += root_ns - self.covered[0];
        self.ops += 1;
    }

    /// Mean self time of one `layer` span in µs (0 when never entered).
    pub fn self_us(&self, layer: Layer) -> f64 {
        crate::stats::ratio(
            self.self_ns[layer as usize] as f64 / 1e3,
            self.calls[layer as usize] as f64,
        )
    }
}

/// Timing [`TxAccess`] wrapper around one access point (see module docs).
pub struct Timed<'a, A> {
    /// The wrapped access point.
    pub inner: &'a mut A,
    /// Where spans go.
    pub tr: &'a mut Tracer,
}

impl<A: TxAccess> Timed<'_, A> {
    fn timed<T>(&mut self, layer: Layer, f: impl FnOnce(&mut A) -> T) -> T {
        if !self.tr.span_calls || !self.tr.in_op() {
            return f(self.inner);
        }
        self.tr.enter(layer);
        let out = f(self.inner);
        self.tr.exit();
        out
    }

    fn record_range(&mut self, addr: usize, len: usize) {
        if let Some(r) = self.tr.ranges.as_mut() {
            r.push((addr, len));
        }
    }
}

impl<A: TxAccess> TxAccess for Timed<'_, A> {
    fn begin(&mut self) {
        if self.tr.auto_root && !self.tr.in_op() {
            self.tr.begin_op();
        }
        self.timed(Layer::TxBegin, A::begin);
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        if self.inner.in_tx() {
            self.tr.tx.writes += 1;
            self.tr.tx.write_bytes += data.len() as u64;
        }
        self.record_range(addr, data.len());
        self.timed(Layer::TxWrite, |a| a.write(addr, data));
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.timed(Layer::TxRead, |a| a.read(addr, buf));
    }

    fn commit(&mut self) {
        let sim0 = self.inner.local_now_ns();
        self.timed(Layer::TxCommit, A::commit);
        self.tr.tx.commit_sim_ns += self.inner.local_now_ns().saturating_sub(sim0);
        self.tr.tx.commits += 1;
        if self.tr.auto_root && self.tr.in_op() {
            self.tr.end_op();
        }
    }

    fn abort(&mut self) {
        self.timed(Layer::TxAbort, A::abort);
        if self.tr.auto_root && self.tr.in_op() {
            self.tr.end_op();
        }
    }

    fn doomed(&self) -> bool {
        self.inner.doomed()
    }

    fn alloc(&mut self, size: usize, align: usize) -> usize {
        self.tr.tx.alloc_bytes += size as i64;
        self.timed(Layer::TxOther, |a| a.alloc(size, align))
    }

    fn free(&mut self, addr: usize, size: usize, align: usize) {
        self.tr.tx.alloc_bytes -= size as i64;
        self.timed(Layer::TxOther, |a| a.free(addr, size, align));
    }

    fn in_tx(&self) -> bool {
        self.inner.in_tx()
    }

    fn compute(&mut self, ns: u64) {
        self.inner.compute(ns);
    }

    fn local_now_ns(&self) -> u64 {
        self.inner.local_now_ns()
    }

    fn set_timing(&mut self, mode: TimingMode) -> TimingMode {
        self.inner.set_timing(mode)
    }

    fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize {
        self.tr.tx.alloc_bytes += bytes as i64;
        self.inner.setup_alloc(bytes, align)
    }

    fn setup_write(&mut self, addr: usize, data: &[u8]) {
        self.record_range(addr, data.len());
        self.inner.setup_write(addr, data);
    }

    fn maintain(&mut self) {
        self.timed(Layer::TxOther, A::maintain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_reconcile_exactly() {
        let mut tr = Tracer::new(false);
        for _ in 0..100 {
            tr.begin_op();
            tr.enter(Layer::Admission);
            tr.exit();
            tr.enter(Layer::TableGet);
            tr.enter(Layer::TxBegin);
            tr.exit();
            tr.enter(Layer::TxRead);
            tr.exit();
            tr.exit();
            tr.end_op();
        }
        assert_eq!(tr.ops, 100);
        assert_eq!(tr.ledger_mismatches, 0);
        let attributed: u64 = tr.self_ns[1..].iter().sum();
        assert_eq!(attributed + tr.unattributed_ns, tr.root_ns);
        assert_eq!(tr.calls[Layer::TxRead as usize], 100);
    }

    #[test]
    fn a_child_that_escapes_its_parent_breaks_the_ledger() {
        let mut tr = Tracer::new(false);
        // Root covers 0..10 ns; its child claims 5..20 ns, as an
        // unbalanced recorder would produce. Clipped to the root, the
        // child covers 5 ns but owns 15, so the op cannot reconcile.
        tr.spans = vec![
            Span { layer: Layer::Op, start: 0, end: 10, parent: u32::MAX },
            Span { layer: Layer::TableGet, start: 5, end: 20, parent: 0 },
        ];
        tr.fold();
        assert_eq!(tr.ledger_mismatches, 1);
    }
}
