//! The one transaction-log protocol both runtimes run (paper §4): stage a
//! redo entry per datum, seal one checksummed record header, pay one
//! flush+fence.
//!
//! [`TxLog`] is embedded per log chain by the sequential
//! [`crate::SpecSpmt`] and per handle by the concurrent
//! [`crate::TxHandle`]; each runtime only supplies its chain, its
//! [`LogStore`], and its crash-site labels.

use specpmt_pmem::{CrashControl, DeviceHandle, FenceReport, PmemDevice, CACHE_LINE};
use specpmt_telemetry::{EventKind, Metric, Phase, Telemetry};

use crate::record::{
    encode_header_parts, entry_header, Cursor, LogArea, LogStore, ENTRY_HDR, REC_HDR,
};
use crate::writeset::WriteSet;

/// The flush/fence surface the solo persist tail drives, over both device
/// flavours.
pub(crate) trait PersistDevice {
    fn clwb_ranges(&mut self, ranges: &[(usize, usize)]);
    fn clwb_lines(&mut self, lines: &[usize]);
    fn sfence(&mut self) -> FenceReport;
    fn crash_point(&self, site: &'static str);
}

impl PersistDevice for PmemDevice {
    fn clwb_ranges(&mut self, ranges: &[(usize, usize)]) {
        PmemDevice::clwb_ranges(self, ranges);
    }

    fn clwb_lines(&mut self, lines: &[usize]) {
        PmemDevice::clwb_lines(self, lines);
    }

    fn sfence(&mut self) -> FenceReport {
        PmemDevice::sfence(self)
    }

    fn crash_point(&self, site: &'static str) {
        CrashControl::crash_point(self, site);
    }
}

impl PersistDevice for DeviceHandle {
    fn clwb_ranges(&mut self, ranges: &[(usize, usize)]) {
        DeviceHandle::clwb_ranges(self, ranges);
    }

    fn clwb_lines(&mut self, lines: &[usize]) {
        DeviceHandle::clwb_lines(self, lines);
    }

    fn sfence(&mut self) -> FenceReport {
        DeviceHandle::sfence(self)
    }

    fn crash_point(&self, site: &'static str) {
        DeviceHandle::crash_point(self, site);
    }
}

/// Crash-site labels of the solo persist tail: `(flush, fence)`.
pub(crate) type SoloSites = (&'static str, &'static str);

/// Per-chain state of the open transaction. Every buffer is cleared —
/// never freed — between transactions, so steady-state commits allocate
/// nothing.
#[derive(Debug)]
pub(crate) struct TxLog {
    /// Write set (paper §4: only the last update of a datum in a
    /// transaction needs a log record): open-addressing index + payload
    /// arena + streaming record checksum.
    pub ws: WriteSet,
    /// Dirty `(addr, len)` log ranges of the open transaction; coalesced
    /// into one vectored flush at commit.
    pub dirty: Vec<(usize, usize)>,
    /// SpecSPMT-DP only: cache-line *indices* of data stores, sorted and
    /// deduplicated at commit for the second (data) flush+fence.
    pub data_lines: Vec<usize>,
    /// Position of the open record's header.
    tx_start: Cursor,
}

impl Default for TxLog {
    fn default() -> Self {
        Self {
            ws: WriteSet::new(),
            dirty: Vec::new(),
            data_lines: Vec::new(),
            tx_start: Cursor { block: 0, pos: 0 },
        }
    }
}

impl TxLog {
    /// Opens a record at the chain tail: reserves its header, whose zero
    /// length marks the record open/uncommitted.
    pub fn begin<S: LogStore>(&mut self, area: &mut LogArea, store: &mut S) {
        self.ws.begin();
        self.dirty.clear();
        self.data_lines.clear();
        self.tx_start = area.tail();
        area.append(store, &[0u8; REC_HDR], &mut self.dirty);
    }

    /// Stages the redo entry for an in-place store of `data` at `addr`
    /// (and, with `dp`, its data lines for the DP flush). A repeated
    /// same-size update of a datum overwrites its entry in place instead
    /// of appending a stale one. Returns the log bytes appended.
    pub fn stage<S: LogStore>(
        &mut self,
        area: &mut LogArea,
        store: &mut S,
        addr: usize,
        data: &[u8],
        dp: bool,
    ) -> usize {
        if dp && !data.is_empty() {
            // Line *indices*; sorted and deduplicated once, at commit.
            self.data_lines.extend(addr / CACHE_LINE..=(addr + data.len() - 1) / CACHE_LINE);
        }
        if let Some(slot) = self.ws.lookup(addr) {
            if slot.len == data.len() {
                self.ws.patch(slot, data);
                area.write_at(store, slot.value_cursor, data, &mut self.dirty);
                return 0;
            }
        }
        area.append(store, &entry_header(addr, data.len()), &mut self.dirty);
        let value_cursor = area.tail();
        area.append(store, data, &mut self.dirty);
        self.ws.stage(addr, data, value_cursor);
        ENTRY_HDR + data.len()
    }

    /// Payload bytes of the open record.
    pub fn payload_len(&self) -> usize {
        self.ws.payload().len()
    }

    /// Seals the open record at commit timestamp `ts`: writes its
    /// checksummed header and the chain terminator after it. The record
    /// checksum was streamed while entries were staged; only the fixed
    /// `(len, ts)` suffix is folded in here. Returns the log bytes written.
    pub fn seal<S: LogStore>(
        &mut self,
        area: &mut LogArea,
        store: &mut S,
        ts: u64,
        tel: &Telemetry,
        tid: usize,
    ) -> usize {
        let seal_span = tel.registry.span(tid, Phase::Seal);
        let mut bytes = REC_HDR;
        if self.ws.payload().is_empty() {
            // A zero-length record header is the chain terminator, so an
            // empty (read-only or write-free) transaction must not seal a
            // zero-length record — it would orphan every younger record
            // behind it. Pad with one zero-length entry: the payload becomes
            // one entry header, and recovery replays it as a no-op.
            bytes += self.stage(area, store, 0, &[], false);
        }
        let header = encode_header_parts(ts, self.payload_len(), self.ws.checksum(ts));
        seal_span.stop();
        let _append_span = tel.registry.span(tid, Phase::Append);
        let wrote = area.write_at(store, self.tx_start, &header, &mut self.dirty);
        assert_eq!(wrote, REC_HDR, "record header must fit in the chain");
        area.write_terminator(store, &mut self.dirty);
        tel.registry.add(tid, Metric::LogAppends, 1);
        bytes
    }

    /// The solo persist tail of a sealed record: one vectored flush of the
    /// whole record (coalesced, ascending lines) and one fence, then — with
    /// `dp` (SpecSPMT-DP) — the same for the transaction's data lines.
    /// Returns the log fence's report.
    pub fn persist_solo<D: PersistDevice>(
        &mut self,
        dev: &mut D,
        tel: &Telemetry,
        tid: usize,
        dp: bool,
        sites: SoloSites,
    ) -> FenceReport {
        let flush_span = tel.registry.span(tid, Phase::Flush);
        dev.clwb_ranges(&self.dirty);
        flush_span.stop();
        tel.registry.add(tid, Metric::ClwbPlans, 1);
        tel.tracer.record(tid, EventKind::ClwbPlan, self.dirty.len() as u64, 0);
        self.dirty.clear();
        let fr = fence(dev, tel, tid, sites);
        if dp {
            self.data_lines.sort_unstable();
            self.data_lines.dedup();
            let flush_span = tel.registry.span(tid, Phase::Flush);
            dev.clwb_lines(&self.data_lines);
            flush_span.stop();
            tel.registry.add(tid, Metric::ClwbPlans, 1);
            tel.tracer.record(tid, EventKind::ClwbPlan, self.data_lines.len() as u64, 0);
            self.data_lines.clear();
            // DP's second drain reuses the commit flush/fence labels: it
            // stresses the same ordering invariant at the same protocol
            // step, and a per-variant label would be unreachable from the
            // default-config smoke workloads.
            fence(dev, tel, tid, sites);
        }
        fr
    }
}

/// One labeled fence of the solo tail, with its telemetry.
fn fence<D: PersistDevice>(
    dev: &mut D,
    tel: &Telemetry,
    tid: usize,
    (flush_site, fence_site): SoloSites,
) -> FenceReport {
    dev.crash_point(flush_site);
    let fence_span = tel.registry.span(tid, Phase::Fence);
    let fr = dev.sfence();
    fence_span.stop();
    dev.crash_point(fence_site);
    tel.registry.add(tid, Metric::Fences, 1);
    tel.tracer.record(tid, EventKind::Fence, fr.stall_ns, fr.flushes);
    if fr.flushes > 0 {
        tel.registry.add(tid, Metric::WpqDrains, 1);
        if fr.stall_ns > 0 {
            tel.registry.record(tid, Phase::WpqDrain, fr.stall_ns);
            tel.tracer.record(tid, EventKind::WpqDrain, fr.stall_ns, fr.flushes);
        }
    }
    fr
}
