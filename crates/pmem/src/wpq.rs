//! The ADR write-pending-queue / media timing model and the crash-image
//! builder, shared by [`crate::PmemDevice`] and
//! [`crate::SharedPmemDevice`] so both devices accept flushes and build
//! crash images with one body of code.

use std::collections::VecDeque;

use crate::crash::{CrashImage, CrashPolicy};
use crate::geometry::{channel_of_xpline, line_start, xpline_of_line, CACHE_LINE, PERSIST_WORD};
use crate::PmemConfig;

/// A line flush that has been issued but not yet fenced.
///
/// The snapshot is a fixed cache-line array (not a `Vec`): flushes are the
/// hottest allocation site of the commit path, and an inline array keeps
/// the whole pending set allocation-free once the pending vector has
/// reached its steady-state capacity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingFlush {
    /// Issuing handle (always 0 on the single-threaded device).
    pub owner: u64,
    pub line: usize,
    /// Simulated time at which the line is accepted into the WPQ — the
    /// instant it enters the persistence domain under ADR.
    pub accepted_at: u64,
    /// Contents of the line at `clwb` time. A later store to the line does
    /// not change what this flush persists.
    pub snapshot: [u8; CACHE_LINE],
}

/// Per-channel WPQ and media state. Each memory controller has its own WPQ
/// of `wpq_entries` slots that drains to media serially; flushing faster
/// than media bandwidth backs up the queue and delays acceptance. A flush
/// landing in the XPLine the media currently has open is serviced at the
/// cheaper sequential rate.
#[derive(Debug, Clone)]
pub(crate) struct WpqModel {
    /// Per-channel in-flight drain times (each queue is monotonic
    /// non-decreasing).
    drains: Vec<VecDeque<u64>>,
    /// Per-channel media occupancy; 4 KiB chunks of the address space
    /// stripe round-robin across channels (see
    /// [`crate::geometry::channel_of_xpline`]).
    media_busy_until: Vec<u64>,
    last_media_xpline: Vec<Option<usize>>,
    /// Per-channel (per-DIMM) queue-depth high-water marks: the deepest
    /// each WPQ has ever been right after accepting a flush. Telemetry
    /// only — never consulted by the timing model.
    pub depth_high_water: Vec<u64>,
}

impl WpqModel {
    pub fn new(channels: usize) -> Self {
        let channels = channels.max(1);
        Self {
            drains: vec![VecDeque::new(); channels],
            media_busy_until: vec![0; channels],
            last_media_xpline: vec![None; channels],
            depth_high_water: vec![0; channels],
        }
    }

    /// Accounts one line write-back issued at `now`: waits for a free WPQ
    /// slot on the line's channel, schedules the media drain, and returns
    /// `(accepted_at, sequential)` — when the line enters the persistence
    /// domain and whether the media served it at the sequential rate.
    pub fn accept(&mut self, cfg: &PmemConfig, line: usize, now: u64) -> (u64, bool) {
        let xp = xpline_of_line(line);
        let ch = channel_of_xpline(xp, self.media_busy_until.len());
        let queue = &mut self.drains[ch];
        while queue.front().is_some_and(|&t| t <= now) {
            queue.pop_front();
        }
        let slot_free_at = if queue.len() >= cfg.wpq_entries {
            // Queue full: must wait for the oldest entry to drain.
            queue.pop_front().unwrap_or(now)
        } else {
            now
        };
        let accepted_at = slot_free_at.max(now) + cfg.wpq_accept_ns;
        let sequential = self.last_media_xpline[ch] == Some(xp);
        let service = if sequential { cfg.line_write_seq_ns } else { cfg.line_write_ns };
        let drain_at = self.media_busy_until[ch].max(accepted_at) + service;
        self.media_busy_until[ch] = drain_at;
        self.last_media_xpline[ch] = Some(xp);
        queue.push_back(drain_at);
        let depth = queue.len() as u64;
        self.depth_high_water[ch] = self.depth_high_water[ch].max(depth);
        (accepted_at, sequential)
    }
}

/// Produces the memory image a crash at `now` could leave, governed by
/// `policy`, from the `persisted` image, the `volatile` image, and the
/// unfenced flushes:
///
/// * flushed-and-fenced data is always present;
/// * flushes accepted by the WPQ (even without a fence) are present — ADR
///   drains the WPQ on power failure;
/// * in-flight flushes and plain dirty words survive per `policy` (cache
///   evictions can persist any subset, at 8-byte granularity).
pub(crate) fn build_crash_image(
    mut image: Vec<u8>,
    volatile: &[u8],
    pending: &[PendingFlush],
    now: u64,
    policy: CrashPolicy,
) -> CrashImage {
    let mut rng = policy.rng();
    for p in pending {
        if p.accepted_at <= now || policy.survives(&mut rng) {
            let start = line_start(p.line);
            image[start..start + CACHE_LINE].copy_from_slice(&p.snapshot);
        }
    }
    for (img, vol) in image.chunks_exact_mut(PERSIST_WORD).zip(volatile.chunks_exact(PERSIST_WORD))
    {
        if img != vol && policy.survives(&mut rng) {
            img.copy_from_slice(vol);
        }
    }
    CrashImage::new(image)
}
