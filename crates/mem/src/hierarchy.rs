//! The two-level hierarchy of Table 2, in two selectable timing models:
//!
//! * the historical **flat latency model** (`realistic = false`, the
//!   default): an access returns its total latency and the line fills
//!   immediately;
//! * the **non-blocking model** (`realistic = true`): per-level finite
//!   [`MshrFile`]s with same-line miss coalescing, fills that land at a
//!   future cycle, and an optional [`StridePrefetcher`] — see
//!   [`MemoryHierarchy::data_access_nonblocking`].

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::MshrFile;
use crate::prefetch::StridePrefetcher;
use crate::writebuf::WriteBuffer;

/// Configuration of the full memory hierarchy. Defaults are Table 2's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Minimum main-memory latency in cycles.
    pub memory_latency: u64,
    /// Maximum outstanding memory-level misses in the *flat* model. `0` =
    /// unlimited — the paper's table does not bound MLP, so unlimited is
    /// the default; finite values queue excess misses behind the oldest
    /// outstanding one (see the `abl_mshr` study). Ignored when
    /// [`MemConfig::realistic`] is on (the per-level MSHR files take over).
    pub max_outstanding_misses: usize,
    /// Selects the cycle-driven non-blocking data-side model: finite
    /// per-level MSHRs, miss coalescing on cache lines, future-cycle fills
    /// and (optionally) stride prefetching. Default **off** — the flat
    /// model is the golden baseline.
    pub realistic: bool,
    /// L1D MSHR entries in the non-blocking model (`0` = unlimited).
    pub l1_mshrs: usize,
    /// L2 MSHR entries in the non-blocking model (`0` = unlimited).
    pub l2_mshrs: usize,
    /// Enables store-to-load forwarding through the core's store queue:
    /// a load fully covered by an older in-flight store gets its value at
    /// L1-hit latency; partial overlap conservatively replays. Default
    /// **off**.
    pub store_forwarding: bool,
    /// Stride-prefetcher table entries (`0` = off, the default). Only
    /// active in the non-blocking model — prefetches allocate MSHRs and
    /// are dropped silently when none is free.
    pub prefetch_entries: usize,
    /// I-cache MSHR entries in the non-blocking model (`0` = unlimited).
    /// When [`MemConfig::realistic`] is on, instruction fetch goes through
    /// [`MemoryHierarchy::fetch_access_nonblocking`] and its misses occupy
    /// these entries until the fill lands.
    pub i_mshrs: usize,
    /// Next-line instruction prefetch in the non-blocking model: every
    /// I-side demand access also tries to start a fill for the following
    /// line through the normal MSHR path (dropped silently when no MSHR is
    /// free). Ignored by the flat model.
    pub iprefetch: bool,
    /// Asynchronous write-buffer entries (`0` = off, the default: stores
    /// commit instantaneously as in the historical model). When set,
    /// executed stores park in a [`WriteBuffer`] and drain serially over
    /// cycles; a store issued while the buffer is full is refused and the
    /// core retries (the `writebuf-full` stall cause). Only active in the
    /// non-blocking model.
    pub write_buffer_entries: usize,
    /// Data-cache access ports per cycle (`0` = unlimited, the default).
    /// In the non-blocking model at most this many demand accesses are
    /// accepted per cycle; excess accesses are refused with
    /// [`AccessOutcome::PortBusy`] and serialize into later cycles —
    /// a coarse single-bank model of port/bank conflicts.
    pub data_ports: usize,
}

impl MemConfig {
    /// The "realistic" preset shared by the validation lanes, the
    /// realistic golden set and the Fig. 14-style latency sweep:
    /// non-blocking hierarchy with finite MSHR files on all three caches,
    /// store-to-load forwarding, a stride prefetcher, next-line
    /// instruction prefetch, a 4-entry write buffer and 2 data ports.
    #[must_use]
    pub fn realistic_preset() -> MemConfig {
        MemConfig {
            realistic: true,
            store_forwarding: true,
            l1_mshrs: 4,
            l2_mshrs: 8,
            prefetch_entries: 16,
            i_mshrs: 4,
            iprefetch: true,
            write_buffer_entries: 4,
            data_ports: 2,
            ..MemConfig::default()
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            icache: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 2,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 6,
            },
            memory_latency: 300,
            max_outstanding_misses: 0,
            realistic: false,
            l1_mshrs: 8,
            l2_mshrs: 16,
            store_forwarding: false,
            prefetch_entries: 0,
            i_mshrs: 4,
            iprefetch: true,
            write_buffer_entries: 0,
            data_ports: 0,
        }
    }
}

/// What the non-blocking hierarchy did with a demand access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// Data available after `latency` cycles (L1 hit).
    Ready(u64),
    /// The line is (now) being filled; data available at the absolute
    /// cycle carried here — either a newly allocated miss or a coalesced
    /// hit on an already-pending fill.
    Pending(u64),
    /// Every MSHR the access needed is busy. Nothing was changed (no
    /// stats, no LRU, no allocation): retry next cycle.
    MshrFull,
    /// Every data-cache port is taken this cycle
    /// ([`MemConfig::data_ports`]). Nothing was changed: retry next cycle.
    PortBusy,
}

/// What the non-blocking hierarchy did with an executed store (the
/// write-buffer-aware sibling of [`AccessOutcome`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreOutcome {
    /// The store was accepted: its cache access is in flight and (when
    /// the write buffer is enabled) it occupies a buffer entry until the
    /// drain completes.
    Accepted,
    /// The write buffer has no free entry. Nothing was changed: retry
    /// next cycle (the `writebuf-full` stall cause).
    WriteBufFull,
    /// See [`AccessOutcome::MshrFull`].
    MshrFull,
    /// See [`AccessOutcome::PortBusy`].
    PortBusy,
}

/// I-cache + L1D + unified L2 + memory, as a pure latency model.
///
/// An access returns the total cycles until data is available:
/// L1 hit → L1 latency; L1 miss, L2 hit → L1 + L2; both miss → L1 + L2 +
/// memory latency. Fills are immediate (no MSHRs); see DESIGN.md.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    icache: Cache,
    l1d: Cache,
    l2: Cache,
    memory_latency: u64,
    max_outstanding: usize,
    /// Completion times of in-flight memory-level misses (kept sorted by
    /// construction: each new miss completes no earlier than the previous
    /// when the MSHRs are saturated).
    outstanding: Vec<u64>,
    realistic: bool,
    l1_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    i_mshrs: MshrFile,
    prefetcher: StridePrefetcher,
    prefetch_fills: u64,
    iprefetch: bool,
    iprefetch_fills: u64,
    write_buffer: WriteBuffer,
    data_ports: usize,
    /// Cycle the per-cycle port counter below refers to.
    port_cycle: u64,
    /// Demand accesses accepted so far in `port_cycle`.
    port_used: usize,
    port_rejections: u64,
    wrong_path_fills: u64,
}

impl MemoryHierarchy {
    /// Creates an empty (cold) hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry in `cfg` is inconsistent.
    #[must_use]
    pub fn new(cfg: MemConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            icache: Cache::new(cfg.icache),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            memory_latency: cfg.memory_latency,
            max_outstanding: cfg.max_outstanding_misses,
            outstanding: Vec::new(),
            realistic: cfg.realistic,
            l1_mshrs: MshrFile::new(cfg.l1_mshrs),
            l2_mshrs: MshrFile::new(cfg.l2_mshrs),
            i_mshrs: MshrFile::new(cfg.i_mshrs),
            prefetcher: StridePrefetcher::new(if cfg.realistic {
                cfg.prefetch_entries
            } else {
                0
            }),
            prefetch_fills: 0,
            iprefetch: cfg.realistic && cfg.iprefetch,
            iprefetch_fills: 0,
            write_buffer: WriteBuffer::new(if cfg.realistic {
                cfg.write_buffer_entries
            } else {
                0
            }),
            data_ports: if cfg.realistic { cfg.data_ports } else { 0 },
            port_cycle: 0,
            port_used: 0,
            port_rejections: 0,
            wrong_path_fills: 0,
        }
    }

    /// Whether the non-blocking model is active.
    #[must_use]
    pub fn realistic(&self) -> bool {
        self.realistic
    }

    /// Byte address → line address under the (shared) 64 B line geometry.
    fn line_of(&self, addr: u64) -> u64 {
        addr / self.l1d.line_bytes() as u64
    }

    /// Retires every MSHR fill that completed by `now`, installing the
    /// lines into their level. L2 first so a line finishing both levels at
    /// the same cycle lands bottom-up.
    fn drain_fills(&mut self, now: u64) {
        let line_bytes = self.l1d.line_bytes() as u64;
        let l2 = &mut self.l2;
        self.l2_mshrs.drain(now, |line| l2.install(line * line_bytes));
        let l1d = &mut self.l1d;
        self.l1_mshrs.drain(now, |line| l1d.install(line * line_bytes));
        let icache = &mut self.icache;
        self.i_mshrs.drain(now, |line| icache.install(line * line_bytes));
    }

    /// Any data-side fill still outstanding at `now`? (Drives the
    /// `miss-pending` cycle-accounting cause.)
    #[must_use]
    pub fn fill_pending_at(&self, now: u64) -> bool {
        self.l1_mshrs.busy(now) || self.l2_mshrs.busy(now)
    }

    /// Earliest cycle strictly after `now` at which
    /// [`MemoryHierarchy::fill_pending_at`] can change value — the next
    /// data-side fill expiry. `None` while no fill is outstanding (the
    /// predicate then stays `false` until a new miss is issued).
    #[must_use]
    pub fn next_fill_change_after(&self, now: u64) -> Option<u64> {
        match (
            self.l1_mshrs.next_fill_after(now),
            self.l2_mshrs.next_fill_after(now),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Demand access through the non-blocking model. Routes the access —
    /// L1 hit, coalesce onto a pending fill, allocate new fill(s), or
    /// refuse ([`AccessOutcome::MshrFull`] /
    /// [`AccessOutcome::PortBusy`]) — committing state *only* on the
    /// paths that accept it, so a refused access can be retried verbatim.
    /// `pc` identifies the load/store for the stride prefetcher.
    ///
    /// When [`MemConfig::data_ports`] is finite, each accepted access
    /// consumes one port for the cycle; refused accesses consume none.
    pub fn data_access_nonblocking(
        &mut self,
        addr: u64,
        is_write: bool,
        pc: u64,
        now: u64,
    ) -> AccessOutcome {
        debug_assert!(self.realistic);
        if self.data_ports != 0 {
            if now != self.port_cycle {
                self.port_cycle = now;
                self.port_used = 0;
            }
            if self.port_used >= self.data_ports {
                self.port_rejections += 1;
                return AccessOutcome::PortBusy;
            }
        }
        let out = self.data_access_inner(addr, is_write, pc, now);
        if !matches!(out, AccessOutcome::MshrFull) {
            self.port_used += 1;
        }
        out
    }

    /// Port-free body of [`MemoryHierarchy::data_access_nonblocking`].
    fn data_access_inner(&mut self, addr: u64, _is_write: bool, pc: u64, now: u64) -> AccessOutcome {
        self.drain_fills(now);
        let line = self.line_of(addr);
        if self.l1d.contains(addr) {
            self.l1d.lookup(addr);
            self.train_prefetcher(pc, addr, now);
            return AccessOutcome::Ready(self.l1d.latency());
        }
        if let Some(fill_at) = self.l1_mshrs.pending(line) {
            self.l1_mshrs.note_coalesced();
            return AccessOutcome::Pending(fill_at);
        }
        // The access needs a fresh L1 MSHR (and possibly an L2 one);
        // refuse before touching any counter if either is unavailable.
        if self.l1_mshrs.is_full() {
            return AccessOutcome::MshrFull;
        }
        let l1_l2 = self.l1d.latency() + self.l2.latency();
        if self.l2.contains(addr) {
            self.l1d.lookup(addr); // counts the L1 miss
            self.l2.lookup(addr); // counts the L2 hit, refreshes LRU
            let fill_at = now + l1_l2;
            let ok = self.l1_mshrs.try_allocate(line, fill_at);
            debug_assert!(ok);
            self.train_prefetcher(pc, addr, now);
            return AccessOutcome::Pending(fill_at);
        }
        if let Some(l2_fill) = self.l2_mshrs.pending(line) {
            // Coalesce at L2: the line arrives there at `l2_fill` and is
            // forwarded up to L1 on the same cycle.
            self.l2_mshrs.note_coalesced();
            self.l1d.lookup(addr); // counts the L1 miss
            let fill_at = l2_fill.max(now + l1_l2);
            let ok = self.l1_mshrs.try_allocate(line, fill_at);
            debug_assert!(ok);
            return AccessOutcome::Pending(fill_at);
        }
        if self.l2_mshrs.is_full() {
            return AccessOutcome::MshrFull;
        }
        self.l1d.lookup(addr); // counts the L1 miss
        self.l2.lookup(addr); // counts the L2 miss
        let fill_at = now + l1_l2 + self.memory_latency;
        let ok = self.l2_mshrs.try_allocate(line, fill_at);
        debug_assert!(ok);
        let ok = self.l1_mshrs.try_allocate(line, fill_at);
        debug_assert!(ok);
        self.train_prefetcher(pc, addr, now);
        AccessOutcome::Pending(fill_at)
    }

    /// Trains the stride table on a demand access and, when it predicts,
    /// converts the prediction into a line fill through the normal MSHR
    /// path. Prefetches never refuse — when no MSHR is free they are
    /// dropped — and never touch demand hit/miss counters.
    fn train_prefetcher(&mut self, pc: u64, addr: u64, now: u64) {
        if !self.prefetcher.enabled() {
            return;
        }
        let Some(target) = self.prefetcher.train(pc, addr) else {
            return;
        };
        let line = self.line_of(target);
        if line == self.line_of(addr)
            || self.l1d.contains(target)
            || self.l1_mshrs.pending(line).is_some()
            || self.l1_mshrs.is_full()
        {
            return;
        }
        let l1_l2 = self.l1d.latency() + self.l2.latency();
        if self.l2.contains(target) {
            self.l1_mshrs.try_allocate(line, now + l1_l2);
        } else if let Some(l2_fill) = self.l2_mshrs.pending(line) {
            self.l1_mshrs.try_allocate(line, l2_fill.max(now + l1_l2));
        } else if !self.l2_mshrs.is_full() {
            let fill_at = now + l1_l2 + self.memory_latency;
            self.l2_mshrs.try_allocate(line, fill_at);
            self.l1_mshrs.try_allocate(line, fill_at);
        } else {
            return;
        }
        self.prefetch_fills += 1;
    }

    /// Executed-store access through the non-blocking model: the
    /// write-buffer-aware sibling of
    /// [`MemoryHierarchy::data_access_nonblocking`]. The buffer entry is
    /// reserved *before* the cache access, so every refusal
    /// ([`StoreOutcome::WriteBufFull`] / [`StoreOutcome::MshrFull`] /
    /// [`StoreOutcome::PortBusy`]) leaves the hierarchy untouched and the
    /// store can retry verbatim next cycle. An accepted store's drain
    /// completes when its line is writable (L1 hit latency, or the fill
    /// cycle of its miss), serialized behind older buffered stores.
    pub fn store_access_nonblocking(&mut self, addr: u64, pc: u64, now: u64) -> StoreOutcome {
        debug_assert!(self.realistic);
        if self.write_buffer.enabled() && self.write_buffer.is_full_at(now) {
            self.write_buffer.note_rejected();
            return StoreOutcome::WriteBufFull;
        }
        match self.data_access_nonblocking(addr, true, pc, now) {
            AccessOutcome::MshrFull => StoreOutcome::MshrFull,
            AccessOutcome::PortBusy => StoreOutcome::PortBusy,
            AccessOutcome::Ready(lat) => {
                if self.write_buffer.enabled() {
                    self.write_buffer.push(now, now + lat);
                }
                StoreOutcome::Accepted
            }
            AccessOutcome::Pending(fill_at) => {
                if self.write_buffer.enabled() {
                    self.write_buffer.push(now, fill_at);
                }
                StoreOutcome::Accepted
            }
        }
    }

    /// Instruction fetch through the non-blocking model: the I-side
    /// sibling of [`MemoryHierarchy::data_access_nonblocking`]. I-misses
    /// occupy [`MemConfig::i_mshrs`] entries (coalescing on lines) and
    /// fill through the shared L2 MSHRs; each accepted access also tries a
    /// next-line prefetch ([`MemConfig::iprefetch`]). Refusals change
    /// nothing and can be retried verbatim.
    pub fn fetch_access_nonblocking(&mut self, addr: u64, now: u64) -> AccessOutcome {
        debug_assert!(self.realistic);
        self.drain_fills(now);
        let line = self.line_of(addr);
        if self.icache.contains(addr) {
            self.icache.lookup(addr);
            self.prefetch_next_iline(addr, now);
            return AccessOutcome::Ready(self.icache.latency());
        }
        if let Some(fill_at) = self.i_mshrs.pending(line) {
            self.i_mshrs.note_coalesced();
            return AccessOutcome::Pending(fill_at);
        }
        // A fresh I-MSHR (and possibly an L2 one) is needed; refuse before
        // touching any counter if either is unavailable.
        if self.i_mshrs.is_full() {
            return AccessOutcome::MshrFull;
        }
        let i_l2 = self.icache.latency() + self.l2.latency();
        if self.l2.contains(addr) {
            self.icache.lookup(addr); // counts the I-miss
            self.l2.lookup(addr); // counts the L2 hit, refreshes LRU
            let fill_at = now + i_l2;
            let ok = self.i_mshrs.try_allocate(line, fill_at);
            debug_assert!(ok);
            self.prefetch_next_iline(addr, now);
            return AccessOutcome::Pending(fill_at);
        }
        if let Some(l2_fill) = self.l2_mshrs.pending(line) {
            // Coalesce at L2 (the fill may have been started by the data
            // side — the L2 is unified).
            self.l2_mshrs.note_coalesced();
            self.icache.lookup(addr); // counts the I-miss
            let fill_at = l2_fill.max(now + i_l2);
            let ok = self.i_mshrs.try_allocate(line, fill_at);
            debug_assert!(ok);
            return AccessOutcome::Pending(fill_at);
        }
        if self.l2_mshrs.is_full() {
            return AccessOutcome::MshrFull;
        }
        self.icache.lookup(addr); // counts the I-miss
        self.l2.lookup(addr); // counts the L2 miss
        let fill_at = now + i_l2 + self.memory_latency;
        let ok = self.l2_mshrs.try_allocate(line, fill_at);
        debug_assert!(ok);
        let ok = self.i_mshrs.try_allocate(line, fill_at);
        debug_assert!(ok);
        self.prefetch_next_iline(addr, now);
        AccessOutcome::Pending(fill_at)
    }

    /// Starts a fill for the line after `addr` through the I-MSHR path.
    /// Like data prefetches it never refuses — when no MSHR is free it is
    /// dropped — and never touches demand hit/miss counters.
    fn prefetch_next_iline(&mut self, addr: u64, now: u64) {
        if !self.iprefetch {
            return;
        }
        let line_bytes = self.icache.line_bytes() as u64;
        let target = (self.line_of(addr) + 1) * line_bytes;
        let line = self.line_of(target);
        if self.icache.contains(target)
            || self.i_mshrs.pending(line).is_some()
            || self.i_mshrs.is_full()
        {
            return;
        }
        let i_l2 = self.icache.latency() + self.l2.latency();
        if self.l2.contains(target) {
            self.i_mshrs.try_allocate(line, now + i_l2);
        } else if let Some(l2_fill) = self.l2_mshrs.pending(line) {
            self.i_mshrs.try_allocate(line, l2_fill.max(now + i_l2));
        } else if !self.l2_mshrs.is_full() {
            let fill_at = now + i_l2 + self.memory_latency;
            self.l2_mshrs.try_allocate(line, fill_at);
            self.i_mshrs.try_allocate(line, fill_at);
        } else {
            return;
        }
        self.iprefetch_fills += 1;
    }

    /// Any instruction fill still outstanding at `now`? (Drives the
    /// `imiss-pending` cycle-accounting cause.)
    #[must_use]
    pub fn ifill_pending_at(&self, now: u64) -> bool {
        self.i_mshrs.busy(now)
    }

    /// Cancels in-flight instruction fills on a pipeline squash: every
    /// still-pending I-MSHR entry except the one covering `resume_addr`
    /// (which the redirected fetch still wants) is dropped and counted in
    /// [`MemoryHierarchy::wrong_path_fills`]. The underlying L2 fills are
    /// *not* recalled — the request already left for memory, so the line
    /// still lands in the L2, just no longer in the I-cache. No-op in the
    /// flat model. Returns the number of fills cancelled.
    pub fn squash_wrong_path_ifills(&mut self, now: u64, resume_addr: u64) -> u64 {
        if !self.realistic {
            return 0;
        }
        let keep = self.line_of(resume_addr);
        let dropped = self.i_mshrs.cancel_pending_if(now, |line| line != keep);
        self.wrong_path_fills += dropped;
        dropped
    }

    /// Instruction fills cancelled as wrong-path on squashes.
    #[must_use]
    pub fn wrong_path_fills(&self) -> u64 {
        self.wrong_path_fills
    }

    /// Demand accesses refused with [`AccessOutcome::PortBusy`].
    #[must_use]
    pub fn port_rejections(&self) -> u64 {
        self.port_rejections
    }

    /// (refused-as-full, accepted) store counts of the write buffer.
    #[must_use]
    pub fn write_buffer_stats(&self) -> (u64, u64) {
        (self.write_buffer.full_rejections(), self.write_buffer.accepted())
    }

    /// Write-buffer entries still draining at `now` — test/diagnostic.
    pub fn write_buffer_occupancy_at(&mut self, now: u64) -> usize {
        self.write_buffer.occupancy_at(now)
    }

    /// I-MSHR occupancy right now — test/diagnostic hook.
    #[must_use]
    pub fn i_mshr_occupancy(&self) -> usize {
        self.i_mshrs.occupancy()
    }

    /// I-side misses that coalesced onto an already-pending I-fill.
    #[must_use]
    pub fn i_coalesced_misses(&self) -> u64 {
        self.i_mshrs.coalesced()
    }

    /// Next-line instruction-prefetch fills issued into the I-MSHRs.
    #[must_use]
    pub fn iprefetch_fills(&self) -> u64 {
        self.iprefetch_fills
    }

    /// (L1, L2) MSHR occupancy right now — test/diagnostic hook.
    #[must_use]
    pub fn mshr_occupancy(&self) -> (usize, usize) {
        (self.l1_mshrs.occupancy(), self.l2_mshrs.occupancy())
    }

    /// Misses that coalesced onto an already-pending fill, per level.
    #[must_use]
    pub fn coalesced_misses(&self) -> (u64, u64) {
        (self.l1_mshrs.coalesced(), self.l2_mshrs.coalesced())
    }

    /// Prefetch fills issued into the MSHRs.
    #[must_use]
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Accounts one memory-level miss issued at `now`, returning its
    /// effective latency after MSHR queueing.
    fn memory_miss(&mut self, now: u64) -> u64 {
        if self.max_outstanding == 0 {
            return self.memory_latency;
        }
        self.outstanding.retain(|&t| t > now);
        let start = if self.outstanding.len() >= self.max_outstanding {
            // Oldest outstanding miss must complete before this one can
            // allocate an MSHR.
            let k = self.outstanding.len() + 1 - self.max_outstanding;
            self.outstanding[k - 1].max(now)
        } else {
            now
        };
        let done = start + self.memory_latency;
        self.outstanding.push(done);
        self.outstanding.sort_unstable();
        done - now
    }

    /// Instruction fetch of the line containing `addr`; returns latency in
    /// cycles. `now` is the current cycle, used for MSHR accounting.
    pub fn fetch_access_at(&mut self, addr: u64, now: u64) -> u64 {
        let mut lat = self.icache.latency();
        if !self.icache.access(addr) {
            lat += self.l2.latency();
            if !self.l2.access(addr) {
                lat += self.memory_miss(now + lat);
            }
        }
        lat
    }

    /// Data access (load or store — write-allocate makes them identical for
    /// timing); returns latency in cycles. `now` is the current cycle.
    pub fn data_access_at(&mut self, addr: u64, _is_write: bool, now: u64) -> u64 {
        let mut lat = self.l1d.latency();
        if !self.l1d.access(addr) {
            lat += self.l2.latency();
            if !self.l2.access(addr) {
                lat += self.memory_miss(now + lat);
            }
        }
        lat
    }

    /// Statistics for (icache, l1d, l2).
    #[must_use]
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.icache.stats(), self.l1d.stats(), self.l2.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_composition() {
        let mut m = MemoryHierarchy::new(MemConfig::default());
        // Cold: L1 miss + L2 miss + memory.
        assert_eq!(m.data_access_at(0x4000, false, 0), 2 + 6 + 300);
        // Warm L1.
        assert_eq!(m.data_access_at(0x4000, false, 0), 2);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        // Tiny L1 (1 set × 1 way), big L2.
        let cfg = MemConfig {
            l1d: CacheConfig {
                size_bytes: 64,
                ways: 1,
                line_bytes: 64,
                latency: 2,
            },
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        m.data_access_at(0x0, false, 0); // miss both
        m.data_access_at(0x40, false, 0); // evicts 0x0 from L1, fills L2
        // 0x0: L1 miss, L2 hit.
        assert_eq!(m.data_access_at(0x0, false, 0), 2 + 6);
    }

    #[test]
    fn fetch_and_data_share_l2() {
        let mut m = MemoryHierarchy::new(MemConfig::default());
        m.fetch_access_at(0x8000, 0); // fills L2 line
        // Data access to same line: L1D miss but L2 hit.
        assert_eq!(m.data_access_at(0x8000, false, 0), 2 + 6);
    }
}

#[cfg(test)]
mod mshr_tests {
    use super::*;

    #[test]
    fn unlimited_mshrs_overlap_everything() {
        let mut m = MemoryHierarchy::new(MemConfig::default());
        for k in 0..8u64 {
            assert_eq!(m.data_access_at(0x10_0000 + k * 4096, false, 0), 308);
        }
    }

    #[test]
    fn finite_mshrs_queue_excess_misses() {
        let cfg = MemConfig {
            max_outstanding_misses: 2,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        // Three simultaneous misses: the third queues behind the first.
        let a = m.data_access_at(0x10_0000, false, 0);
        let b = m.data_access_at(0x20_0000, false, 0);
        let c = m.data_access_at(0x30_0000, false, 0);
        assert_eq!(a, 308);
        assert_eq!(b, 308);
        assert!(c > 308 + 290, "third miss must wait for an MSHR: {c}");
        // Once time passes, MSHRs free up.
        let d = m.data_access_at(0x40_0000, false, 2000);
        assert_eq!(d, 308);
    }

    #[test]
    fn nonblocking_cold_miss_fills_at_full_latency() {
        let cfg = MemConfig {
            realistic: true,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        match m.data_access_nonblocking(0x4000, false, 1, 0) {
            AccessOutcome::Pending(fill) => assert_eq!(fill, 2 + 6 + 300),
            other => panic!("cold miss must be pending: {other:?}"),
        }
        // Same line before the fill: coalesced, same fill cycle, one MSHR.
        match m.data_access_nonblocking(0x4008, false, 2, 10) {
            AccessOutcome::Pending(fill) => assert_eq!(fill, 308),
            other => panic!("same-line miss must coalesce: {other:?}"),
        }
        assert_eq!(m.mshr_occupancy(), (1, 1));
        assert_eq!(m.coalesced_misses().0, 1);
        // After the fill lands the line is resident.
        match m.data_access_nonblocking(0x4000, false, 1, 308) {
            AccessOutcome::Ready(lat) => assert_eq!(lat, 2),
            other => panic!("filled line must hit: {other:?}"),
        }
        assert_eq!(m.mshr_occupancy(), (0, 0));
    }

    #[test]
    fn nonblocking_refuses_when_mshrs_full_without_side_effects() {
        let cfg = MemConfig {
            realistic: true,
            l1_mshrs: 2,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        assert!(matches!(m.data_access_nonblocking(0x1000, false, 1, 0), AccessOutcome::Pending(_)));
        assert!(matches!(m.data_access_nonblocking(0x2000, false, 2, 0), AccessOutcome::Pending(_)));
        let stats_before = m.stats();
        assert_eq!(m.data_access_nonblocking(0x3000, false, 3, 0), AccessOutcome::MshrFull);
        assert_eq!(m.stats(), stats_before, "a refused access must not count");
        assert_eq!(m.mshr_occupancy().0, 2);
        // Once the fills land, the refused access goes through.
        assert!(matches!(
            m.data_access_nonblocking(0x3000, false, 3, 400),
            AccessOutcome::Pending(_)
        ));
    }

    #[test]
    fn nonblocking_l2_hit_fills_fast() {
        let cfg = MemConfig {
            realistic: true,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        m.fetch_access_at(0x8000, 0); // fills the L2 line via the I-side
        match m.data_access_nonblocking(0x8000, false, 1, 100) {
            AccessOutcome::Pending(fill) => assert_eq!(fill, 100 + 2 + 6),
            other => panic!("L2 hit must fill at L1+L2 latency: {other:?}"),
        }
    }

    #[test]
    fn stride_prefetcher_hides_the_next_line() {
        let cfg = MemConfig {
            realistic: true,
            prefetch_entries: 16,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        // A constant 64-byte stride from one PC; let each fill land before
        // the next access so training sees clean demand hits/misses.
        let mut now = 0;
        for i in 0..8u64 {
            m.data_access_nonblocking(0x10_0000 + i * 64, false, 7, now);
            now += 400;
        }
        assert!(m.prefetch_fills() > 0, "a unit-stride stream must trigger prefetches");
        // The line after the last access should already be resident or
        // pending thanks to the prefetcher.
        match m.data_access_nonblocking(0x10_0000 + 8 * 64, false, 7, now) {
            AccessOutcome::Ready(_) => {}
            AccessOutcome::Pending(fill) => {
                assert!(fill < now + 308, "prefetched line must fill early: {fill} vs {now}");
            }
            AccessOutcome::MshrFull => panic!("prefetch must not exhaust MSHRs here"),
            AccessOutcome::PortBusy => panic!("ports are unlimited here"),
        }
    }

    #[test]
    fn nonblocking_fetch_cold_miss_prefetches_next_line() {
        let cfg = MemConfig {
            realistic: true,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        match m.fetch_access_nonblocking(0x4000, 0) {
            AccessOutcome::Pending(fill) => assert_eq!(fill, 2 + 6 + 300),
            other => panic!("cold I-miss must be pending: {other:?}"),
        }
        // The next line rides the I-prefetch: one demand entry + one
        // prefetch entry in the I-MSHRs.
        assert_eq!(m.i_mshr_occupancy(), 2);
        assert_eq!(m.iprefetch_fills(), 1);
        // A fetch into the prefetched line before its fill coalesces.
        match m.fetch_access_nonblocking(0x4040, 10) {
            AccessOutcome::Pending(_) => {}
            other => panic!("prefetched line must be pending: {other:?}"),
        }
        assert_eq!(m.i_coalesced_misses(), 1);
        // After the fills land, both lines hit.
        match m.fetch_access_nonblocking(0x4000, 400) {
            AccessOutcome::Ready(lat) => assert_eq!(lat, 2),
            other => panic!("filled line must hit: {other:?}"),
        }
        match m.fetch_access_nonblocking(0x4040, 400) {
            AccessOutcome::Ready(_) => {}
            other => panic!("prefetched line must hit: {other:?}"),
        }
    }

    #[test]
    fn nonblocking_fetch_refuses_without_side_effects_when_i_mshrs_full() {
        let cfg = MemConfig {
            realistic: true,
            i_mshrs: 1,
            iprefetch: false,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        assert!(matches!(m.fetch_access_nonblocking(0x1000, 0), AccessOutcome::Pending(_)));
        let stats_before = m.stats();
        assert_eq!(m.fetch_access_nonblocking(0x2000, 1), AccessOutcome::MshrFull);
        assert_eq!(m.stats(), stats_before, "a refused fetch must not count");
        assert_eq!(m.i_mshr_occupancy(), 1);
        // Once the fill lands the refused fetch goes through.
        assert!(matches!(
            m.fetch_access_nonblocking(0x2000, 400),
            AccessOutcome::Pending(_)
        ));
    }

    #[test]
    fn fetch_and_data_misses_share_the_l2_mshrs() {
        let cfg = MemConfig {
            realistic: true,
            iprefetch: false,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        // Data side starts the line fill; the I-side coalesces on it at L2.
        let AccessOutcome::Pending(data_fill) = m.data_access_nonblocking(0x8000, false, 1, 0)
        else {
            panic!("cold data miss must be pending");
        };
        match m.fetch_access_nonblocking(0x8000, 5) {
            AccessOutcome::Pending(ifill) => assert!(
                ifill >= data_fill,
                "I-side fill {ifill} must not undercut the L2 fill {data_fill}"
            ),
            other => panic!("I-fetch must coalesce on the L2 fill: {other:?}"),
        }
        assert_eq!(m.coalesced_misses().1, 1, "one L2-level coalesce");
    }

    #[test]
    fn squash_cancels_pending_ifills_except_the_resume_line() {
        let cfg = MemConfig {
            realistic: true,
            iprefetch: false,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        assert!(matches!(m.fetch_access_nonblocking(0x1000, 0), AccessOutcome::Pending(_)));
        assert!(matches!(m.fetch_access_nonblocking(0x2000, 1), AccessOutcome::Pending(_)));
        assert_eq!(m.i_mshr_occupancy(), 2);
        // Squash at cycle 10, resuming inside the 0x2000 line: the 0x1000
        // fill is wrong-path and cancelled, the resume line survives.
        assert_eq!(m.squash_wrong_path_ifills(10, 0x2010), 1);
        assert_eq!(m.wrong_path_fills(), 1);
        assert_eq!(m.i_mshr_occupancy(), 1);
        // The cancelled line never installs in the I-cache; refetching it
        // restarts from the (still-landing) L2 fill, not a fresh 300-cycle
        // round trip.
        match m.fetch_access_nonblocking(0x1000, 20) {
            AccessOutcome::Pending(fill) => assert_eq!(fill, 308.max(20 + 2 + 6)),
            other => panic!("refetch after cancel: {other:?}"),
        }
    }

    #[test]
    fn write_buffer_full_refuses_stores_until_a_drain_completes() {
        let cfg = MemConfig {
            realistic: true,
            write_buffer_entries: 2,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        // Two cold stores fill the buffer (their drains wait ~308 cycles).
        assert_eq!(m.store_access_nonblocking(0x10_0000, 1, 0), StoreOutcome::Accepted);
        assert_eq!(m.store_access_nonblocking(0x20_0000, 2, 1), StoreOutcome::Accepted);
        assert_eq!(m.write_buffer_occupancy_at(2), 2);
        assert_eq!(m.store_access_nonblocking(0x30_0000, 3, 2), StoreOutcome::WriteBufFull);
        assert_eq!(m.write_buffer_stats().0, 1);
        // Once the first drain lands, the store is accepted.
        assert_eq!(m.store_access_nonblocking(0x30_0000, 3, 400), StoreOutcome::Accepted);
    }

    #[test]
    fn data_ports_serialize_same_cycle_accesses() {
        let cfg = MemConfig {
            realistic: true,
            data_ports: 2,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        assert!(matches!(m.data_access_nonblocking(0x1000, false, 1, 7), AccessOutcome::Pending(_)));
        assert!(matches!(m.data_access_nonblocking(0x2000, false, 2, 7), AccessOutcome::Pending(_)));
        let stats_before = m.stats();
        assert_eq!(
            m.data_access_nonblocking(0x3000, false, 3, 7),
            AccessOutcome::PortBusy,
            "third same-cycle access must be refused"
        );
        assert_eq!(m.stats(), stats_before, "a port-refused access must not count");
        assert_eq!(m.port_rejections(), 1);
        // Next cycle the ports are free again.
        assert!(matches!(m.data_access_nonblocking(0x3000, false, 3, 8), AccessOutcome::Pending(_)));
    }

    #[test]
    fn mshr_queue_drains_in_order() {
        let cfg = MemConfig {
            max_outstanding_misses: 1,
            ..MemConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        let a = m.data_access_at(0x10_0000, false, 0);
        let b = m.data_access_at(0x20_0000, false, 0);
        let c = m.data_access_at(0x30_0000, false, 0);
        // Fully serialized: each waits for the previous.
        assert_eq!(a, 308);
        assert!(b >= 300 + 300 && c >= b + 290, "serial misses: {a} {b} {c}");
    }
}
