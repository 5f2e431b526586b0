//! Cycle accounting and the idle fast-forward. Every cycle is charged to
//! exactly one [`crate::CycleAccounting`] cause, and every zero-fetch cycle
//! to one `SimStats::fetch_idle_*` cause. [`Lane::inert_until`] finds runs
//! of cycles in which no stage can act, and [`Lane::skip_inert_cycles`]
//! jumps over them, charging them through the same classifiers.

use super::fetch::StallReason;
use super::{Lane, F_DONE, F_RESOLVED, META_BRANCH};
use crate::decode::DecodedProgram;

impl Lane {
    /// Charges `k` zero-fetch cycles to `fetch_idle_cycles` and splits them
    /// by cause (`SimStats::fetch_idle_*`). The four split counters always
    /// sum to `fetch_idle_cycles`.
    #[inline]
    pub(super) fn account_fetch_idle(&mut self, k: u64) {
        self.stats.fetch_idle_cycles += k;
        if self.fetch_blocked {
            self.stats.fetch_idle_blocked += k;
        } else if self.cycle < self.fetch_stall_until {
            match self.fetch_stall_reason {
                StallReason::IMiss => self.stats.fetch_idle_imiss += k,
                StallReason::Redirect => self.stats.fetch_idle_redirect += k,
            }
        } else if self.fe_queue.len() >= self.fetch_queue_cap {
            self.stats.fetch_idle_queue_full += k;
        } else {
            // An I-miss stall armed during this cycle's own fetch attempt
            // lands in the branch above; anything left is a same-cycle
            // redirect bubble.
            self.stats.fetch_idle_redirect += k;
        }
    }

    /// Charges `k` cycles, classified as the current one, to exactly one
    /// [`crate::CycleAccounting`] category (top-down: what retired, else
    /// why nothing did).
    #[inline]
    pub(super) fn account_cycle(&mut self, retired_any: bool, k: u64) {
        let acc = &mut self.stats.cycle_accounting;
        if retired_any {
            if self.cyc_retired_useful {
                acc.useful_retire += k;
            } else if self.cyc_retired_guard_false {
                acc.guard_false_retire += k;
            } else {
                acc.select_uop_retire += k;
            }
            return;
        }
        if !self.rob.is_empty() {
            // Something is in flight but the head cannot retire yet. The
            // memory causes only fire under the non-blocking hierarchy:
            // `cyc_mshr_stalled`/`cyc_writebuf_stalled` are set when an
            // issue was refused this cycle, and `fill_pending_at` is true
            // while a line fill is in flight. All stay false under the flat
            // model.
            if self.cyc_mshr_stalled {
                acc.mshr_full += k;
            } else if self.cyc_writebuf_stalled {
                acc.writebuf_full += k;
            } else if self.rob.len() >= self.cfg.rob_size {
                acc.rob_stall += k;
            } else if self.mem.fill_pending_at(self.cycle) {
                acc.miss_pending += k;
            } else {
                acc.exec_wait += k;
            }
            return;
        }
        let in_flush_shadow = self
            .last_flush_cycle
            .is_some_and(|c| self.cycle <= c + self.cfg.pipeline_depth + 1);
        if in_flush_shadow {
            acc.flush_recovery += k;
        } else if self.cycle < self.fetch_stall_until
            && self.fetch_stall_reason == StallReason::IMiss
            && !self.fetch_blocked
        {
            // Non-blocking I-fills in flight get their own cause; flat
            // I-miss stalls keep `fetch_imiss`.
            if self.mem.ifill_pending_at(self.cycle) {
                acc.imiss_pending += k;
            } else {
                acc.fetch_imiss += k;
            }
        } else if !self.fe_queue.is_empty() || self.fetch_blocked {
            acc.frontend_fill += k;
        } else {
            acc.fetch_redirect += k;
        }
    }

    /// If no pipeline stage can change any state this cycle, returns the
    /// earliest future cycle at which one could (clamped to `max_cycles`);
    /// `None` when the machine would act right now.
    ///
    /// The reasoning, stage by stage, given an empty ready set (so issue
    /// has nothing to select and every non-issued ROB entry is waiting on
    /// a producer whose completion event is scheduled in the calendar):
    ///
    /// * *resolve* acts no earlier than `next_resolve`;
    /// * *retire* is gated on the head's `ready_cycle` (time), on resolve
    ///   (bounded by `next_resolve`), or on issue (bounded by the event
    ///   calendar);
    /// * *issue* acts no earlier than the next calendar event;
    /// * *dispatch* is gated on the front µop's pipeline-depth timer or on
    ///   retire freeing ROB space;
    /// * *fetch* is gated on its stall timer, on a flush (via resolve), or
    ///   on dispatch draining the front-end queue.
    ///
    /// The returned cycle is additionally bounded by the points where the
    /// per-cycle idle *classification* could change (flush-shadow end and
    /// MSHR fill expiry), so every skipped cycle provably classifies — and
    /// therefore counts — exactly as if it had been executed. In
    /// particular the wake cycle never exceeds `fetch_stall_until`, the
    /// demand I-fill's arrival, so the I-MSHR entry behind an
    /// `imiss_pending` charge stays busy for every skipped cycle.
    #[inline]
    pub(super) fn inert_until(&self, d: &DecodedProgram) -> Option<u64> {
        if self.cal.has_ready() {
            return None; // something issues this cycle
        }
        let mut wake = self.next_resolve;
        if wake <= self.cycle {
            return None; // resolve may act this cycle
        }
        // Fetch.
        if !self.fetch_blocked {
            if self.cycle < self.fetch_stall_until {
                wake = wake.min(self.fetch_stall_until);
            } else if self.fe_queue.len() < self.fetch_queue_cap {
                return None; // fetch would fetch
            }
        }
        // Dispatch.
        if let Some(&front) = self.fe_queue.front() {
            let eligible = self.slots[front as usize].fetch_cycle + self.cfg.pipeline_depth;
            if eligible > self.cycle {
                wake = wake.min(eligible);
            } else if self.rob.len() + self.rob_slots_needed(d, front) <= self.cfg.rob_size {
                return None; // dispatch would dispatch
            }
        }
        // Retire.
        if let Some(head) = self.rob.front() {
            if head.flags & F_DONE != 0 {
                if head.ready_cycle > self.cycle {
                    wake = wake.min(head.ready_cycle);
                } else if head.meta & META_BRANCH == 0 || head.flags & F_RESOLVED != 0 {
                    return None; // head retires this cycle
                }
            }
        }
        // Issue: the next scheduled completion event.
        match self.cal.next_event(self.cycle) {
            Some(c) if c <= self.cycle => return None, // events fire this cycle
            Some(c) => wake = wake.min(c),
            None => {}
        }
        // Idle-classification boundaries.
        if self.rob.is_empty() {
            if let Some(c) = self.last_flush_cycle {
                let shadow_end = c + self.cfg.pipeline_depth + 2;
                if self.cycle < shadow_end {
                    wake = wake.min(shadow_end);
                }
            }
        } else if self.rob.len() < self.cfg.rob_size {
            if let Some(f) = self.mem.next_fill_change_after(self.cycle) {
                wake = wake.min(f);
            }
        }
        wake = wake.min(self.cfg.max_cycles);
        (wake > self.cycle).then_some(wake)
    }

    /// Advances `cycle` by `k` provably-inert cycles, charging each the
    /// idle accounting an executed cycle would have produced. The
    /// classification inputs are constant across the window by
    /// construction of [`Lane::inert_until`]; the two memory-refusal flags
    /// describe the last executed cycle's issue, and nothing issues here.
    #[inline]
    pub(super) fn skip_inert_cycles(&mut self, k: u64) {
        self.stats.retire_idle_cycles += k;
        self.stats.dispatch_idle_cycles += k;
        self.cyc_mshr_stalled = false;
        self.cyc_writebuf_stalled = false;
        self.account_fetch_idle(k);
        self.account_cycle(false, k);
        self.cycle += k;
    }
}
