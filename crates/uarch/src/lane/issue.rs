//! Issue and execute: fire the completion events due this cycle (waking
//! dependents), then select up to the issue width of ready µops oldest
//! first, holding loads behind older unexecuted stores unless the store
//! queue forwards them, and charge each µop its execution latency through
//! the memory hierarchy.

use super::rename::{Role, WaiterList, WAITERS_INLINE};
use super::{Lane, F_DONE, F_EVENT, F_ISSUED, META_BRANCH, META_CLASS, META_PREDCHK};
use crate::decode::{DecodedProgram, EC_DIV, EC_LOAD, EC_MUL, EC_UNIT};
use crate::trace::TraceKind;
use wishbranch_mem::{AccessOutcome, StoreOutcome};

/// Store-to-load-forwarding verdict for a ready load (see
/// [`Lane::forward_state`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ForwardState {
    /// Fully covered by the youngest older overlapping store whose data
    /// is ready: take the value from the store queue at L1-hit latency.
    Forward,
    /// Partially covered: conservative replay — wait until the store
    /// drains and read from the cache.
    PartialOverlap,
    /// No older in-flight store overlaps (or forwarding is off).
    NoMatch,
}

impl Lane {
    fn store_executed(&self, id: u64) -> bool {
        if self.rob.is_empty() || id < self.front_id {
            return true; // retired
        }
        let e = &self.rob[(id - self.front_id) as usize];
        e.flags & F_DONE != 0 && e.ready_cycle <= self.cycle
    }

    #[inline]
    pub(super) fn issue(&mut self, d: &DecodedProgram) {
        // Fire the completion events due this cycle, waking dependents.
        // Within-cycle order is free: wakeups only decrement counters and
        // set ready bits, both order-independent.
        let mut due = std::mem::take(&mut self.due);
        self.cal.drain_due(self.cycle, &mut due);
        for &id in &due {
            self.wake(id);
        }
        due.clear();
        self.due = due;
        // Oldest not-yet-executed store (conservative load/store ordering).
        while let Some(&sid) = self.store_queue.front() {
            if self.store_executed(sid) {
                self.store_queue.pop_front();
            } else {
                break;
            }
        }
        let store_limit = self.store_queue.front().copied();

        let mut issued = 0;
        debug_assert!(self.blocked_loads.is_empty());
        while issued < self.cfg.issue_width {
            let Some(id) = self.cal.pop_oldest(self.front_id) else {
                break;
            };
            let idx = (id - self.front_id) as usize;
            let e = &self.rob[idx];
            debug_assert!(e.flags & F_ISSUED == 0 && e.unready == 0);
            let is_load = e.meta & META_CLASS == EC_LOAD;
            if is_load && store_limit.is_some_and(|limit| id > limit) {
                match self.forward_state(idx) {
                    ForwardState::Forward => {}
                    ForwardState::PartialOverlap => {
                        self.stats.load_replays += 1;
                        self.blocked_loads.push(id);
                        continue;
                    }
                    ForwardState::NoMatch => {
                        self.blocked_loads.push(id);
                        continue;
                    }
                }
            }
            let Some(lat) = self.exec_latency(idx) else {
                // The memory access could not be accepted this cycle —
                // MSHRs, write buffer or ports all busy; `exec_latency`
                // recorded which. Retry next cycle without consuming
                // issue bandwidth (mirrors blocked loads).
                self.blocked_loads.push(id);
                continue;
            };
            let ready_cycle = self.cycle + lat;
            if self.trace.is_some() {
                self.trace_event(d, TraceKind::Issue, self.rob[idx].slot, ready_cycle);
            }
            let e = &mut self.rob[idx];
            e.flags |= F_ISSUED | F_DONE;
            e.ready_cycle = ready_cycle;
            // Lazy events: schedule a wakeup only if someone is waiting
            // (later registrants schedule it themselves at dispatch).
            if e.waiters.len > 0 {
                e.flags |= F_EVENT;
                self.cal.push(self.cycle, ready_cycle, id);
            }
            if e.role == Role::Whole && e.meta & (META_BRANCH | META_PREDCHK) != 0 {
                self.next_resolve = self.next_resolve.min(ready_cycle);
            }
            issued += 1;
        }
        // Blocked loads stay ready; they compete again next cycle.
        while let Some(id) = self.blocked_loads.pop() {
            self.cal.set(id);
        }
    }

    fn exec_latency(&mut self, idx: usize) -> Option<u64> {
        let e = &self.rob[idx];
        // The common single-cycle classes never touch the µop slot.
        match e.meta & META_CLASS {
            EC_UNIT => return Some(1),
            EC_MUL => return Some(self.cfg.mul_latency),
            EC_DIV => return Some(self.cfg.div_latency),
            _ => {}
        }
        let is_load = e.meta & META_CLASS == EC_LOAD;
        let role = e.role;
        let pc = e.pc;
        let (guard_true, mem_addr) = {
            let s = &self.slots[e.slot as usize];
            (s.info.guard_true, s.info.mem_addr)
        };
        if is_load {
            if let Some(addr) = mem_addr.filter(|_| role.accesses_mem(guard_true)) {
                if self.cfg.mem.store_forwarding
                    && matches!(self.forward_state(idx), ForwardState::Forward)
                {
                    self.stats.store_forwards += 1;
                    return Some(1 + self.cfg.mem.l1d.latency);
                }
                if self.mem.realistic() {
                    return match self.mem.data_access_nonblocking(
                        addr,
                        false,
                        u64::from(pc),
                        self.cycle,
                    ) {
                        AccessOutcome::Ready(lat) => Some(1 + lat),
                        AccessOutcome::Pending(fill) => {
                            Some(1 + fill.saturating_sub(self.cycle).max(1))
                        }
                        AccessOutcome::MshrFull => {
                            self.cyc_mshr_stalled = true;
                            self.stats.mshr_full_stalls += 1;
                            None
                        }
                        AccessOutcome::PortBusy => {
                            self.stats.port_conflict_stalls += 1;
                            None
                        }
                    };
                }
                return Some(1 + self.mem.data_access_at(addr, false, self.cycle));
            }
            Some(1)
        } else {
            // Store.
            if let Some(addr) = mem_addr.filter(|_| guard_true && role != Role::Select) {
                if self.mem.realistic() {
                    // Write-allocate: the store needs an MSHR on a
                    // miss like a load, plus (when enabled) a free
                    // write-buffer entry to drain through. Once
                    // accepted it completes in one cycle — the drain
                    // continues asynchronously behind it.
                    match self
                        .mem
                        .store_access_nonblocking(addr, u64::from(pc), self.cycle)
                    {
                        StoreOutcome::Accepted => {}
                        StoreOutcome::WriteBufFull => {
                            self.cyc_writebuf_stalled = true;
                            self.stats.writebuf_full_stalls += 1;
                            return None;
                        }
                        StoreOutcome::MshrFull => {
                            self.cyc_mshr_stalled = true;
                            self.stats.mshr_full_stalls += 1;
                            return None;
                        }
                        StoreOutcome::PortBusy => {
                            self.stats.port_conflict_stalls += 1;
                            return None;
                        }
                    }
                } else {
                    self.mem.data_access_at(addr, true, self.cycle);
                }
            }
            Some(1)
        }
    }

    fn forward_state(&self, idx: usize) -> ForwardState {
        if !self.cfg.mem.store_forwarding {
            return ForwardState::NoMatch;
        }
        let e = &self.rob[idx];
        let s = &self.slots[e.slot as usize];
        let Some(la) = s
            .info
            .mem_addr
            .filter(|_| e.role.accesses_mem(s.info.guard_true))
        else {
            return ForwardState::NoMatch;
        };
        let id = self.front_id + idx as u64;
        for &sid in self.store_queue.iter().rev() {
            if sid >= id {
                continue; // younger than the load
            }
            let se = &self.rob[(sid - self.front_id) as usize];
            let ss = &self.slots[se.slot as usize];
            // Guard-false and select-placeholder stores write nothing.
            if !ss.info.guard_true || se.role == Role::Select {
                continue;
            }
            let Some(sa) = ss.info.mem_addr else { continue };
            if sa == la {
                if se.flags & F_ISSUED != 0 || se.unready == 0 {
                    return ForwardState::Forward;
                }
                return ForwardState::NoMatch;
            }
            if sa < la + 8 && la < sa + 8 {
                return ForwardState::PartialOverlap;
            }
        }
        ForwardState::NoMatch
    }

    /// Wakes every waiter in `w` and recycles its spill vector.
    #[inline]
    pub(super) fn wake_list(&mut self, w: WaiterList) {
        let inline = (w.len as usize).min(WAITERS_INLINE);
        for &id in w.inline[..inline].iter().chain(&w.spill) {
            self.dec_unready(id);
        }
        self.recycle_spill(w);
    }

    fn wake(&mut self, id: u64) {
        if self.rob.is_empty() || id < self.front_id {
            return; // retired: its waiters were already woken at retire
        }
        let idx = (id - self.front_id) as usize;
        debug_assert!(idx < self.rob.len(), "events are purged on flush");
        let w = std::mem::take(&mut self.rob[idx].waiters);
        self.wake_list(w);
    }

    #[inline]
    fn dec_unready(&mut self, id: u64) {
        debug_assert!(!self.rob.is_empty(), "waiters are live entries");
        let idx = (id - self.front_id) as usize;
        let e = &mut self.rob[idx];
        debug_assert!(e.unready > 0, "each registration decrements once");
        debug_assert!(e.flags & F_ISSUED == 0, "issued entries had no deps");
        e.unready -= 1;
        if e.unready == 0 {
            self.cal.set(id);
        }
    }
}
