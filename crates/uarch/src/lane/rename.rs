//! Dispatch and rename: µops leave the front-end queue once they have
//! spent the pipeline depth in flight, are renamed against the producer
//! maps, expand into compute + select µops under the select-µop mechanism
//! (§5.3.3), and enter the ROB with their unready-source count and waiter
//! registrations.

use super::{Lane, RobSlim, F_DONE, F_EVENT, F_ISSUED, META_BRANCH, META_PREDCHK};
use crate::config::{OracleConfig, PredMechanism};
use crate::decode::{DecodedProgram, PcInfo};
use crate::trace::TraceKind;

/// Role of a ROB entry under the select-µop mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Role {
    /// The whole architectural µop (C-style, or unguarded).
    Whole,
    /// Select-µop expansion: the unguarded compute part.
    Compute,
    /// Select-µop expansion: the select merging under the predicate.
    Select,
}

impl Role {
    /// Whether a load in this role reads memory: a whole load only when
    /// its guard holds, a compute half always, a select never.
    #[inline]
    pub(super) fn accesses_mem(self, guard_true: bool) -> bool {
        match self {
            Role::Whole => guard_true,
            Role::Compute => true,
            Role::Select => false,
        }
    }
}

/// Inline capacity of a [`WaiterList`]; spills go to a pooled `Vec`.
pub(super) const WAITERS_INLINE: usize = 4;

/// Consumers waiting on one producer's completion, in ascending ROB-id
/// order (ids only grow between flushes, and a flush truncates the tail).
/// Small-buffer inline; the rare spill vectors are recycled through
/// the lane's `waiter_pool` across flushes so steady state allocates
/// nothing per µop.
#[derive(Clone, Debug, Default)]
pub(super) struct WaiterList {
    pub(super) len: u32,
    pub(super) inline: [u64; WAITERS_INLINE],
    pub(super) spill: Vec<u64>,
}

impl WaiterList {
    pub(super) fn push(&mut self, id: u64) {
        let l = self.len as usize;
        if l < WAITERS_INLINE {
            self.inline[l] = id;
        } else {
            self.spill.push(id);
        }
        self.len += 1;
    }

    /// The next `push` would land in the spill vector.
    pub(super) fn will_spill(&self) -> bool {
        self.len as usize >= WAITERS_INLINE
    }

    /// Drops waiters with id > `boundary` (flush squash). The list is
    /// ascending, so squashed ids form the tail: first the spill vector's
    /// (which holds every waiter past the inline ones), then the inline
    /// array's.
    pub(super) fn truncate_above(&mut self, boundary: u64) {
        while self.spill.last().is_some_and(|&id| id > boundary) {
            self.spill.pop();
            self.len -= 1;
        }
        if self.spill.is_empty() {
            while self.len > 0 && self.inline[self.len as usize - 1] > boundary {
                self.len -= 1;
            }
        }
    }
}

/// How a guarded µop's predicate reaches it at rename.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GuardPlan {
    /// Unguarded.
    None,
    /// Guarded; producer already retired (value architecturally ready).
    Ready,
    /// Guarded; wait on this ROB producer.
    Wait(u64),
    /// Guarded; value known at rename (oracle or §3.5.3 elimination).
    Known(bool),
}

impl Lane {
    #[inline]
    pub(super) fn dispatch(&mut self, d: &DecodedProgram) {
        let mut dispatched = 0;
        while dispatched < self.cfg.issue_width {
            let Some(&front) = self.fe_queue.front() else {
                break;
            };
            if self.slots[front as usize].fetch_cycle + self.cfg.pipeline_depth > self.cycle {
                break;
            }
            let needed = self.rob_slots_needed(d, front);
            if self.rob.len() + needed > self.cfg.rob_size {
                break;
            }
            let slot = self.fe_queue.pop_front().expect("checked non-empty");
            self.rename_into_rob(d, slot);
            dispatched += needed;
        }
    }

    #[inline]
    pub(super) fn rob_slots_needed(&self, d: &DecodedProgram, slot: u32) -> usize {
        let s = &self.slots[slot as usize];
        if self.cfg.pred_mechanism == PredMechanism::SelectUop
            && s.guard_pred_elim.is_none()
            && d.pcs[s.pc as usize].select_expandable
        {
            2
        } else {
            1
        }
    }

    /// Pushes one ROB entry whose dependences are in `dep_scratch`.
    fn push_rob(&mut self, d: &DecodedProgram, slot: u32, role: Role) -> u64 {
        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Dispatch, slot, 0);
        }
        let id = self.front_id + self.rob.len() as u64;
        let mut unready = 0u32;
        let have_front = !self.rob.is_empty();
        let scratch = std::mem::take(&mut self.dep_scratch);
        for &dep in &scratch {
            if !have_front || dep < self.front_id {
                continue; // producer retired
            }
            let idx = (dep - self.front_id) as usize;
            let value_ready = match self.rob.get(idx) {
                Some(p) => p.flags & F_DONE != 0 && p.ready_cycle <= self.cycle,
                None => true,
            };
            if value_ready {
                continue;
            }
            let p = &mut self.rob[idx];
            if p.waiters.will_spill() && p.waiters.spill.capacity() == 0 {
                if let Some(v) = self.waiter_pool.pop() {
                    p.waiters.spill = v;
                }
            }
            p.waiters.push(id);
            // First waiter on an already-issued producer: schedule the
            // completion event it skipped at issue (lazy events).
            if p.flags & (F_ISSUED | F_EVENT) == F_ISSUED {
                p.flags |= F_EVENT;
                self.cal.push(self.cycle, p.ready_cycle, dep);
            }
            unready += 1;
        }
        self.dep_scratch = scratch;
        let (pc, pred_check) = {
            let s = &self.slots[slot as usize];
            (s.pc, s.pred_check)
        };
        let pi = &d.pcs[pc as usize];
        let unresolved = role == Role::Whole && (pi.is_branch || pred_check.is_some());
        let meta = pi.exec_class
            | if pi.is_branch { META_BRANCH } else { 0 }
            | if pred_check.is_some() {
                META_PREDCHK
            } else {
                0
            };
        self.rob.push_back(RobSlim {
            slot,
            pc,
            unready,
            meta,
            role,
            flags: 0,
            loop_class: 0,
            ready_cycle: 0,
            waiters: WaiterList::default(),
        });
        if unready == 0 {
            self.cal.set(id);
        }
        if pi.is_store {
            self.store_queue.push_back(id);
        }
        if unresolved {
            self.unresolved.push(id);
        }
        id
    }

    fn guard_dep(&self, d: &DecodedProgram, slot: u32, oracles: &OracleConfig) -> GuardPlan {
        let s = &self.slots[slot as usize];
        let Some(g) = d.pcs[s.pc as usize].insn.guard else {
            return GuardPlan::None;
        };
        if oracles.no_pred_dependencies {
            return GuardPlan::Known(s.info.guard_true);
        }
        if let Some(v) = s.guard_pred_elim {
            return GuardPlan::Known(v);
        }
        let Some(id) = self.pred_prod[g.index()] else {
            return GuardPlan::Ready;
        };
        if self.cfg.predicate_prediction && !self.rob.is_empty() && id >= self.front_id {
            let idx = (id - self.front_id) as usize;
            assert!(
                idx < self.rob.len(),
                "producer id {id} front {} len {}",
                self.front_id,
                self.rob.len()
            );
            let ps = &self.slots[self.rob[idx].slot as usize];
            if let Some(predicted) = ps.pred_check {
                let defs = d.pcs[ps.pc as usize].def_preds;
                if defs[0] == Some(g) {
                    return GuardPlan::Known(predicted);
                }
                if defs[1] == Some(g) {
                    return GuardPlan::Known(!predicted);
                }
            }
        }
        GuardPlan::Wait(id)
    }

    fn push_src_deps(&mut self, info: &PcInfo, oracles: &OracleConfig) {
        for r in info.gpr_srcs.into_iter().flatten() {
            if let Some(id) = self.gpr_prod[r.index()] {
                self.dep_scratch.push(id);
            }
        }
        for p in info.pred_srcs.into_iter().flatten() {
            // Predicate sources of non-branches vanish under the
            // NO-DEPEND oracle and when §3.5.3 elimination supplies them.
            let eliminated = !info.is_branch
                && (oracles.no_pred_dependencies
                    || (self.pred_elim_active() && self.pred_elim[p.index()].is_some()));
            if eliminated {
                continue;
            }
            if let Some(id) = self.pred_prod[p.index()] {
                self.dep_scratch.push(id);
            }
        }
    }

    fn push_old_dest_deps(&mut self, info: &PcInfo) {
        if let Some(dg) = info.def_gpr {
            if let Some(id) = self.gpr_prod[dg.index()] {
                self.dep_scratch.push(id);
            }
        }
        for p in info.def_preds.into_iter().flatten() {
            if let Some(id) = self.pred_prod[p.index()] {
                self.dep_scratch.push(id);
            }
        }
    }

    fn rename_into_rob(&mut self, d: &DecodedProgram, slot: u32) {
        let oracles = self.cfg.oracles;
        let (pc, hw_guard) = {
            let s = &self.slots[slot as usize];
            (s.pc, s.hw_guard)
        };
        let info = &d.pcs[pc as usize];
        let select_expand = self.rob_slots_needed(d, slot) == 2;
        let guard = self.guard_dep(d, slot, &oracles);
        let wants_old_dest =
            (info.insn.guard.is_some() || hw_guard.is_some()) && !oracles.no_pred_dependencies;
        let known_false = matches!(guard, GuardPlan::Known(false));

        if select_expand {
            // Compute part: sources only, no guard, no old destination.
            self.dep_scratch.clear();
            self.push_src_deps(info, &oracles);
            let compute_id = self.push_rob(d, slot, Role::Compute);
            // Select part: compute result + guard + old destination.
            self.dep_scratch.clear();
            self.dep_scratch.push(compute_id);
            if let GuardPlan::Wait(id) = guard {
                self.dep_scratch.push(id);
            }
            if wants_old_dest {
                self.push_old_dest_deps(info);
            }
            let select_id = self.push_rob(d, slot, Role::Select);
            if !known_false {
                self.set_producer(info, select_id);
            }
            return;
        }

        // C-style single µop (or a non-expandable guarded store/branch).
        self.dep_scratch.clear();
        if let Some((p, _)) = hw_guard {
            if !oracles.no_pred_dependencies {
                if let Some(id) = self.pred_prod[p.index()] {
                    self.dep_scratch.push(id);
                }
            }
        }
        // A guard known false needs no sources; one known true needs no
        // old destination.
        if let GuardPlan::Wait(id) = guard {
            self.dep_scratch.push(id);
        }
        if !known_false {
            self.push_src_deps(info, &oracles);
        }
        if wants_old_dest && guard != GuardPlan::Known(true) {
            self.push_old_dest_deps(info);
        }
        let id = self.push_rob(d, slot, Role::Whole);
        if !known_false {
            self.set_producer(info, id);
        }
    }

    /// Points the rename maps at `id` for every register `info` defines.
    pub(super) fn set_producer(&mut self, info: &PcInfo, id: u64) {
        if let Some(dg) = info.def_gpr {
            self.gpr_prod[dg.index()] = Some(id);
        }
        for p in info.def_preds.into_iter().flatten() {
            if !p.is_hardwired_true() {
                self.pred_prod[p.index()] = Some(id);
            }
        }
    }

    /// Returns a dead waiter list's spill vector to the pool.
    #[inline]
    pub(super) fn recycle_spill(&mut self, w: WaiterList) {
        if w.spill.capacity() > 0 {
            let mut s = w.spill;
            s.clear();
            self.waiter_pool.push(s);
        }
    }
}
