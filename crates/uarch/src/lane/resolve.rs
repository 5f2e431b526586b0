//! Branch resolution and flush. A completed branch (or predicate-value
//! check) compares the path fetch followed with the architectural one. A
//! misprediction flushes everything younger and resteers fetch — unless the
//! §3.5.4 wish-branch recovery rules say the predicated path already
//! covers it: wish jumps/joins fetched in low-confidence mode never flush,
//! and wish loops distinguish early, late and no-exit cases.

use super::fetch::{DhpState, Mode, StallReason};
use super::rename::Role;
use super::{
    Lane, F_DONE, F_MISPRED, F_RESOLVED, LC_EARLY, LC_LATE, LC_NOEXIT, META_PREDCHK, NO_BR,
};
use crate::decode::DecodedProgram;
use crate::trace::TraceKind;
use wishbranch_isa::{insn_addr, WishType, NUM_GPRS, NUM_PREDS};

impl Lane {
    #[inline]
    pub(super) fn resolve_branches(&mut self, d: &DecodedProgram) {
        // Nothing can become eligible before `next_resolve` (maintained at
        // issue when a branch/pred-check completes, and by the scan below);
        // skip the scan entirely until then.
        if self.cycle < self.next_resolve {
            return;
        }
        // Minimum completion cycle among the done-but-not-yet-eligible
        // entries. Not-yet-done entries are covered by the issue-side
        // update; squashed entries can only make this too small (an extra
        // scan), never too large.
        let mut min_future = u64::MAX;
        let mut i = 0;
        while i < self.unresolved.len() {
            let id = self.unresolved[i];
            debug_assert!(id >= self.front_id, "unresolved entries never retire first");
            let idx = (id - self.front_id) as usize;
            let e = &self.rob[idx];
            if e.flags & F_DONE == 0 || e.ready_cycle > self.cycle {
                if e.flags & F_DONE != 0 {
                    min_future = min_future.min(e.ready_cycle);
                }
                i += 1;
                continue;
            }
            let has_pred_check = e.meta & META_PREDCHK != 0;
            self.unresolved.remove(i);
            if has_pred_check {
                self.resolve_pred_check(d, idx);
            } else {
                self.resolve_one(d, idx);
            }
        }
        self.next_resolve = min_future;
    }

    fn resolve_pred_check(&mut self, d: &DecodedProgram, idx: usize) {
        self.rob[idx].flags |= F_RESOLVED;
        let (predicted, actual, site_pc) = {
            let s = &self.slots[self.rob[idx].slot as usize];
            (
                s.pred_check.expect("caller checked"),
                s.info.pred_values[0],
                s.pc,
            )
        };
        // Guard-false definitions (no value) keep their old value; treat
        // them as correct.
        if actual != Some(!predicted) {
            return;
        }
        self.rob[idx].flags |= F_MISPRED;
        self.stats.pred_value_mispredictions += 1;
        self.stats.flushes += 1;
        self.hot_sites[site_pc as usize].flushes += 1;
        self.flush_after(d, idx, site_pc + 1);
    }

    fn resolve_one(&mut self, d: &DecodedProgram, idx: usize) {
        self.rob[idx].flags |= F_RESOLVED;
        let slot = self.rob[idx].slot as usize;
        let (br_ref, actual_next, actual_taken, site_pc) = {
            let s = &self.slots[slot];
            (s.br, s.info.actual_next, s.info.actual_taken, s.pc)
        };
        debug_assert!(br_ref != NO_BR, "branches always carry metadata");
        let (predicted_next, fetch_mode, dhp) = {
            let br = &self.br_arena[br_ref as usize];
            (br.predicted_next, br.fetch_mode, br.dhp)
        };
        if predicted_next == actual_next {
            return;
        }
        self.rob[idx].flags |= F_MISPRED;
        let insn = &d.pcs[site_pc as usize].insn;
        let is_wish = insn.is_wish_branch() && self.cfg.wish_enabled;
        let fetched_low_conf = matches!(fetch_mode, Mode::LowConf { .. });

        if dhp {
            self.stats.flushes_avoided += 1;
            self.stats.dhp_flushes_avoided += 1;
            self.hot_sites[site_pc as usize].flushes_avoided += 1;
            return;
        }
        let mut flush = true;
        if is_wish && fetched_low_conf {
            match insn.wish.expect("is_wish") {
                WishType::Jump | WishType::Join => flush = false,
                WishType::Loop if actual_taken => self.rob[idx].loop_class = LC_EARLY,
                WishType::Loop => {
                    // A late exit (the loop's last fetched prediction was
                    // already "exit") needs no flush; a missed exit does.
                    let late = matches!(self.loop_last_pred[site_pc as usize], Some((false, _)));
                    self.rob[idx].loop_class = if late { LC_LATE } else { LC_NOEXIT };
                    flush = !late;
                }
            }
        }
        if !flush {
            self.stats.flushes_avoided += 1;
            self.hot_sites[site_pc as usize].flushes_avoided += 1;
            return;
        }
        self.stats.flushes += 1;
        self.hot_sites[site_pc as usize].flushes += 1;
        // The branch retires having followed the architectural path.
        self.slots[slot].info.followed_next = actual_next;
        self.flush_after(d, idx, actual_next);
    }

    fn flush_after(&mut self, d: &DecodedProgram, idx: usize, resume_pc: u32) {
        let (seq, flush_pc, br_ref, actual_taken) = {
            let s = &self.slots[self.rob[idx].slot as usize];
            (s.seq, s.pc, s.br, s.info.actual_taken)
        };
        debug_assert!(br_ref != NO_BR, "flush source is a branch");
        // Small fields out of the arena up front; the 272-byte RAS
        // checkpoint is restored by reference below, never copied.
        let (ghr_checkpoint, loop_token) = {
            let br = &self.br_arena[br_ref as usize];
            (br.ghr_checkpoint, br.loop_token)
        };
        let boundary = self.front_id + idx as u64;
        let is_cond = d.pcs[flush_pc as usize].is_cond_branch;

        // Squash younger ROB entries and the whole front-end queue.
        let squashed_rob = self.rob.len() - (idx + 1);
        while self.rob.len() > idx + 1 {
            let dead = self.rob.pop_back().expect("length checked");
            self.recycle_spill(dead.waiters);
            if dead.role != Role::Compute {
                self.free_slot(dead.slot);
            }
        }
        let squashed_total = squashed_rob as u64 + self.fe_queue.len() as u64;
        self.stats.squashed_uops += squashed_total;
        while let Some(slot) = self.fe_queue.pop_front() {
            self.free_slot(slot);
        }
        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Flush, self.rob[idx].slot, squashed_total);
        }
        // Ids stay contiguous implicitly: the next id is front_id + len.
        // Events and ready bits of squashed entries must go eagerly: ids
        // are reused for the refetched path.
        self.cal.clear_above(boundary, squashed_rob as u64);
        self.cal.purge_above(boundary);
        while self.store_queue.back().is_some_and(|&id| id > boundary) {
            self.store_queue.pop_back();
        }
        let keep = self.unresolved.partition_point(|&id| id <= boundary);
        self.unresolved.truncate(keep);

        // Rebuild rename maps from the surviving entries, dropping their
        // squashed waiters along the way.
        self.gpr_prod = [None; NUM_GPRS];
        self.pred_prod = [None; NUM_PREDS];
        for i in 0..self.rob.len() {
            let id = self.front_id + i as u64;
            let (pc, role) = {
                let e = &mut self.rob[i];
                e.waiters.truncate_above(boundary);
                (e.pc, e.role)
            };
            if role == Role::Compute {
                continue; // temps are invisible to the rename map
            }
            self.set_producer(&d.pcs[pc as usize], id);
        }

        // Roll the speculative world back to just after the branch.
        self.emu.rollback_after(seq);
        self.ras
            .restore(&self.br_arena[br_ref as usize].ras_checkpoint);
        if is_cond {
            self.bp.restore_ghr(ghr_checkpoint, actual_taken);
        } else {
            self.bp.set_ghr(ghr_checkpoint);
        }
        self.pred_elim = [None; NUM_PREDS];
        self.pred_elim_live = 0;
        self.cmp2_partner = [None; NUM_PREDS];
        self.mode = Mode::Normal;
        self.dhp = DhpState::Off;
        for &pc in &d.wish_loop_pcs {
            if self.loop_last_pred[pc as usize].is_some_and(|(_, s)| s > seq) {
                self.loop_last_pred[pc as usize] = None;
            }
        }
        if let (Some(lp), Some(ltok)) = (self.loop_pred.as_mut(), loop_token) {
            lp.repair(flush_pc, &ltok, actual_taken);
        }

        // Redirect fetch. Pending wrong-path I-fills (other lines than the
        // resume target's) are cancelled before the resteer.
        self.mem
            .squash_wrong_path_ifills(self.cycle, insn_addr(resume_pc));
        self.fetch_pc = resume_pc;
        self.fetch_blocked = false;
        self.fetch_line = None;
        self.fetch_stall_until = self.cycle + 1;
        self.fetch_stall_reason = StallReason::Redirect;
        self.last_flush_cycle = Some(self.cycle);
    }
}
