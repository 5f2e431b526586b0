//! Retire: commit up to the retire width of completed, resolved µops in
//! program order, train the predictors and confidence estimator with each
//! retired branch's outcome, and record the retired stream for the
//! lockstep oracle when asked to.

use super::rename::Role;
use super::{
    Lane, RobSlim, F_DONE, F_MISPRED, F_RESOLVED, LC_EARLY, LC_LATE, LC_NOEXIT, META_BRANCH, NO_BR,
};
use crate::decode::DecodedProgram;
use crate::stats::WishClassCounts;
use crate::trace::TraceKind;
use wishbranch_isa::{BranchKind, InsnKind, WishType};

impl Lane {
    #[inline]
    pub(super) fn retire(&mut self, d: &DecodedProgram) {
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            if head.flags & F_DONE == 0 || head.ready_cycle > self.cycle {
                break;
            }
            if head.meta & META_BRANCH != 0 && head.flags & F_RESOLVED == 0 {
                break;
            }
            debug_assert!(
                head.flags & F_RESOLVED != 0
                    || head.role != Role::Whole
                    || self.slots[head.slot as usize].pred_check.is_none(),
                "pred checks resolve before retiring"
            );
            let mut entry = self.rob.pop_front().expect("checked non-empty");
            self.front_id += 1;
            let waiters = std::mem::take(&mut entry.waiters);
            self.wake_list(waiters);
            retired += 1;
            self.retire_entry(d, &entry);
            // Compute halves share their slot with the Select twin, which
            // retires later and frees it.
            if entry.role != Role::Compute {
                self.free_slot(entry.slot);
            }
            if self.halted {
                return;
            }
        }
    }

    fn retire_entry(&mut self, d: &DecodedProgram, e: &RobSlim) {
        let (seq, pc, info, br_ref, hw_guard, pred_check) = {
            let s = &self.slots[e.slot as usize];
            (s.seq, s.pc, s.info, s.br, s.hw_guard, s.pred_check)
        };
        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Retire, e.slot, 0);
        }
        let pi = &d.pcs[pc as usize];
        let insn = &pi.insn;
        let dhp = br_ref != NO_BR && self.br_arena[br_ref as usize].dhp;
        if let Some(log) = self.retire_log.as_mut() {
            if e.role != Role::Compute {
                let pred_writes = std::array::from_fn(|k| {
                    let write = pi.def_preds[k].zip(info.pred_values[k]);
                    write.map(|(p, v)| (p.index() as u8, v))
                });
                log.push(wishbranch_isa::RetireRecord {
                    seq,
                    pc,
                    next_pc: info.followed_next,
                    guard_true: info.guard_true,
                    taken: info.actual_taken,
                    forced: info.followed_next != info.actual_next,
                    wish: insn.wish,
                    dhp,
                    hw_guard: hw_guard.is_some(),
                    reg_write: info.reg_write,
                    pred_writes,
                    mem_write: info
                        .mem_addr
                        .zip(info.store_value)
                        .filter(|_| info.is_store),
                    halted: info.halted,
                });
            }
        }
        self.stats.retired_uops += 1;
        if e.role == Role::Select {
            self.stats.retired_select_uops += 1;
        }
        let guard_false = e.role != Role::Compute
            && !info.guard_true
            && (insn.guard.is_some() || hw_guard.is_some());
        if guard_false {
            self.stats.retired_guard_false += 1;
            self.hot_sites[pc as usize].guard_false_uops += 1;
            self.cyc_retired_guard_false = true;
        } else if e.role != Role::Select {
            self.cyc_retired_useful = true;
        }
        self.emu.commit_through(seq);

        if pi.is_halt {
            self.halted = true;
            return;
        }

        if pred_check.is_some() {
            self.stats.pred_value_predictions += 1;
            if let Some(actual) = info.pred_values[0] {
                let c = &mut self.pred_value_pht[pc as usize];
                *c = if actual {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
            }
        }

        if e.role != Role::Whole || !pi.is_branch || br_ref == NO_BR {
            return;
        }
        if e.flags & F_MISPRED != 0 {
            self.stats.retired_mispredicted += 1;
        }
        // Copy the small predictor-bookkeeping fields out of the arena so
        // the update calls below can borrow `self` mutably.
        let br = &self.br_arena[br_ref as usize];
        let bp_token = br.bp_token;
        let conf_high = br.conf_high;
        let conf_ghr = br.conf_ghr;
        let predictor_said_taken = br.predictor_said_taken;
        let ghr_checkpoint = br.ghr_checkpoint;
        let loop_token = br.loop_token;
        match insn.kind {
            InsnKind::Branch {
                kind: BranchKind::Cond { .. },
                ..
            } => {
                self.stats.retired_cond_branches += 1;
                let actual = info.actual_taken;
                if let Some(token) = bp_token {
                    self.bp.update(pc, &token, actual);
                }
                if let Some(conf_high) = conf_high {
                    let predictor_correct = predictor_said_taken == actual;
                    if !self.cfg.oracles.perfect_confidence {
                        self.jrs.update(pc, conf_ghr, predictor_correct);
                    }
                    self.conf_history = (self.conf_history << 1) | u64::from(actual);
                    let counts: Option<&mut WishClassCounts> = match insn.wish {
                        Some(WishType::Jump) => Some(&mut self.stats.wish_jumps),
                        Some(WishType::Join) => Some(&mut self.stats.wish_joins),
                        Some(WishType::Loop) => Some(&mut self.stats.wish_loops),
                        None => None, // DHP branch
                    };
                    if let Some(counts) = counts {
                        match (conf_high, predictor_correct) {
                            (true, true) => counts.high_correct += 1,
                            (true, false) => counts.high_mispredicted += 1,
                            (false, true) => counts.low_correct += 1,
                            (false, false) => counts.low_mispredicted += 1,
                        }
                    }
                    match e.loop_class {
                        LC_EARLY => self.stats.loop_early_exits += 1,
                        LC_LATE => self.stats.loop_late_exits += 1,
                        LC_NOEXIT => self.stats.loop_no_exits += 1,
                        _ => {}
                    }
                }
                if insn.wish == Some(WishType::Loop) {
                    if let (Some(lp), Some(ltok)) = (self.loop_pred.as_mut(), loop_token) {
                        lp.update(pc, &ltok, actual);
                    }
                    if self.loop_last_pred[pc as usize].is_some_and(|(_, s)| s == seq) {
                        self.loop_last_pred[pc as usize] = None;
                    }
                }
            }
            InsnKind::Branch {
                kind: BranchKind::Indirect { .. },
                ..
            } => self.itc.update(pc, ghr_checkpoint, info.actual_next),
            _ => {}
        }
    }
}
