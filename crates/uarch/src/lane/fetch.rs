//! Fetch: the I-cache gate, direction and target prediction (hybrid
//! predictor, RAS, indirect target cache, BTB), the wish-branch front-end
//! mode FSM of Fig. 8, the §3.5.3 predicate-dependency elimination buffer,
//! dynamic hammock predication, and the speculative-emulator step that
//! gives every fetched µop — correct path or wrong path — its real values.

use super::{arena_alloc, Lane, UopSlot, NO_BR};
use crate::decode::DecodedProgram;
use crate::trace::TraceKind;
use wishbranch_bpred::{BtbEntry, BtbKind, HybridToken, LoopToken, RasCheckpoint};
use wishbranch_isa::{insn_addr, BranchKind, Gpr, Insn, InsnKind, PredReg, WishType};
use wishbranch_mem::AccessOutcome;

/// Dynamic-hammock-predication fetch state: which region is currently
/// being fetched under an injected guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum DhpState {
    Off,
    /// Guarding the fall-through arm. At `until`, either stop (triangle) or
    /// redirect into the taken arm (`then` = (taken_start, taken_until,
    /// skip_to-after-taken)).
    GuardFall {
        pred: PredReg,
        negated: bool,
        /// Architectural value of `pred` when the branch was fetched (the
        /// renamed condition real hardware would hold).
        cond: bool,
        until: u32,
        then: Option<(u32, u32, Option<u32>)>,
    },
    /// Guarding the taken arm under the complement; at `until`, optionally
    /// skip the arm's trailing unconditional jump back to `skip_to`.
    GuardTaken {
        pred: PredReg,
        negated: bool,
        /// See [`DhpState::GuardFall::cond`].
        cond: bool,
        until: u32,
        skip_to: Option<u32>,
    },
}

/// Front-end mode of Fig. 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Mode {
    Normal,
    HighConf,
    /// Low-confidence mode. For wish jumps/joins, `exit_target` is the
    /// target of the branch that caused entry (fetching it exits the mode);
    /// for wish loops, `loop_pc` identifies the loop being predicated.
    LowConf {
        exit_target: Option<u32>,
        loop_pc: Option<u32>,
    },
}

/// Branch metadata captured at fetch.
#[derive(Clone, Copy, Debug)]
pub(super) struct BrMeta {
    /// Direction fetch followed (conditional branches).
    pub(super) predicted_taken: bool,
    /// pc fetch continued at.
    pub(super) predicted_next: u32,
    /// Hybrid predictor token (conditional branches, non-oracle).
    pub(super) bp_token: Option<HybridToken>,
    /// What the direction predictor said before any wish-branch forcing.
    pub(super) predictor_said_taken: bool,
    /// GHR before this branch's speculative update.
    pub(super) ghr_checkpoint: u64,
    /// GHR value used to index the confidence estimator.
    pub(super) conf_ghr: u64,
    /// RAS state after this branch's own push/pop.
    pub(super) ras_checkpoint: RasCheckpoint,
    /// Confidence estimate for wish branches (None = not a wish branch or
    /// hardware disabled).
    pub(super) conf_high: Option<bool>,
    /// Mode the front end was in when this branch was fetched (§3.5.4
    /// footnote: recovery checks the mode at fetch, not at resolution).
    pub(super) fetch_mode: Mode,
    /// Specialized wish-loop predictor token, when that predictor is
    /// enabled and produced this prediction.
    pub(super) loop_token: Option<LoopToken>,
    /// This branch was dynamically hammock-predicated (DHP): both arms are
    /// in the pipeline under hardware guards, so it never flushes.
    pub(super) dhp: bool,
}

/// Why the fetch stage is stalled (`fetch_stall_until` armed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum StallReason {
    /// I-cache miss in flight.
    IMiss,
    /// Redirect bubble: post-flush resteer or BTB-miss target bubble.
    Redirect,
}

impl Lane {
    #[inline]
    pub(super) fn pred_elim_active(&self) -> bool {
        matches!(self.mode, Mode::HighConf) && self.pred_elim_live > 0
    }

    fn pred_elim_insert(&mut self, index: usize, value: bool) {
        if self.pred_elim[index].is_none() {
            self.pred_elim_live += 1;
        }
        self.pred_elim[index] = Some(value);
    }

    #[inline]
    pub(super) fn fetch(&mut self, d: &DecodedProgram) {
        if self.fetch_blocked || self.cycle < self.fetch_stall_until {
            return;
        }
        let queue_cap = self.fetch_queue_cap;
        let mut budget = self.cfg.fetch_width;
        let mut cond_budget = self.cfg.max_cond_branches_per_cycle;
        while budget > 0 && self.fe_queue.len() < queue_cap {
            // Mode exit on reaching the low-confidence region's join target.
            if matches!(self.mode, Mode::LowConf { exit_target: Some(t), .. } if t == self.fetch_pc)
            {
                self.mode = Mode::Normal;
            }
            let Some(info) = d.pcs.get(self.fetch_pc as usize) else {
                // Wrong-path fetch escaped the image; wait for the flush.
                self.fetch_blocked = true;
                return;
            };
            // I-cache.
            if !self.line_gate(info.line) {
                return;
            }

            let pc = self.fetch_pc;
            // Dynamic hammock predication: advance the guard-injection
            // state machine before fetching this µop.
            match self.dhp {
                DhpState::GuardFall {
                    pred,
                    negated,
                    cond,
                    until,
                    then: Some((taken_start, taken_until, skip_to)),
                } if pc >= until => {
                    self.fetch_pc = taken_start;
                    self.dhp = DhpState::GuardTaken {
                        pred,
                        negated: !negated,
                        cond,
                        until: taken_until,
                        skip_to,
                    };
                    continue;
                }
                DhpState::GuardFall { until, .. } if pc >= until => self.dhp = DhpState::Off,
                DhpState::GuardTaken { until, skip_to, .. } if pc >= until => {
                    self.dhp = DhpState::Off;
                    if let Some(j) = skip_to {
                        self.fetch_pc = j;
                        continue;
                    }
                }
                _ => {}
            }
            if info.is_cond_branch {
                if cond_budget == 0 {
                    return; // next cycle
                }
                cond_budget -= 1;
            }
            let slot = self.fetch_one(d, pc);
            budget -= 1;
            let (followed_next, guard_true) = {
                let s = &self.slots[slot as usize];
                (s.info.followed_next, s.info.guard_true)
            };
            let taken_redirect = followed_next != pc + 1;
            self.fetch_pc = followed_next;

            // NO-FETCH oracle: guard-false µops vanish before taking any
            // bandwidth (they also don't count against the fetch budget).
            let skip = self.cfg.oracles.no_false_predicate_fetch
                && !guard_true
                && info.insn.guard.is_some()
                && !info.is_branch;
            self.stats.fetched_uops += 1;
            if skip {
                budget += 1;
                self.free_slot(slot);
                continue;
            }
            self.fe_queue.push_back(slot);

            if info.is_halt {
                self.fetch_blocked = true;
                return;
            }
            if taken_redirect {
                // Fetch ends at the first taken branch (Table 2).
                return;
            }
        }
    }

    /// The I-cache gate: given the line the µop at `fetch_pc` lives on,
    /// decide whether fetch can proceed this cycle and arm the I-miss stall
    /// if not.
    ///
    /// Under the flat model: access the I-cache, latch the line, and stall
    /// for the returned latency when it exceeds an L1-I hit. Under the
    /// non-blocking model the access goes through the I-side MSHRs: a
    /// `Pending` fill stalls fetch until the fill cycle (the line is
    /// latched so the post-fill resume does not re-access), and an
    /// `MshrFull` refusal retries next cycle without latching — no request
    /// was issued, so the retry must re-access.
    ///
    /// Returns `true` when the line is available and fetch may consume the
    /// µop this cycle.
    fn line_gate(&mut self, line: u64) -> bool {
        if self.fetch_line == Some(line) {
            return true;
        }
        let (addr, cycle) = (insn_addr(self.fetch_pc), self.cycle);
        let stall_until = if self.mem.realistic() {
            match self.mem.fetch_access_nonblocking(addr, cycle) {
                AccessOutcome::Ready(_) => None,
                AccessOutcome::Pending(fill_at) => Some(fill_at),
                AccessOutcome::MshrFull | AccessOutcome::PortBusy => {
                    // No request left the fetch stage: retry next cycle.
                    self.fetch_stall_until = cycle + 1;
                    self.fetch_stall_reason = StallReason::IMiss;
                    return false;
                }
            }
        } else {
            let lat = self.mem.fetch_access_at(addr, cycle);
            (lat > self.cfg.mem.icache.latency).then_some(cycle + lat)
        };
        self.fetch_line = Some(line);
        let Some(until) = stall_until else {
            return true;
        };
        self.fetch_stall_until = until;
        self.fetch_stall_reason = StallReason::IMiss;
        false
    }

    /// Processes one µop at fetch: predictions, wish-branch mode logic,
    /// speculative emulation, front-end table updates. Returns the arena
    /// slot the µop was written into.
    fn fetch_one(&mut self, d: &DecodedProgram, pc: u32) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pi = &d.pcs[pc as usize];

        // Predicate-dependency elimination lookup (before this µop's own
        // writes invalidate entries).
        let guard_pred_elim = match pi.insn.guard {
            Some(g) if self.pred_elim_active() && !pi.is_branch => self.pred_elim[g.index()],
            _ => None,
        };

        let mut br_meta: Option<BrMeta> = None;
        let mut forced_next: Option<u32> = None;

        if let InsnKind::Branch { kind, target } = pi.insn.kind {
            let mut meta = self.fresh_br_meta(pc, self.bp.ghr());
            match kind {
                BranchKind::Cond { .. } => {
                    let (dir, token) = self.predict_cond(d, pc, &pi.insn, &mut meta);
                    meta.predicted_taken = dir;
                    meta.bp_token = token;
                    meta.predicted_next = if dir { target } else { pc + 1 };
                    self.bp.on_fetch_branch(dir);
                    self.btb_note(pc, BtbKind::Cond, target, pi.insn.wish, dir);
                }
                BranchKind::Uncond => {
                    meta.predicted_taken = true;
                    meta.predicted_next = target;
                    self.btb_note(pc, BtbKind::Uncond, target, None, true);
                }
                BranchKind::Call => {
                    meta.predicted_taken = true;
                    meta.predicted_next = target;
                    self.ras.push(pc + 1);
                    meta.ras_checkpoint = self.ras.checkpoint();
                    self.btb_note(pc, BtbKind::Call, target, None, true);
                }
                BranchKind::Ret => {
                    let predicted = self
                        .ras
                        .pop()
                        .or_else(|| self.itc.predict(pc, self.bp.ghr()))
                        .unwrap_or(0);
                    meta.predicted_taken = true;
                    meta.predicted_next = predicted;
                    meta.ras_checkpoint = self.ras.checkpoint();
                    self.btb_note(pc, BtbKind::Ret, predicted, None, true);
                }
                BranchKind::Indirect { .. } => {
                    let predicted = self.itc.predict(pc, self.bp.ghr()).unwrap_or(pc + 1);
                    meta.predicted_taken = true;
                    meta.predicted_next = predicted;
                    self.btb_note(pc, BtbKind::Indirect, predicted, None, true);
                }
            }
            if self.cfg.oracles.perfect_branch_prediction {
                // PERFECT-CBP: override everything with the oracle.
                let actual = self.emu.peek_cond(&pi.insn);
                match kind {
                    BranchKind::Cond { .. } => {
                        let t = actual.expect("cond branch peeks");
                        meta.predicted_taken = t;
                        meta.predicted_next = if t { target } else { pc + 1 };
                        meta.bp_token = None;
                        meta.conf_high = None;
                    }
                    _ => {
                        meta.predicted_next = self.peek_target(&pi.insn, pc);
                    }
                }
            }
            forced_next = Some(meta.predicted_next);
            br_meta = Some(meta);
        }

        // DHP: non-control µops inside an active region carry the injected
        // guard.
        let (hw_guard, hw_guard_ok) = match self.dhp {
            DhpState::GuardFall {
                pred,
                negated,
                cond,
                ..
            }
            | DhpState::GuardTaken {
                pred,
                negated,
                cond,
                ..
            } if !pi.is_branch => (Some((pred, negated)), Some(cond ^ negated)),
            _ => (None, None),
        };
        // Predicate prediction (Chuang & Calder baseline).
        let mut pred_check = None;
        if self.cfg.predicate_prediction && pi.defines_pred && br_meta.is_none() {
            let counter = self.pred_value_pht[pc as usize];
            pred_check = Some(counter >= 2);
            br_meta = Some(self.fresh_br_meta(pc, self.conf_history));
        }

        let info = self.emu.exec(seq, pc, &pi.insn, forced_next, hw_guard_ok);

        // Front-end table maintenance after the µop is "decoded".
        self.note_pred_writes(d, pc);

        // Branch metadata lives in a side arena: most µops are not
        // branches, and `BrMeta` embeds a 272-byte RAS checkpoint that
        // would otherwise be copied into every slot.
        let br_ref = match br_meta {
            Some(m) => arena_alloc(&mut self.br_arena, &mut self.br_free, m),
            None => NO_BR,
        };
        let uop = UopSlot {
            seq,
            pc,
            fetch_cycle: self.cycle,
            info,
            br: br_ref,
            guard_pred_elim,
            hw_guard,
            pred_check,
        };
        let slot = arena_alloc(&mut self.slots, &mut self.free, uop);
        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Fetch, slot, 0);
        }
        slot
    }

    /// Branch metadata before any prediction: fall-through next pc, the
    /// current GHR, RAS and front-end mode, and confidence history
    /// `conf_ghr`.
    fn fresh_br_meta(&self, pc: u32, conf_ghr: u64) -> BrMeta {
        BrMeta {
            predicted_taken: false,
            predicted_next: pc + 1,
            bp_token: None,
            predictor_said_taken: false,
            ghr_checkpoint: self.bp.ghr(),
            conf_ghr,
            ras_checkpoint: self.ras.checkpoint(),
            conf_high: None,
            fetch_mode: self.mode,
            loop_token: None,
            dhp: false,
        }
    }

    /// Oracle target of a control µop (for PERFECT-CBP on ret/indirect).
    fn peek_target(&self, insn: &Insn, pc: u32) -> u32 {
        match insn.kind {
            InsnKind::Branch { kind, target } => match kind {
                BranchKind::Ret => self.emu.regs[Gpr::LINK.index()] as u32,
                BranchKind::Indirect { target: r } => self.emu.regs[r.index()] as u32,
                _ => target,
            },
            _ => pc + 1,
        }
    }

    /// Direction prediction for a conditional branch, including all wish
    /// branch mode logic (§3.1, §3.2, Table 1, Fig. 8).
    fn predict_cond(
        &mut self,
        d: &DecodedProgram,
        pc: u32,
        insn: &Insn,
        meta: &mut BrMeta,
    ) -> (bool, Option<HybridToken>) {
        let (mut bp_dir, token) = self.bp.predict(pc);
        meta.predictor_said_taken = bp_dir;
        meta.conf_ghr = self.conf_history;
        let wish = insn.wish.filter(|_| self.cfg.wish_enabled);
        let Some(wtype) = wish else {
            // Dynamic hammock predication for plain conditional branches.
            if self.cfg.dhp_enabled && self.dhp == DhpState::Off {
                if let Some(plan) = self.dhp_region(d, pc) {
                    let low = !self.confident(pc, insn, bp_dir);
                    meta.conf_high = Some(!low);
                    if low {
                        meta.dhp = true;
                        self.dhp = plan;
                        self.stats.dhp_predications += 1;
                        return (false, Some(token));
                    }
                }
            }
            return (bp_dir, Some(token));
        };
        // Specialized wish-loop predictor (§3.2 extension).
        if wtype == WishType::Loop {
            if let Some(lp) = self.loop_pred.as_mut() {
                let (pred, ltok) = lp.fetch_predict(pc);
                meta.loop_token = Some(ltok);
                if let Some(dir) = pred {
                    bp_dir = dir;
                    meta.predictor_said_taken = dir;
                }
            }
        }

        let mut final_dir = bp_dir;

        match self.mode {
            // `meta.fetch_mode` already holds this mode.
            Mode::LowConf {
                exit_target,
                loop_pc,
            } => {
                meta.conf_high = Some(false);
                if wtype != WishType::Loop {
                    final_dir = false;
                    if let (None, Some(t)) = (exit_target, insn.direct_target()) {
                        self.mode = Mode::LowConf {
                            exit_target: Some(t),
                            loop_pc,
                        };
                    }
                }
            }
            Mode::Normal | Mode::HighConf => {
                let high = self.confident(pc, insn, bp_dir);
                meta.conf_high = Some(high);
                if high {
                    self.mode = Mode::HighConf;
                    self.install_pred_elim(insn, bp_dir);
                } else {
                    match wtype {
                        WishType::Jump | WishType::Join => {
                            final_dir = false;
                            self.mode = Mode::LowConf {
                                exit_target: insn.direct_target(),
                                loop_pc: None,
                            };
                        }
                        WishType::Loop => {
                            self.mode = Mode::LowConf {
                                exit_target: None,
                                loop_pc: Some(pc),
                            };
                        }
                    }
                }
                meta.fetch_mode = self.mode;
            }
        }
        if wtype == WishType::Loop {
            self.loop_last_pred[pc as usize] = Some((final_dir, self.next_seq - 1));
            if !final_dir {
                match self.mode {
                    Mode::HighConf => self.mode = Mode::Normal,
                    Mode::LowConf {
                        loop_pc: Some(lp), ..
                    } if lp == pc => self.mode = Mode::Normal,
                    _ => {}
                }
            }
        }
        (final_dir, Some(token))
    }

    /// Whether the direction `bp_dir` predicted for the conditional branch
    /// at `pc` is high-confidence: the JRS estimate, or the truth under the
    /// perfect-confidence oracle.
    fn confident(&mut self, pc: u32, insn: &Insn, bp_dir: bool) -> bool {
        if self.cfg.oracles.perfect_confidence {
            self.emu.peek_cond(insn).expect("cond branch") == bp_dir
        } else {
            self.jrs.estimate(pc, self.conf_history).is_high()
        }
    }

    fn install_pred_elim(&mut self, insn: &Insn, predicted_dir: bool) {
        let InsnKind::Branch {
            kind: BranchKind::Cond { pred, sense },
            ..
        } = insn.kind
        else {
            return;
        };
        let value = if sense { predicted_dir } else { !predicted_dir };
        self.pred_elim_insert(pred.index(), value);
        if let Some(partner) = self.cmp2_partner[pred.index()] {
            self.pred_elim_insert(partner as usize, !value);
        }
    }

    fn note_pred_writes(&mut self, d: &DecodedProgram, pc: u32) {
        let info = &d.pcs[pc as usize];
        let def_preds = info.def_preds;
        let is_cmp2 = info.is_cmp2;
        if is_cmp2 {
            let t = def_preds[0].expect("cmp2 defines two predicates").index();
            let f = def_preds[1].expect("cmp2 defines two predicates").index();
            self.cmp2_partner[t] = Some(f as u8);
            self.cmp2_partner[f] = Some(t as u8);
        }
        for p in def_preds.into_iter().flatten() {
            if self.pred_elim[p.index()].take().is_some() {
                self.pred_elim_live -= 1;
            }
            if !is_cmp2 {
                self.cmp2_partner[p.index()] = None;
            }
        }
        if matches!(self.mode, Mode::HighConf) && self.pred_elim_live == 0 {
            self.mode = Mode::Normal;
        }
    }

    fn dhp_region(&self, d: &DecodedProgram, pc: u32) -> Option<DhpState> {
        let plan = d.dhp_plans[pc as usize]?;
        Some(DhpState::GuardFall {
            pred: plan.pred,
            negated: plan.negated,
            cond: self.emu.preds[plan.pred.index()],
            until: plan.until,
            then: plan.then,
        })
    }

    fn btb_note(
        &mut self,
        pc: u32,
        kind: BtbKind,
        target: u32,
        wish: Option<WishType>,
        redirects: bool,
    ) {
        let hit = self.btb.lookup(pc).is_some();
        if !hit {
            self.btb.install(pc, BtbEntry { target, kind, wish });
            if redirects {
                self.fetch_stall_until = self.cycle + self.cfg.btb_miss_penalty;
                self.fetch_stall_reason = StallReason::Redirect;
            }
        }
    }
}
