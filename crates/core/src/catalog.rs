//! The experiment catalog: every figure and table of the reproduction
//! behind one stable id, runnable on a shared [`SweepRunner`] and returning
//! a serializable [`Report`].
//!
//! This is the only way to run an experiment: the CLI
//! (`wishbranch-repro`), typed requests, the sweep server and the
//! `wishbranch-bench` harness all dispatch through this enum, so the set of
//! experiment names, their titles and their payload kinds live in exactly
//! one place.

use crate::ablation;
use crate::engine::SweepRunner;
use crate::figures;
use crate::report::{Report, ReportData};
use crate::tables;

/// One of the paper's (or the reproduction's extension) experiments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Experiment {
    /// Fig. 1 — the motivation: predicated code vs branches across inputs.
    Fig1,
    /// Fig. 2 — predication overhead breakdown.
    Fig2,
    /// Fig. 10 — main result, trained input.
    Fig10,
    /// Fig. 11 — wish jump/join dynamic class breakdown.
    Fig11,
    /// Fig. 12 — main result, unseen input.
    Fig12,
    /// Fig. 13 — wish loop dynamic class breakdown.
    Fig13,
    /// Fig. 14 — instruction-window sweep.
    Fig14,
    /// Extension — Fig. 14-style memory-latency sweep on the non-blocking
    /// hierarchy (finite MSHRs, store-to-load forwarding).
    Fig14Mem,
    /// Fig. 15 — pipeline-depth sweep.
    Fig15,
    /// Fig. 16 — less-accurate branch predictor.
    Fig16,
    /// Table 4 — simulated benchmark characteristics.
    Tab4,
    /// Table 5 — wish-jjl vs per-benchmark best binaries.
    Tab5,
    /// Extension — §3.6 input-dependence-aware adaptive binary.
    Adaptive,
    /// Extension — dynamic hammock predication comparison (§6 related work).
    Dhp,
    /// Extension — predicate prediction comparison.
    PredPred,
    /// Ablation — JRS confidence-threshold sweep.
    AblConfidence,
    /// Ablation — MSHR-count sweep on the non-blocking hierarchy.
    AblMshr,
    /// Ablation — compiler wish-jump threshold N sweep.
    AblThresholds,
    /// Ablation — §3.2 specialized wish-loop predictor biased to
    /// overestimate trip counts, vs the hybrid predictor alone.
    AblLoopPredictor,
}

impl Experiment {
    /// Every experiment, in presentation order.
    pub const ALL: [Experiment; 19] = [
        Experiment::Fig1,
        Experiment::Fig2,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Fig12,
        Experiment::Fig13,
        Experiment::Fig14,
        Experiment::Fig14Mem,
        Experiment::Fig15,
        Experiment::Fig16,
        Experiment::Tab4,
        Experiment::Tab5,
        Experiment::Adaptive,
        Experiment::Dhp,
        Experiment::PredPred,
        Experiment::AblConfidence,
        Experiment::AblMshr,
        Experiment::AblThresholds,
        Experiment::AblLoopPredictor,
    ];

    /// The stable id used by the CLI and as the `--report-dir` file stem.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Experiment::Fig1 => "fig1",
            Experiment::Fig2 => "fig2",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
            Experiment::Fig14Mem => "fig14_mem_latency",
            Experiment::Fig15 => "fig15",
            Experiment::Fig16 => "fig16",
            Experiment::Tab4 => "tab4",
            Experiment::Tab5 => "tab5",
            Experiment::Adaptive => "adaptive",
            Experiment::Dhp => "dhp",
            Experiment::PredPred => "predpred",
            Experiment::AblConfidence => "abl_confidence",
            Experiment::AblMshr => "abl_mshr",
            Experiment::AblThresholds => "abl_thresholds",
            Experiment::AblLoopPredictor => "abl_loop_predictor",
        }
    }

    /// Looks an experiment up by its [`Experiment::id`].
    #[must_use]
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.id() == id)
    }

    /// Runs the experiment on `runner` and wraps the result as a
    /// [`Report`] under [`Experiment::id`]. Figure titles come from the
    /// figure itself; the other kinds carry fixed titles.
    #[must_use]
    pub fn run(self, runner: &SweepRunner) -> Report {
        let id = self.id();
        let report = |title: &str, data| Report {
            id: id.into(),
            title: title.into(),
            data,
        };
        let sweep = |title: &str, param: &str, rows| {
            report(
                title,
                ReportData::ParamSweep {
                    param: param.into(),
                    rows,
                },
            )
        };
        match self {
            Experiment::Fig1 => Report::figure(id, figures::figure1(runner)),
            Experiment::Fig2 => Report::figure(id, figures::figure2(runner)),
            Experiment::Fig10 => Report::figure(id, figures::figure10(runner)),
            Experiment::Fig11 => report(
                "Fig.11: dynamic wish jumps/joins per 1M retired µops by class",
                ReportData::Confidence(figures::figure11(runner)),
            ),
            Experiment::Fig12 => Report::figure(id, figures::figure12(runner)),
            Experiment::Fig13 => report(
                "Fig.13: dynamic wish loops per 1M retired µops by class",
                ReportData::LoopBreakdown(figures::figure13(runner)),
            ),
            Experiment::Fig14 => sweep(
                "Fig.14: instruction window sweep",
                "window",
                figures::figure14(runner),
            ),
            Experiment::Fig14Mem => sweep(
                "Fig.14-mem: memory-latency sweep, non-blocking hierarchy",
                "mem_latency",
                figures::figure14_mem_latency(runner),
            ),
            Experiment::Fig15 => sweep(
                "Fig.15: pipeline depth sweep",
                "depth",
                figures::figure15(runner),
            ),
            Experiment::Fig16 => Report::figure(id, figures::figure16(runner)),
            Experiment::Tab4 => report(
                "Table 4: simulated benchmarks",
                ReportData::Benchmarks(tables::table4(runner)),
            ),
            Experiment::Tab5 => report(
                "Table 5: exec-time reduction of wish-jjl binary over best binaries",
                ReportData::BestBinary(tables::table5(runner)),
            ),
            Experiment::Adaptive => Report::figure(id, figures::figure_adaptive(runner)),
            Experiment::Dhp => Report::figure(id, figures::figure_dhp(runner)),
            Experiment::PredPred => {
                Report::figure(id, figures::figure_predicate_prediction(runner))
            }
            Experiment::AblConfidence => Report::ablation(
                id,
                "Ablation: JRS threshold vs avg wish-jjl exec time (normalized to normal)",
                "threshold",
                ablation::confidence_threshold_sweep(runner, &[2, 5, 9, 13, 15]),
            ),
            Experiment::AblMshr => Report::ablation(
                id,
                "Ablation: MSHRs vs avg wish-jjl exec time (normalized; 0 = unlimited)",
                "mshrs",
                ablation::mshr_sweep(runner, &[0, 32, 8, 2]),
            ),
            Experiment::AblThresholds => Report::ablation(
                id,
                "Ablation: wish-jump threshold N vs avg wish-jjl exec time (normalized)",
                "N",
                ablation::wish_threshold_sweep(runner, &[0, 3, 5, 9, 15]),
            ),
            Experiment::AblLoopPredictor => Report::figure(id, ablation::loop_predictor(runner, 2)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_are_unique() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_id(e.id()), Some(e));
        }
        let mut ids: Vec<&str> = Experiment::ALL.iter().map(|e| e.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Experiment::ALL.len());
    }

    #[test]
    fn unknown_id_is_none() {
        assert_eq!(Experiment::from_id("fig99"), None);
    }
}
