//! Regeneration of Tables 4 and 5.
//!
//! As with the figures, each table batches its jobs onto a caller-owned
//! [`SweepRunner`], and the [`Experiment`](crate::Experiment) catalog
//! wraps the rows in a report.

use crate::engine::{SweepJob, SweepRunner};
use wishbranch_compiler::BinaryVariant;

/// One row of Table 4: benchmark characteristics for the normal-branch and
/// wish jump/join/loop binaries.
#[derive(Clone, PartialEq, Debug)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: String,
    /// Dynamic retired µops (normal binary).
    pub dynamic_uops: u64,
    /// Static conditional branches (normal binary).
    pub static_branches: usize,
    /// Dynamic retired conditional branches (normal binary).
    pub dynamic_branches: u64,
    /// Mispredicted branches per 1000 retired µops (normal binary).
    pub mispredicts_per_kuop: f64,
    /// Retired µops per cycle (normal binary).
    pub upc: f64,
    /// Static wish branches in the wish jump/join/loop binary.
    pub static_wish: usize,
    /// … of which wish loops (%).
    pub static_wish_loop_pct: f64,
    /// Dynamic retired wish branches in the wish jump/join/loop binary.
    pub dynamic_wish: u64,
    /// … of which wish loops (%).
    pub dynamic_wish_loop_pct: f64,
}

/// **Table 4** — simulated benchmark characteristics.
pub(crate) fn table4(runner: &SweepRunner) -> Vec<Table4Row> {
    let ec = runner.config().clone();
    let input = ec.train_input;
    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        jobs.push(SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec));
        jobs.push(SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, input, &ec));
    }
    runner
        .try_run(jobs)
        .chunks_exact(2)
        .enumerate()
        // A benchmark with a failed job is dropped from the table (the
        // failure stays in the runner's failure table); its row is all
        // measured quantities, so there is no meaningful partial row.
        .filter_map(|(b, pair)| {
            let (normal, wish) = match (&pair[0], &pair[1]) {
                (Ok(n), Ok(w)) => (n, w),
                _ => return None,
            };
            let nstats = &normal.outcome.sim.stats;
            let nstatic = normal.outcome.static_stats;
            let wstats = &wish.outcome.sim.stats;
            let wstatic = wish.outcome.static_stats;
            let dyn_wish = wstats.wish_branches_total();
            Some(Table4Row {
                name: runner.benches()[b].name.into(),
                dynamic_uops: nstats.retired_uops,
                static_branches: nstatic.cond_branches,
                dynamic_branches: nstats.retired_cond_branches,
                mispredicts_per_kuop: nstats.mispredicts_per_kuop(),
                upc: nstats.upc(),
                static_wish: wstatic.wish_branches,
                static_wish_loop_pct: if wstatic.wish_branches == 0 {
                    0.0
                } else {
                    wstatic.wish_loops as f64 * 100.0 / wstatic.wish_branches as f64
                },
                dynamic_wish: dyn_wish,
                dynamic_wish_loop_pct: if dyn_wish == 0 {
                    0.0
                } else {
                    wstats.wish_loops.total() as f64 * 100.0 / dyn_wish as f64
                },
            })
        })
        .collect()
}

/// One row of Table 5: execution-time reduction of the wish
/// jump/join/loop binary over the best competing binaries.
#[derive(Clone, PartialEq, Debug)]
pub struct Table5Row {
    /// Benchmark name.
    pub name: String,
    /// % reduction vs the normal-branch binary.
    pub vs_normal_pct: f64,
    /// % reduction vs the best predicated binary for this benchmark.
    pub vs_best_predicated_pct: f64,
    /// Which predicated binary was best (`DEF`/`MAX`).
    pub best_predicated: &'static str,
    /// % reduction vs the best non-wish binary for this benchmark.
    pub vs_best_pct: f64,
    /// Which non-wish binary was best (`DEF`/`MAX`/`BR`).
    pub best: &'static str,
}

/// **Table 5** — wish jump/join/loop binary vs per-benchmark best binaries.
/// The paper stresses this comparison is *unrealistically generous to the
/// baseline*: it assumes the compiler could know at compile time which
/// binary wins at run time.
pub(crate) fn table5(runner: &SweepRunner) -> Vec<Table5Row> {
    let ec = runner.config().clone();
    let input = ec.train_input;
    let variants = [
        BinaryVariant::NormalBranch,
        BinaryVariant::BaseDef,
        BinaryVariant::BaseMax,
        BinaryVariant::WishJumpJoinLoop,
    ];
    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        for v in variants {
            jobs.push(SweepJob::standard(b, v, input, &ec));
        }
    }
    let cycles: Vec<Option<u64>> = runner
        .try_run(jobs)
        .into_iter()
        .map(|r| r.ok().map(|r| r.outcome.sim.stats.cycles))
        .collect();
    let mut rows: Vec<Table5Row> = cycles
        .chunks_exact(variants.len())
        .enumerate()
        // A benchmark with any failed variant is dropped: every column of
        // its row is a cross-variant comparison.
        .filter_map(|(b, chunk)| {
            let [normal, def, max, wjl] = [chunk[0]?, chunk[1]?, chunk[2]?, chunk[3]?];
            let (best_pred, best_pred_label) = if def <= max { (def, "DEF") } else { (max, "MAX") };
            let (best, best_label) = if normal < best_pred {
                (normal, "BR")
            } else {
                (best_pred, best_pred_label)
            };
            let pct = |base: u64| (base as f64 - wjl as f64) * 100.0 / base as f64;
            Some(Table5Row {
                name: runner.benches()[b].name.into(),
                vs_normal_pct: pct(normal),
                vs_best_predicated_pct: pct(best_pred),
                best_predicated: best_pred_label,
                vs_best_pct: pct(best),
                best: best_label,
            })
        })
        .collect();
    // AVG row (arithmetic mean of the reductions, as in the paper) — over
    // the surviving benchmarks; omitted if every benchmark failed.
    let n = rows.len() as f64;
    if !rows.is_empty() {
        rows.push(Table5Row {
            name: "AVG".into(),
            vs_normal_pct: rows.iter().map(|r| r.vs_normal_pct).sum::<f64>() / n,
            vs_best_predicated_pct: rows.iter().map(|r| r.vs_best_predicated_pct).sum::<f64>() / n,
            best_predicated: "-",
            vs_best_pct: rows.iter().map(|r| r.vs_best_pct).sum::<f64>() / n,
            best: "-",
        });
    }
    rows
}
