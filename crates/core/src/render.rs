//! Plain-text rendering of figures and tables for the bench harness.

use crate::engine::SweepSummary;
use crate::error::JobFailure;
use crate::figures::{Fig11Row, Fig13Row, FigureData, SweepRow};
use crate::tables::{Table4Row, Table5Row};
use std::fmt;

/// A generic fixed-width text table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table {
    /// Optional title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (first column is usually the benchmark name).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Builds a table with the given title and headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Table {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("  {cell:>width$}", width = widths[i]));
                }
            }
            writeln!(f, "{line}")
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

// Non-finite values are failed cells; they render as an explicit "-" gap.
fn f2(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "-".to_string()
    }
}

fn f1(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "-".to_string()
    }
}

impl From<&FigureData> for Table {
    fn from(fig: &FigureData) -> Table {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(fig.series.iter().cloned());
        let mut t = Table::new(fig.title.clone(), headers);
        for row in &fig.rows {
            let mut cells = vec![row.name.clone()];
            cells.extend(row.values.iter().map(|&v| f2(v)));
            t.push_row(cells);
        }
        t
    }
}

/// Renders Fig. 11 rows (counts per 1M retired µops).
#[must_use]
pub fn fig11_table(rows: &[Fig11Row]) -> Table {
    let mut t = Table::new(
        "Fig.11: dynamic wish jumps/joins per 1M retired µops by class",
        ["benchmark", "low-conf (mispred)", "low-conf (correct)", "high-conf (mispred)", "high-conf (correct)"]
            .map(String::from)
            .to_vec(),
    );
    for r in rows {
        t.push_row(vec![
            r.name.clone(),
            f1(r.low_mispredicted),
            f1(r.low_correct),
            f1(r.high_mispredicted),
            f1(r.high_correct),
        ]);
    }
    t
}

/// Renders Fig. 13 rows.
#[must_use]
pub fn fig13_table(rows: &[Fig13Row]) -> Table {
    let mut t = Table::new(
        "Fig.13: dynamic wish loops per 1M retired µops by class",
        ["benchmark", "no-exit", "late-exit", "early-exit", "low-conf correct", "high mispred", "high correct"]
            .map(String::from)
            .to_vec(),
    );
    for r in rows {
        t.push_row(vec![
            r.name.clone(),
            f1(r.low_no_exit),
            f1(r.low_late_exit),
            f1(r.low_early_exit),
            f1(r.low_correct),
            f1(r.high_mispredicted),
            f1(r.high_correct),
        ]);
    }
    t
}

/// Renders a Fig. 14/15 sweep.
#[must_use]
pub fn sweep_table(title: &str, param_name: &str, rows: &[SweepRow]) -> Table {
    let mut headers = vec![param_name.to_string()];
    if let Some(first) = rows.first() {
        for s in &first.series {
            headers.push(format!("{s} AVG"));
        }
        for s in &first.series {
            headers.push(format!("{s} AVGnomcf"));
        }
    }
    let mut t = Table::new(title, headers);
    for r in rows {
        let mut cells = vec![r.param.to_string()];
        cells.extend(r.avg.iter().map(|&v| f2(v)));
        cells.extend(r.avg_nomcf.iter().map(|&v| f2(v)));
        t.push_row(cells);
    }
    t
}

/// Renders Table 4.
#[must_use]
pub fn table4_table(rows: &[Table4Row]) -> Table {
    let mut t = Table::new(
        "Table 4: simulated benchmarks",
        ["benchmark", "dyn µops", "static br", "dyn br", "misp/Kµop", "µPC", "static wish (%loop)", "dyn wish (%loop)"]
            .map(String::from)
            .to_vec(),
    );
    for r in rows {
        t.push_row(vec![
            r.name.clone(),
            r.dynamic_uops.to_string(),
            r.static_branches.to_string(),
            r.dynamic_branches.to_string(),
            f1(r.mispredicts_per_kuop),
            f2(r.upc),
            format!("{} ({:.0}%)", r.static_wish, r.static_wish_loop_pct),
            format!("{} ({:.0}%)", r.dynamic_wish, r.dynamic_wish_loop_pct),
        ]);
    }
    t
}

/// Renders Table 5.
#[must_use]
pub fn table5_table(rows: &[Table5Row]) -> Table {
    let mut t = Table::new(
        "Table 5: exec-time reduction of wish-jjl binary over best binaries",
        ["benchmark", "vs normal %", "vs best predicated %", "(which)", "vs best non-wish %", "(which)"]
            .map(String::from)
            .to_vec(),
    );
    for r in rows {
        t.push_row(vec![
            r.name.clone(),
            f1(r.vs_normal_pct),
            f1(r.vs_best_predicated_pct),
            r.best_predicated.to_string(),
            f1(r.vs_best_pct),
            r.best.to_string(),
        ]);
    }
    t
}

/// Renders a [`SweepSummary`]: job counts, cache effectiveness, and the
/// serial-equivalent vs wall-clock time (their ratio is the parallel
/// speedup the worker pool achieved).
#[must_use]
pub fn sweep_summary_table(summary: &SweepSummary) -> Table {
    let mut t = Table::new(
        "Sweep summary",
        ["metric", "value"].map(String::from).to_vec(),
    );
    t.push_row(vec!["jobs".into(), summary.jobs.to_string()]);
    t.push_row(vec!["workers".into(), summary.workers.to_string()]);
    t.push_row(vec!["failed".into(), summary.failed.to_string()]);
    t.push_row(vec!["retries".into(), summary.retries.to_string()]);
    t.push_row(vec![
        "journal hits".into(),
        summary.journal_hits.to_string(),
    ]);
    t.push_row(vec![
        "profile cache".into(),
        format!(
            "{} hits / {} misses",
            summary.profile_hits, summary.profile_misses
        ),
    ]);
    t.push_row(vec![
        "compile cache".into(),
        format!(
            "{} hits / {} misses ({:.0}% hit rate)",
            summary.compile_hits,
            summary.compile_misses,
            summary.compile_hit_rate() * 100.0
        ),
    ]);
    t.push_row(vec![
        "job time (serial equivalent)".into(),
        format!("{:.2}s", summary.job_time.as_secs_f64()),
    ]);
    t.push_row(vec![
        "wall time".into(),
        format!("{:.2}s", summary.wall_time.as_secs_f64()),
    ]);
    t.push_row(vec![
        "parallel speedup".into(),
        format!("{:.2}x", summary.parallel_speedup()),
    ]);
    t.push_row(vec![
        "phase: profile".into(),
        format!("{:.2}s", summary.profile_time.as_secs_f64()),
    ]);
    t.push_row(vec![
        "phase: compile".into(),
        format!("{:.2}s", summary.compile_time.as_secs_f64()),
    ]);
    t.push_row(vec![
        "phase: simulate".into(),
        format!("{:.2}s", summary.simulate_time.as_secs_f64()),
    ]);
    t.push_row(vec![
        "phase: verify".into(),
        format!("{:.2}s", summary.verify_time.as_secs_f64()),
    ]);
    t.push_row(vec![
        "sim throughput (cycles/s)".into(),
        format!("{:.0}", summary.cycles_per_sec()),
    ]);
    t.push_row(vec![
        "sim throughput (uops/s)".into(),
        format!("{:.0}", summary.uops_per_sec()),
    ]);
    t
}

/// Renders the failure table: one row per [`JobFailure`], in the order
/// they were recorded (see [`SweepRunner::failures`]).
///
/// [`SweepRunner::failures`]: crate::SweepRunner::failures
#[must_use]
pub fn failure_table(failures: &[JobFailure]) -> Table {
    let mut t = Table::new(
        "Failed jobs",
        ["job#", "bench", "variant", "input", "kind", "attempts", "error"]
            .map(String::from)
            .to_vec(),
    );
    for f in failures {
        t.push_row(vec![
            f.index.to_string(),
            f.job.bench.to_string(),
            f.job.variant.label().to_string(),
            f.job.input.label().to_string(),
            f.error.kind().to_string(),
            f.attempts.to_string(),
            f.error.to_string(),
        ]);
    }
    t
}

/// Renders one series of a figure as a horizontal ASCII bar chart
/// (normalized execution times; a `|` marks 1.0 — the normal-branch
/// baseline — so wins and losses are visible at a glance).
#[must_use]
pub fn bar_chart(fig: &FigureData, series_idx: usize, width: usize) -> String {
    let mut out = String::new();
    let series = fig.series.get(series_idx).cloned().unwrap_or_default();
    out.push_str(&format!("{} — {}\n", fig.title, series));
    let max = fig
        .rows
        .iter()
        .filter_map(|r| r.values.get(series_idx))
        .fold(1.0f64, |m, &v| m.max(v));
    let name_w = fig.rows.iter().map(|r| r.name.len()).max().unwrap_or(4);
    for row in &fig.rows {
        let Some(&v) = row.values.get(series_idx) else { continue };
        if !v.is_finite() {
            out.push_str(&format!("{:<name_w$} (failed)\n", row.name));
            continue;
        }
        let bar_len = ((v / max) * width as f64).round() as usize;
        let one_pos = ((1.0 / max) * width as f64).round() as usize;
        let mut bar = String::new();
        for i in 0..width.max(one_pos) + 1 {
            if i == one_pos {
                bar.push('|');
            } else if i < bar_len {
                bar.push('#');
            } else {
                bar.push(' ');
            }
        }
        out.push_str(&format!("{:<name_w$} {bar} {v:.3}\n", row.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", vec!["a".into(), "value".into()]);
        t.push_row(vec!["gzip".into(), "1.000".into()]);
        t.push_row(vec!["longername".into(), "0.5".into()]);
        let s = t.to_string();
        assert!(s.contains("T\n"));
        assert!(s.lines().count() >= 4);
        // Header and rows align: every line has the same visual width or less.
        assert!(s.contains("longername"));
    }

    #[test]
    fn bar_chart_marks_the_baseline() {
        let fig = FigureData {
            title: "t".into(),
            series: vec!["s".into()],
            rows: vec![
                crate::figures::NormalizedRow {
                    name: "fast".into(),
                    values: vec![0.5],
                },
                crate::figures::NormalizedRow {
                    name: "slow".into(),
                    values: vec![2.0],
                },
            ],
        };
        let chart = bar_chart(&fig, 0, 40);
        assert!(chart.contains('|'), "baseline marker present");
        assert!(chart.contains("0.500") && chart.contains("2.000"));
        let fast_line = chart.lines().find(|l| l.starts_with("fast")).unwrap();
        let slow_line = chart.lines().find(|l| l.starts_with("slow")).unwrap();
        assert!(
            slow_line.matches('#').count() > fast_line.matches('#').count(),
            "longer bar for larger value"
        );
    }

    #[test]
    fn gaps_render_as_dashes_and_failure_table_lists_kinds() {
        assert_eq!(f2(f64::NAN), "-");
        assert_eq!(f1(f64::NAN), "-");
        assert_eq!(f2(0.5), "0.500");

        use crate::engine::SweepJob;
        use crate::error::{JobError, JobFailure};
        use crate::experiment::ExperimentConfig;
        let ec = ExperimentConfig::quick(20);
        let t = failure_table(&[JobFailure {
            job: Box::new(SweepJob::standard(1, wishbranch_compiler::BinaryVariant::BaseMax,
                wishbranch_workloads::InputSet::C, &ec)),
            index: 3,
            error: JobError::VerifyDivergence { detail: "addr 0x0".into() },
            attempts: 1,
        }]);
        let s = t.to_string();
        assert!(s.contains("verify_divergence"));
        assert!(s.contains("addr 0x0"));
    }

    #[test]
    fn figure_data_to_table() {
        let fig = FigureData {
            title: "f".into(),
            series: vec!["s1".into()],
            rows: vec![crate::figures::NormalizedRow {
                name: "x".into(),
                values: vec![0.5],
            }],
        };
        let t = Table::from(&fig);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][1], "0.500");
    }
}
