//! The typed report model: every figure, table and sweep of the
//! reproduction as one machine-readable [`Report`] value with hand-rolled
//! JSON and CSV emitters (this environment cannot reach a package
//! registry, so there is deliberately no serde dependency).
//!
//! ## JSON schema (`wishbranch.report/v1`)
//!
//! Every report serializes to one object:
//!
//! ```json
//! {"schema":"wishbranch.report/v1","id":"fig10","kind":"figure",
//!  "title":"...","data":{...}}
//! ```
//!
//! The `data` payload is keyed by `kind`:
//!
//! | kind             | data                                                  |
//! |------------------|-------------------------------------------------------|
//! | `figure`         | `{series:[…], rows:[{name, values:[…]}]}`             |
//! | `confidence`     | `{rows:[{name, low_mispredicted, low_correct, high_mispredicted, high_correct}]}` |
//! | `loop_breakdown` | `{rows:[{name, low_no_exit, low_late_exit, low_early_exit, low_correct, high_mispredicted, high_correct}]}` |
//! | `sweep`          | `{param, points:[{param, series:[…], avg:[…], avg_nomcf:[…]}]}` |
//! | `table4`         | `{rows:[{name, dynamic_uops, …}]}`                    |
//! | `table5`         | `{rows:[{name, vs_normal_pct, …}]}`                   |
//! | `ablation`       | `{param, points:[{param, avg_normalized}]}`           |
//!
//! Floats are always emitted with six decimal places, so values are stable
//! across runs and diffs are meaningful. [`summary_json`] serializes a
//! [`SweepSummary`] (schema `wishbranch.summary/v1`) with job counts,
//! cache statistics and the per-phase host-time breakdown.

use crate::ablation::AblationPoint;
use crate::engine::SweepSummary;
use crate::figures::{Fig11Row, Fig13Row, FigureData, SweepRow};
use crate::render::{fig11_table, fig13_table, sweep_table, table4_table, table5_table, Table};
use crate::tables::{Table4Row, Table5Row};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON double-quoted literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a CSV field (quotes it when it contains a separator or quote).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A JSON float: six decimals, or the literal `null` for a non-finite
/// value — the explicit-gap encoding of a failed cell (JSON has no NaN).
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A CSV float cell: six decimals, or an empty field for a non-finite
/// value (the CSV rendering of a failed cell's gap).
fn cf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        String::new()
    }
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

fn jarr_f(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| jf(v)).collect();
    format!("[{}]", items.join(","))
}

fn jarr_s(vs: &[String]) -> String {
    let items: Vec<String> = vs.iter().map(|s| jstr(s)).collect();
    format!("[{}]", items.join(","))
}

/// The typed payload of a [`Report`].
#[derive(Clone, PartialEq, Debug)]
pub enum ReportData {
    /// A normalized-execution-time bar chart (Figs. 1/2/10/12/16 and the
    /// extension figures).
    Figure(FigureData),
    /// The Fig. 11 confidence breakdown.
    Confidence(Vec<Fig11Row>),
    /// The Fig. 13 wish-loop outcome breakdown.
    LoopBreakdown(Vec<Fig13Row>),
    /// A machine-parameter sweep (Figs. 14/15).
    ParamSweep {
        /// Name of the swept parameter (`window`, `depth`).
        param: String,
        /// One row per parameter value.
        rows: Vec<SweepRow>,
    },
    /// Table 4 benchmark characteristics.
    Benchmarks(Vec<Table4Row>),
    /// Table 5 best-binary comparison.
    BestBinary(Vec<Table5Row>),
    /// An ablation sweep (`param` → average normalized exec time).
    Ablation {
        /// Name of the swept parameter.
        param: String,
        /// One point per parameter value.
        points: Vec<AblationPoint>,
    },
}

/// One experiment's results in machine-readable form: serialize with
/// [`Report::to_json`] / [`Report::to_csv`], or pretty-print with
/// [`Report::render`].
#[derive(Clone, PartialEq, Debug)]
pub struct Report {
    /// Stable experiment id (`fig10`, `tab5`, `abl_mshr`, …); used as the
    /// file stem by `--report-dir`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The typed payload.
    pub data: ReportData,
}

impl Report {
    /// Wraps a figure (the title is taken from the figure itself).
    #[must_use]
    pub fn figure(id: &str, fig: FigureData) -> Report {
        Report {
            id: id.into(),
            title: fig.title.clone(),
            data: ReportData::Figure(fig),
        }
    }

    /// Wraps an ablation sweep.
    #[must_use]
    pub fn ablation(id: &str, title: &str, param: &str, points: Vec<AblationPoint>) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            data: ReportData::Ablation {
                param: param.into(),
                points,
            },
        }
    }

    /// The schema `kind` discriminator of this report's payload.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match &self.data {
            ReportData::Figure(_) => "figure",
            ReportData::Confidence(_) => "confidence",
            ReportData::LoopBreakdown(_) => "loop_breakdown",
            ReportData::ParamSweep { .. } => "sweep",
            ReportData::Benchmarks(_) => "table4",
            ReportData::BestBinary(_) => "table5",
            ReportData::Ablation { .. } => "ablation",
        }
    }

    /// Serializes to one `wishbranch.report/v1` JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"wishbranch.report/v1\",\"id\":{},\"kind\":{},\"title\":{},\"data\":{}}}",
            jstr(&self.id),
            jstr(self.kind()),
            jstr(&self.title),
            self.data_json()
        )
    }

    fn data_json(&self) -> String {
        match &self.data {
            ReportData::Figure(fig) => {
                let rows: Vec<String> = fig
                    .rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"name\":{},\"values\":{}}}",
                            jstr(&r.name),
                            jarr_f(&r.values)
                        )
                    })
                    .collect();
                format!(
                    "{{\"series\":{},\"rows\":[{}]}}",
                    jarr_s(&fig.series),
                    rows.join(",")
                )
            }
            ReportData::Confidence(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"name\":{},\"low_mispredicted\":{},\"low_correct\":{},\"high_mispredicted\":{},\"high_correct\":{}}}",
                            jstr(&r.name),
                            jf(r.low_mispredicted),
                            jf(r.low_correct),
                            jf(r.high_mispredicted),
                            jf(r.high_correct)
                        )
                    })
                    .collect();
                format!("{{\"rows\":[{}]}}", rows.join(","))
            }
            ReportData::LoopBreakdown(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"name\":{},\"low_no_exit\":{},\"low_late_exit\":{},\"low_early_exit\":{},\"low_correct\":{},\"high_mispredicted\":{},\"high_correct\":{}}}",
                            jstr(&r.name),
                            jf(r.low_no_exit),
                            jf(r.low_late_exit),
                            jf(r.low_early_exit),
                            jf(r.low_correct),
                            jf(r.high_mispredicted),
                            jf(r.high_correct)
                        )
                    })
                    .collect();
                format!("{{\"rows\":[{}]}}", rows.join(","))
            }
            ReportData::ParamSweep { param, rows } => {
                let points: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"param\":{},\"series\":{},\"avg\":{},\"avg_nomcf\":{}}}",
                            r.param,
                            jarr_s(&r.series),
                            jarr_f(&r.avg),
                            jarr_f(&r.avg_nomcf)
                        )
                    })
                    .collect();
                format!(
                    "{{\"param\":{},\"points\":[{}]}}",
                    jstr(param),
                    points.join(",")
                )
            }
            ReportData::Benchmarks(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"name\":{},\"dynamic_uops\":{},\"static_branches\":{},\"dynamic_branches\":{},\"mispredicts_per_kuop\":{},\"upc\":{},\"static_wish\":{},\"static_wish_loop_pct\":{},\"dynamic_wish\":{},\"dynamic_wish_loop_pct\":{}}}",
                            jstr(&r.name),
                            r.dynamic_uops,
                            r.static_branches,
                            r.dynamic_branches,
                            jf(r.mispredicts_per_kuop),
                            jf(r.upc),
                            r.static_wish,
                            jf(r.static_wish_loop_pct),
                            r.dynamic_wish,
                            jf(r.dynamic_wish_loop_pct)
                        )
                    })
                    .collect();
                format!("{{\"rows\":[{}]}}", rows.join(","))
            }
            ReportData::BestBinary(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"name\":{},\"vs_normal_pct\":{},\"vs_best_predicated_pct\":{},\"best_predicated\":{},\"vs_best_pct\":{},\"best\":{}}}",
                            jstr(&r.name),
                            jf(r.vs_normal_pct),
                            jf(r.vs_best_predicated_pct),
                            jstr(r.best_predicated),
                            jf(r.vs_best_pct),
                            jstr(r.best)
                        )
                    })
                    .collect();
                format!("{{\"rows\":[{}]}}", rows.join(","))
            }
            ReportData::Ablation { param, points } => {
                let points: Vec<String> = points
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"param\":{},\"avg_normalized\":{}}}",
                            p.param,
                            jf(p.avg_normalized)
                        )
                    })
                    .collect();
                format!(
                    "{{\"param\":{},\"points\":[{}]}}",
                    jstr(param),
                    points.join(",")
                )
            }
        }
    }

    /// Serializes to CSV: one header line, one line per row/point. Floats
    /// use six decimal places, matching the JSON emitter.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        match &self.data {
            ReportData::Figure(fig) => {
                let mut header = vec!["benchmark".to_string()];
                header.extend(fig.series.iter().cloned());
                push_csv_row(&mut out, &header);
                for r in &fig.rows {
                    let mut cells = vec![r.name.clone()];
                    cells.extend(r.values.iter().map(|&v| cf(v)));
                    push_csv_row(&mut out, &cells);
                }
            }
            ReportData::Confidence(rows) => {
                push_csv_row(
                    &mut out,
                    &[
                        "benchmark".into(),
                        "low_mispredicted".into(),
                        "low_correct".into(),
                        "high_mispredicted".into(),
                        "high_correct".into(),
                    ],
                );
                for r in rows {
                    push_csv_row(
                        &mut out,
                        &[
                            r.name.clone(),
                            cf(r.low_mispredicted),
                            cf(r.low_correct),
                            cf(r.high_mispredicted),
                            cf(r.high_correct),
                        ],
                    );
                }
            }
            ReportData::LoopBreakdown(rows) => {
                push_csv_row(
                    &mut out,
                    &[
                        "benchmark".into(),
                        "low_no_exit".into(),
                        "low_late_exit".into(),
                        "low_early_exit".into(),
                        "low_correct".into(),
                        "high_mispredicted".into(),
                        "high_correct".into(),
                    ],
                );
                for r in rows {
                    push_csv_row(
                        &mut out,
                        &[
                            r.name.clone(),
                            cf(r.low_no_exit),
                            cf(r.low_late_exit),
                            cf(r.low_early_exit),
                            cf(r.low_correct),
                            cf(r.high_mispredicted),
                            cf(r.high_correct),
                        ],
                    );
                }
            }
            ReportData::ParamSweep { param, rows } => {
                let mut header = vec![param.clone()];
                if let Some(first) = rows.first() {
                    for s in &first.series {
                        header.push(format!("{s} AVG"));
                    }
                    for s in &first.series {
                        header.push(format!("{s} AVGnomcf"));
                    }
                }
                push_csv_row(&mut out, &header);
                for r in rows {
                    let mut cells = vec![r.param.to_string()];
                    cells.extend(r.avg.iter().map(|&v| cf(v)));
                    cells.extend(r.avg_nomcf.iter().map(|&v| cf(v)));
                    push_csv_row(&mut out, &cells);
                }
            }
            ReportData::Benchmarks(rows) => {
                push_csv_row(
                    &mut out,
                    &[
                        "benchmark".into(),
                        "dynamic_uops".into(),
                        "static_branches".into(),
                        "dynamic_branches".into(),
                        "mispredicts_per_kuop".into(),
                        "upc".into(),
                        "static_wish".into(),
                        "static_wish_loop_pct".into(),
                        "dynamic_wish".into(),
                        "dynamic_wish_loop_pct".into(),
                    ],
                );
                for r in rows {
                    push_csv_row(
                        &mut out,
                        &[
                            r.name.clone(),
                            r.dynamic_uops.to_string(),
                            r.static_branches.to_string(),
                            r.dynamic_branches.to_string(),
                            cf(r.mispredicts_per_kuop),
                            cf(r.upc),
                            r.static_wish.to_string(),
                            cf(r.static_wish_loop_pct),
                            r.dynamic_wish.to_string(),
                            cf(r.dynamic_wish_loop_pct),
                        ],
                    );
                }
            }
            ReportData::BestBinary(rows) => {
                push_csv_row(
                    &mut out,
                    &[
                        "benchmark".into(),
                        "vs_normal_pct".into(),
                        "vs_best_predicated_pct".into(),
                        "best_predicated".into(),
                        "vs_best_pct".into(),
                        "best".into(),
                    ],
                );
                for r in rows {
                    push_csv_row(
                        &mut out,
                        &[
                            r.name.clone(),
                            cf(r.vs_normal_pct),
                            cf(r.vs_best_predicated_pct),
                            r.best_predicated.to_string(),
                            cf(r.vs_best_pct),
                            r.best.to_string(),
                        ],
                    );
                }
            }
            ReportData::Ablation { param, points } => {
                push_csv_row(&mut out, &[param.clone(), "avg_normalized".into()]);
                for p in points {
                    push_csv_row(&mut out, &[p.param.to_string(), cf(p.avg_normalized)]);
                }
            }
        }
        out
    }

    /// Pretty-prints the report as a fixed-width text [`Table`].
    #[must_use]
    pub fn render(&self) -> Table {
        match &self.data {
            ReportData::Figure(fig) => Table::from(fig),
            ReportData::Confidence(rows) => fig11_table(rows),
            ReportData::LoopBreakdown(rows) => fig13_table(rows),
            ReportData::ParamSweep { param, rows } => sweep_table(&self.title, param, rows),
            ReportData::Benchmarks(rows) => table4_table(rows),
            ReportData::BestBinary(rows) => table5_table(rows),
            ReportData::Ablation { param, points } => {
                let mut t = Table::new(
                    self.title.clone(),
                    vec![param.clone(), "avg normalized".into()],
                );
                for p in points {
                    t.push_row(vec![p.param.to_string(), format!("{:.3}", p.avg_normalized)]);
                }
                t
            }
        }
    }
}

fn push_csv_row(out: &mut String, cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| csv_field(c)).collect();
    out.push_str(&line.join(","));
    out.push('\n');
}

/// Serializes a [`SweepSummary`] to one `wishbranch.summary/v1` JSON
/// object: job counts (including failures, retries and journal hits),
/// cache statistics, timing, the per-phase host-time breakdown, and the
/// simulator-throughput block (simulated cycles / retired µops per
/// host-second of simulate-phase time; journal hits contribute nothing),
/// and the batch block (`size` = configured batch width, `batched_jobs`
/// = fresh successes that ran inside a same-binary group of two or more).
#[must_use]
pub fn summary_json(s: &SweepSummary) -> String {
    format!(
        "{{\"schema\":\"wishbranch.summary/v1\",\"jobs\":{},\"workers\":{},\
         \"failed\":{},\"retries\":{},\"journal_hits\":{},\
         \"profile_cache\":{{\"hits\":{},\"misses\":{}}},\
         \"compile_cache\":{{\"hits\":{},\"misses\":{}}},\
         \"artifact_store\":{{\"hits\":{},\"misses\":{},\"quarantined\":{}}},\
         \"job_time_s\":{},\"wall_time_s\":{},\"parallel_speedup\":{},\
         \"phase_time_s\":{{\"profile\":{},\"compile\":{},\"simulate\":{},\"verify\":{}}},\
         \"sim_throughput\":{{\"sim_cycles\":{},\"retired_uops\":{},\
         \"cycles_per_sec\":{},\"uops_per_sec\":{}}},\
         \"batch\":{{\"size\":{},\"batched_jobs\":{}}}}}",
        s.jobs,
        s.workers,
        s.failed,
        s.retries,
        s.journal_hits,
        s.profile_hits,
        s.profile_misses,
        s.compile_hits,
        s.compile_misses,
        s.store_hits,
        s.store_misses,
        s.store_quarantined,
        jf(s.job_time.as_secs_f64()),
        jf(s.wall_time.as_secs_f64()),
        jf(s.parallel_speedup()),
        jf(s.profile_time.as_secs_f64()),
        jf(s.compile_time.as_secs_f64()),
        jf(s.simulate_time.as_secs_f64()),
        jf(s.verify_time.as_secs_f64()),
        s.sim_cycles,
        s.sim_uops,
        jf(s.cycles_per_sec()),
        jf(s.uops_per_sec()),
        s.batch_size,
        s.batched_jobs,
    )
}

/// Serializes a [`SweepSummary`] to the `wishbranch.throughput/v1`
/// document the `perf-smoke` gate consumes (`BENCH_sim_throughput.json`):
/// simulator throughput (cycles/s, µops/s over simulate-phase time), the
/// raw numerators, the batch dimension (`batch_size`, `batched_jobs`),
/// and the per-phase host wall-clock.
#[must_use]
pub fn throughput_json(s: &SweepSummary) -> String {
    format!(
        "{{\"schema\":\"wishbranch.throughput/v1\",\"jobs\":{},\
         \"batch_size\":{},\"batched_jobs\":{},\
         \"sim_cycles\":{},\"retired_uops\":{},\
         \"cycles_per_sec\":{},\"uops_per_sec\":{},\
         \"phase_wall_s\":{{\"profile\":{},\"compile\":{},\"simulate\":{},\
         \"verify\":{},\"total\":{}}}}}",
        s.jobs,
        s.batch_size,
        s.batched_jobs,
        s.sim_cycles,
        s.sim_uops,
        jf(s.cycles_per_sec()),
        jf(s.uops_per_sec()),
        jf(s.profile_time.as_secs_f64()),
        jf(s.compile_time.as_secs_f64()),
        jf(s.simulate_time.as_secs_f64()),
        jf(s.verify_time.as_secs_f64()),
        jf(s.wall_time.as_secs_f64()),
    )
}

/// [`summary_json`] plus the failure table: one entry per failed job with
/// its submission index, typed kind, a short job label, the full error
/// message, and the attempt count. The `failures` array is always present
/// (empty on a clean sweep), so consumers get a stable schema.
#[must_use]
pub fn summary_json_with_failures(s: &SweepSummary, failures: &[crate::JobFailure]) -> String {
    let mut base = summary_json(s);
    base.truncate(base.len() - 1); // strip the closing brace, then extend
    format!("{base},\"failures\":[{}]}}", failures_json(failures))
}

/// The elements of a `failures` array, comma-separated and without the
/// brackets: one [`failure_item_json`] per failed job, labelled
/// `bench<i> <variant> @<input>`. The summary document and the served
/// `done` line both carry this list.
pub(crate) fn failures_json(failures: &[crate::JobFailure]) -> String {
    let items: Vec<String> = failures
        .iter()
        .map(|f| {
            let job = format!(
                "bench{} {} @{}",
                f.job.bench,
                f.job.variant.label(),
                f.job.input.label()
            );
            failure_item_json(f.index, f.error.kind(), &job, &f.error.to_string(), f.attempts)
        })
        .collect();
    items.join(",")
}

/// One element of a `failures` array:
/// `{"index","kind","job","error","attempts"}`.
pub(crate) fn failure_item_json(
    index: u64,
    kind: &str,
    job: &str,
    error: &str,
    attempts: u32,
) -> String {
    format!(
        "{{\"index\":{index},\"kind\":{},\"job\":{},\"error\":{},\"attempts\":{attempts}}}",
        jstr(kind),
        jstr(job),
        jstr(error)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::NormalizedRow;

    fn sample_figure() -> Report {
        Report::figure(
            "figx",
            FigureData {
                title: "t \"quoted\"".into(),
                series: vec!["a".into(), "b".into()],
                rows: vec![NormalizedRow {
                    name: "gzip".into(),
                    values: vec![1.0, 0.5],
                }],
            },
        )
    }

    #[test]
    fn figure_json_shape_and_escaping() {
        let j = sample_figure().to_json();
        assert!(j.starts_with("{\"schema\":\"wishbranch.report/v1\""));
        assert!(j.contains("\"kind\":\"figure\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"values\":[1.000000,0.500000]"));
    }

    #[test]
    fn figure_csv_has_header_and_rows() {
        let c = sample_figure().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "benchmark,a,b");
        assert_eq!(lines[1], "gzip,1.000000,0.500000");
    }

    #[test]
    fn csv_fields_are_quoted_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("with,comma"), "\"with,comma\"");
        assert_eq!(csv_field("with\"quote"), "\"with\"\"quote\"");
    }

    #[test]
    fn ablation_report_round_trip() {
        let r = Report::ablation(
            "abl_x",
            "X sweep",
            "x",
            vec![AblationPoint {
                param: 7,
                avg_normalized: 0.25,
            }],
        );
        assert_eq!(r.kind(), "ablation");
        assert!(r.to_json().contains("\"param\":7"));
        assert!(r.to_csv().contains("7,0.250000"));
        assert!(r.render().to_string().contains("0.250"));
    }

    #[test]
    fn summary_json_contains_phases() {
        let j = summary_json(&SweepSummary::default());
        assert!(j.contains("\"schema\":\"wishbranch.summary/v1\""));
        assert!(j.contains("\"phase_time_s\""));
        assert!(j.contains("\"simulate\":0.000000"));
        assert!(j.contains("\"failed\":0"));
        assert!(j.contains("\"retries\":0"));
        assert!(j.contains("\"journal_hits\":0"));
        assert!(j.contains("\"artifact_store\":{\"hits\":0,\"misses\":0,\"quarantined\":0}"));
    }

    #[test]
    fn failed_cells_are_explicit_gaps_in_json_and_csv() {
        let r = Report::figure(
            "figx",
            FigureData {
                title: "t".into(),
                series: vec!["a".into(), "b".into()],
                rows: vec![NormalizedRow {
                    name: "gzip".into(),
                    values: vec![f64::NAN, 0.5],
                }],
            },
        );
        assert!(r.to_json().contains("\"values\":[null,0.500000]"));
        assert!(r.to_csv().contains("gzip,,0.500000"));
    }

    #[test]
    fn summary_with_failures_lists_each_failure() {
        use crate::engine::SweepJob;
        use crate::error::{JobError, JobFailure};
        use crate::experiment::ExperimentConfig;
        use wishbranch_compiler::BinaryVariant;
        use wishbranch_workloads::InputSet;

        let ec = ExperimentConfig::quick(20);
        let failure = JobFailure {
            job: Box::new(SweepJob::standard(2, BinaryVariant::BaseDef, InputSet::A, &ec)),
            index: 7,
            error: JobError::WorkerPanic {
                payload: "boom".into(),
            },
            attempts: 2,
        };
        let j = summary_json_with_failures(&SweepSummary::default(), &[failure]);
        assert!(j.contains("\"failures\":[{\"index\":7,\"kind\":\"worker_panic\""));
        assert!(j.contains("\"attempts\":2"));
        assert!(j.ends_with("]}"));
        let clean = summary_json_with_failures(&SweepSummary::default(), &[]);
        assert!(clean.contains("\"failures\":[]"));
    }
}
