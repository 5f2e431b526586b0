//! # wishbranch-core
//!
//! The top-level experiment API of the wish-branches reproduction: profile
//! a workload, compile it into any of the paper's five binary variants,
//! simulate it on the configured machine, and regenerate every table and
//! figure of the paper's evaluation (§5).
//!
//! The crate ties together:
//!
//! * [`wishbranch_workloads`] — the nine SPEC-INT-2000-like benchmarks with
//!   input sets A/B/C;
//! * [`wishbranch_compiler`] — the Table 3 binary variants;
//! * [`wishbranch_uarch`] — the Table 2 out-of-order machine with
//!   wish-branch hardware.
//!
//! Every simulation is verified on the fly: the cycle simulator's retired
//! memory image must match the functional reference machine's, so a figure
//! can never silently come from a architecturally-broken run.
//!
//! # The experiment API
//!
//! All experiments run through one [`SweepRunner`], which owns the
//! memoized profile/compile caches and the worker pool. Build one, then
//! run any entry of the [`Experiment`] catalog on it: the catalog wraps
//! every paper experiment behind a stable id and returns a serializable
//! [`Report`]:
//!
//! ```
//! use wishbranch_core::{Experiment, ExperimentConfig, SweepRunner};
//!
//! let runner = SweepRunner::new(&ExperimentConfig::quick(60)); // tiny doctest scale
//! let report = Experiment::Fig10.run(&runner);
//! assert_eq!(report.id, "fig10");
//! assert!(report.to_json().starts_with("{\"schema\":\"wishbranch.report/v1\""));
//! ```
//!
//! Single-binary runs (no runner needed) go through [`run_binary`], and
//! pipeview traces through [`trace_binary`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod catalog;
mod engine;
mod error;
mod experiment;
mod figures;
pub mod journal;
pub mod minijson;
mod render;
mod report;
mod request;
mod serve;
mod store;
mod tables;
mod validate;

pub use ablation::AblationPoint;
pub use catalog::Experiment;
pub use engine::{
    default_workers, JobObserver, JobPhases, JobResult, SweepJob, SweepRunner, SweepSummary,
    TrainSpec, WORKERS_ENV,
};
pub use error::{
    ChaosKind, ChaosPlan, FaultKind, FaultPlan, InjectionPlan, JobError, JobFailure, PlanKind,
};
pub use journal::JournalError;
pub use experiment::{
    compile_adaptive_variant, compile_variant, profile_on, run_binary, simulate, trace_binary,
    verify_retired_state, ExperimentConfig, RunOutcome, DEFAULT_STEP_BUDGET,
};
pub use figures::{Fig11Row, Fig13Row, FigureData, NormalizedRow, SweepRow};
pub use render::{
    bar_chart, failure_table, fig11_table, fig13_table, sweep_summary_table, sweep_table,
    table4_table, table5_table, Table,
};
pub use report::{
    json_escape, summary_json, summary_json_with_failures, throughput_json, Report, ReportData,
};
pub use request::{
    parse_input_set, Budgets, RequestError, SweepRequest, BATCH_ENV, FAULT_PLAN_ENV,
    REQUEST_SCHEMA,
};
pub use serve::{
    client_stream, client_stream_resilient, respawn_backoff, worker_main, ResilientStream,
    ResponseLine, ResponseStream, ServeConfig, Server, RESPONSE_SCHEMA, WORKER_SPEC_SCHEMA,
};
pub use store::ArtifactStore;
pub use tables::{Table4Row, Table5Row};
pub use validate::{
    fuzz_lockstep, shrink_case, validate_suite, FuzzCase, FuzzOutcome, FuzzReport,
    ValidateReport,
};

/// Everything most experiment drivers need, in one import:
/// `use wishbranch_core::prelude::*;`.
pub mod prelude {
    pub use crate::catalog::Experiment;
    pub use crate::engine::{SweepJob, SweepRunner, SweepSummary};
    pub use crate::error::{FaultKind, FaultPlan, JobError, JobFailure};
    pub use crate::experiment::{run_binary, trace_binary, ExperimentConfig};
    pub use crate::report::{summary_json, Report, ReportData};
    pub use crate::request::SweepRequest;
    pub use crate::store::ArtifactStore;
    pub use wishbranch_compiler::BinaryVariant;
    pub use wishbranch_workloads::{suite, InputSet};
}
