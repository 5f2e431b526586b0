//! Regenerates the paper's tables and figures through the experiment
//! catalog: `cargo bench -p wishbranch-bench --bench paper -- [id]...`
//! runs the named experiments (every one when none is named) on one
//! shared runner, then prints each report and the sweep summary. An
//! unknown id exits 2 and lists the known ids. Simulator timing lives in
//! `perf_components` and `perf_smoke`.

use wishbranch_bench::{emit_report, paper_runner, print_sweep_summary};
use wishbranch_core::{Experiment, RequestError};

fn main() {
    let mut experiments = Vec::new();
    // Cargo passes `--bench` to every bench binary; it names no experiment.
    for arg in std::env::args().skip(1).filter(|a| a != "--bench") {
        let Some(experiment) = Experiment::from_id(&arg) else {
            eprintln!("{}", RequestError::UnknownExperiment(arg));
            std::process::exit(2)
        };
        experiments.push(experiment);
    }
    if experiments.is_empty() {
        experiments.extend(Experiment::ALL);
    }
    let runner = paper_runner();
    for experiment in experiments {
        emit_report(&experiment.run(&runner));
    }
    print_sweep_summary(&runner);
}
