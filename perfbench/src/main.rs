//! End-to-end benchmark of polyquery.
//!
//! ```text
//! perfbench --workload <monitor-paper|sim-book|sim-aao> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! Each workload builds its inputs from the seed, repeats whole rounds
//! of the same work for `--seconds`, checks the program's outputs
//! against independent computations, and prints its metrics followed by
//! one JSON line. `--trace 0` gives the end-to-end metrics; `--trace 1`
//! runs one untraced and one traced round and gives the per-layer
//! metrics, writing the benchmark's own spans to `--trace-out`. See
//! README.md for the workloads and the metric map.

mod common;
mod monitor_paper;
mod sampler;
mod sim_workloads;

use common::Args;
use sim_workloads::Kind;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "monitor-paper" => monitor_paper::run_workload(&args),
        "sim-book" => sim_workloads::run_workload(&args, Kind::Book),
        "sim-aao" => sim_workloads::run_workload(&args, Kind::Aao),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.print(&args);
}
