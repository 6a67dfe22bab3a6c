//! `perfbench --workload solo|mix|observed --seed N --seconds N --trace 0|1`

use cdf_perfbench::runner::{run, Options, USAGE};
use std::path::Path;
use std::process::exit;

// Counts heap allocations for the spans and the profiler, as `cdf-sim`
// does.
#[global_allocator]
static ALLOC: cdf_core::CountingAlloc = cdf_core::CountingAlloc;

fn main() {
    let opts = Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match run(&opts, cdf_sim::EvalConfig::default(), &out_dir) {
        Ok(report) => {
            eprint!("{}", report.summary);
            println!("{}", report.line);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
}
