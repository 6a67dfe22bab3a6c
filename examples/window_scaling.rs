//! Window-scaling explorer (the paper's §2.1/§4.4 argument): show that a
//! CDF core at one window size keeps pace with plain cores at much larger
//! window sizes on an MLP-bound kernel — parallelism from a bigger window
//! without paying for the bigger window.
//!
//! ```text
//! cargo run --release --example window_scaling [workload]
//! ```

use cdf::core::{CdfConfig, CoreConfig, CoreMode};
use cdf::sim::{run, EvalConfig, Measurement, Mechanism};
use cdf::workloads::{registry, GenConfig};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "astar_like".to_string());
    let gen = GenConfig {
        seed: 0xC0FFEE,
        scale: 1.0 / 16.0,
        iters: u64::MAX / 4,
    };
    let w = registry::lookup(&name, &gen).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let eval = EvalConfig {
        gen,
        warmup_instructions: 40_000,
        measure_instructions: 80_000,
        core: CoreConfig::default(),
        max_cycles: None,
        telemetry: None,
        diagnostics: false,
    };
    let measure = |mech: Mechanism, cfg: &EvalConfig| -> Measurement {
        run(&w, mech.mode(), mech.label(), cfg, false)
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", mech.label()))
            .measurement
    };

    println!("{name}: IPC of plain cores at growing window sizes vs a 352-entry CDF core");
    println!();
    println!("{:>6} {:>10} {:>10}", "ROB", "base IPC", "MLP");
    for rob in [192usize, 256, 352, 512, 704] {
        let cfg = EvalConfig {
            core: CoreConfig::default().with_scaled_window(rob),
            ..eval.clone()
        };
        let m = measure(Mechanism::Baseline, &cfg);
        println!("{rob:>6} {:>10.3} {:>10.2}", m.ipc, m.mlp);
    }
    let cdf_cfg = EvalConfig {
        core: CoreConfig {
            mode: CoreMode::Cdf(CdfConfig::default()),
            ..CoreConfig::default()
        },
        ..eval
    };
    let m = measure(Mechanism::Cdf, &cdf_cfg);
    println!();
    println!(
        "CDF @ ROB 352: IPC {:.3}, MLP {:.2} — the effective window critical \
         instructions see exceeds the physical ROB (§2.1)",
        m.ipc, m.mlp
    );
}
