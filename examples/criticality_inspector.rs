//! Criticality inspector: runs a kernel in CDF mode and dumps what the
//! identification machinery learned — the per-block criticality masks in the
//! Mask Cache and the traces resident in the Critical Uop Cache — next to
//! the program listing, the way the paper's Figs. 5–7 walk through the
//! astar example.
//!
//! ```text
//! cargo run --release --example criticality_inspector [workload]
//! ```

use cdf::core::{CdfConfig, Core, CoreConfig, CoreMode};
use cdf::isa::Pc;
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
    let w = registry::by_name(&name, &gen).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}`; known: {:?}", registry::NAMES);
        std::process::exit(1);
    });

    let cfg = CoreConfig {
        mode: CoreMode::Cdf(CdfConfig::default()),
        ..CoreConfig::default()
    };
    let mut core = Core::new(&w.program, w.memory.clone(), cfg);
    let stats = core.run(120_000);

    println!(
        "{name}: {} instructions in {} cycles (IPC {:.3})",
        stats.retired,
        stats.cycles,
        stats.ipc()
    );
    println!(
        "walks: {}   traces installed: {}   CDF entries: {}   critical uops issued: {}",
        stats.walks, stats.traces_installed, stats.cdf_entries, stats.critical_uops_issued
    );
    println!();

    let masks = core.mask_cache().expect("CDF mode has a mask cache");
    let uop_cache = core.uop_cache().expect("CDF mode has a uop cache");

    println!("program listing with learned criticality (C = in the Critical Uop Cache trace):");
    println!();
    for block in w.program.blocks() {
        let trace = uop_cache.peek(block.start);
        let mask = masks.get(block.start);
        let header = match (&trace, mask) {
            (Some(t), _) => format!(
                "block @ {} (len {}, {} critical uops in trace)",
                block.start,
                block.len,
                t.crit_count()
            ),
            (None, Some(_)) => format!("block @ {} (len {}, mask only)", block.start, block.len),
            (None, None) => format!("block @ {} (len {}, never marked)", block.start, block.len),
        };
        println!("-- {header}");
        for off in 0..block.len {
            let pc = Pc::new(block.start.index() as u32 + off);
            let in_trace = trace.is_some_and(|t| t.is_critical(off));
            let marker = if in_trace { "C" } else { " " };
            println!("   {marker} {pc:>6}  {}", w.program.uop(pc));
        }
    }
}
