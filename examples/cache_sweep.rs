//! The paper's §5.4 locality methodology as an example: sweep the L1
//! capacity of an Atom-like in-order core and watch where each workload's
//! instruction miss-ratio curve flattens — that knee is its instruction
//! footprint (Hadoop ≈ 1 MiB, MPI ≈ traditional benchmarks).
//!
//! ```sh
//! cargo run --release --example cache_sweep
//! ```

use bigdatabench_repro::prelude::*;
use sim::PAPER_SWEEP_KIB;

fn main() {
    let scale = workloads::Scale::small();
    let mut defs = workloads::catalog::full_catalog();
    defs.extend(workloads::catalog::mpi_workloads());

    println!("L1I miss ratio (%) while sweeping the L1 capacity:\n");
    print!("{:14}", "capacity KiB");
    for kib in PAPER_SWEEP_KIB {
        print!("{kib:>8}");
    }
    println!();

    let engine = engine::Engine::in_memory();
    for id in ["H-WordCount", "M-WordCount"] {
        let def = defs.iter().find(|w| w.spec.id == id).expect("workload");
        let result = engine.sweep(id, &PAPER_SWEEP_KIB, |sink| {
            let _ = def.run(sink, scale);
        });
        print!("{id:14}");
        for (_, ratio) in &result.instruction.points {
            print!("{:>8.3}", ratio * 100.0);
        }
        println!();
        if let Some(knee) = result.instruction.footprint_kib(0.0008) {
            println!("{:14} instruction footprint ~{} KiB", "", knee);
        }
    }
}
