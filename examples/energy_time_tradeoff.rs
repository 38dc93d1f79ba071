//! The §6 time/energy tradeoff: sweeping β in the Theorem 16 algorithm
//! trades diameter-shrinking iterations (time) against per-iteration
//! communication (energy) — the knob behind
//! `O(D^{1+ε} polylog n)` time at `polylog n` energy.
//!
//! Run with: `cargo run --release --example energy_time_tradeoff`

use ebc_core::cluster::broadcast_theorem16;
use ebc_core::randomized::broadcast_theorem11;
use ebc_radio::{Model, Sim};

fn main() {
    let graph = ebc_graphs::deterministic::grid(12, 12);
    println!("network: 12×12 grid, n = {}, D = {}\n", graph.n(), 22);
    println!(
        "{:<26} {:>14} {:>8} {:>8}",
        "algorithm", "time (slots)", "E max", "E mean"
    );

    for beta in [0.4, 0.3, 0.2, 0.1] {
        let mut sim = Sim::new(graph.clone(), Model::NoCd, 77);
        let out = broadcast_theorem16(&mut sim, 0, Some(beta));
        assert!(out.all_informed());
        let r = sim.meter().report();
        println!(
            "{:<26} {:>14} {:>8} {:>8.1}",
            format!("Thm 16, β = {beta}"),
            r.time,
            r.max,
            r.mean
        );
    }

    let mut sim = Sim::new(graph, Model::NoCd, 77);
    let out = broadcast_theorem11(&mut sim, 0);
    assert!(out.all_informed());
    let r = sim.meter().report();
    println!(
        "{:<26} {:>14} {:>8} {:>8.1}",
        "Thm 11 (O(n)-time ref.)", r.time, r.max, r.mean
    );

    println!(
        "\nLarger β merges clusters faster per iteration but cuts more edges,\n\
         so more repair traffic; smaller β needs more iterations. Theorem 16\n\
         picks β = 1/log^{{1/ε}} n to balance the two."
    );
}
