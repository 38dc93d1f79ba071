//! A sensor-field scenario: broadcast a firmware-update announcement across
//! a grid of battery-powered sensors and compare the energy bill of every
//! algorithm that applies in the No-CD model (the cheapest radios have no
//! collision detection).
//!
//! Run with: `cargo run --release --example sensor_field`

use ebc_core::baseline::bgi_decay_broadcast;
use ebc_core::cluster::broadcast_theorem16;
use ebc_core::randomized::{broadcast_corollary13, broadcast_theorem11};
use ebc_graphs::deterministic::grid;
use ebc_radio::{Model, Sim};

fn main() {
    let side = 16;
    let graph = grid(side, side);
    let n = graph.n();
    println!(
        "sensor field: {side}×{side} grid, n = {n}, Δ = {}, D = {}\n",
        graph.max_degree(),
        2 * (side - 1)
    );
    println!(
        "{:<28} {:>12} {:>8} {:>8} {:>8}",
        "algorithm", "time (slots)", "E max", "E mean", "ok"
    );

    let row = |name: &str, f: &mut dyn FnMut(&mut Sim) -> bool| {
        let mut sim = Sim::new(graph.clone(), Model::NoCd, 1234);
        let ok = f(&mut sim);
        let r = sim.meter().report();
        println!(
            "{:<28} {:>12} {:>8} {:>8.1} {:>8}",
            name, r.time, r.max, r.mean, ok
        );
    };

    row("BGI decay [4]", &mut |sim| {
        bgi_decay_broadcast(sim, 0).all_informed()
    });
    row("Theorem 11 (clustering)", &mut |sim| {
        broadcast_theorem11(sim, 0).all_informed()
    });
    row("Corollary 13 (TDMA)", &mut |sim| {
        broadcast_corollary13(sim, 0).all_informed()
    });
    row("Theorem 16 (β = 0.25)", &mut |sim| {
        broadcast_theorem16(sim, 0, Some(0.25)).all_informed()
    });

    println!(
        "\nEvery algorithm informs all sensors; they differ in how the\n\
         time/energy budget is split — the paper's central tradeoff."
    );
}
