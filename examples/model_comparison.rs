//! One network, every model: how collision detection, LOCAL, and
//! determinism change the broadcast bill (the paper's Table 1, vertically).
//!
//! Run with: `cargo run --release --example model_comparison`

use ebc_core::det::{broadcast_det_cd, broadcast_det_local, DetCdConfig, DetLocalConfig};
use ebc_core::randomized::{broadcast_theorem11, broadcast_theorem12};
use ebc_radio::{Model, Sim};

fn main() {
    let graph = ebc_graphs::random::bounded_degree(64, 4, 1.5, 9);
    println!(
        "network: n = {}, Δ = {}, D = {}\n",
        graph.n(),
        graph.max_degree(),
        graph.diameter_exact().expect("connected")
    );
    println!(
        "{:<34} {:>14} {:>8} {:>8}",
        "algorithm / model", "time (slots)", "E max", "E mean"
    );

    let row = |name: &str, model: Model, f: &mut dyn FnMut(&mut Sim) -> bool| {
        let mut sim = Sim::new(graph.clone(), model, 2024);
        let ok = f(&mut sim);
        assert!(ok, "{name} failed to inform everyone");
        let r = sim.meter().report();
        println!("{:<34} {:>14} {:>8} {:>8.1}", name, r.time, r.max, r.mean);
    };

    row("Thm 11, randomized LOCAL", Model::Local, &mut |sim| {
        broadcast_theorem11(sim, 0).all_informed()
    });
    row("Thm 11, randomized CD", Model::Cd, &mut |sim| {
        broadcast_theorem11(sim, 0).all_informed()
    });
    row("Thm 11, randomized No-CD", Model::NoCd, &mut |sim| {
        broadcast_theorem11(sim, 0).all_informed()
    });
    row("Thm 12, randomized CD (ε=0.5)", Model::Cd, &mut |sim| {
        broadcast_theorem12(sim, 0).all_informed()
    });
    row("Thm 25, deterministic LOCAL", Model::Local, &mut |sim| {
        broadcast_det_local(sim, 0, &DetLocalConfig::default()).all_informed()
    });
    row("Thm 27, deterministic CD", Model::Cd, &mut |sim| {
        broadcast_det_cd(sim, 0, &DetCdConfig::default()).all_informed()
    });

    println!(
        "\nStronger feedback (CD) buys energy; randomness buys time;\n\
         determinism pays for certainty with polynomial time (Thm 27)."
    );
}
