//! Quickstart: energy-efficient broadcast on multi-hop radio networks.
//!
//! Runs the paper's Theorem 11 broadcast (No-CD) and the classic BGI decay
//! broadcast on rings of two sizes. The point of the paper is the *growth
//! rate*: BGI's per-device energy grows linearly with the diameter, the
//! clustering algorithm's only polylogarithmically (with admittedly large
//! constants — visible below, and acknowledged by the theory: the bounds
//! are asymptotic).
//!
//! Run with: `cargo run --release --example quickstart`

use ebc_core::baseline::bgi_decay_broadcast;
use ebc_core::randomized::broadcast_theorem11;
use ebc_graphs::deterministic::cycle;
use ebc_radio::{Model, Sim};

fn main() {
    println!(
        "{:<10} {:>22} {:>22}",
        "n (ring)", "Thm 11 energy (max)", "BGI decay energy (max)"
    );
    let mut prev: Option<(u64, u64)> = None;
    for n in [128usize, 512, 2048] {
        let g = cycle(n);
        let mut sim = Sim::new(g.clone(), Model::NoCd, 7);
        let out = broadcast_theorem11(&mut sim, 0);
        assert!(out.all_informed(), "broadcast must reach everyone");
        let e_t11 = sim.meter().max_energy();

        let mut sim = Sim::new(g, Model::NoCd, 7);
        let out = bgi_decay_broadcast(&mut sim, 0);
        assert!(out.all_informed());
        let e_bgi = sim.meter().max_energy();

        print!("{n:<10} {e_t11:>22} {e_bgi:>22}");
        if let Some((p11, pbgi)) = prev {
            print!(
                "   (growth ×{:.2} vs ×{:.2})",
                e_t11 as f64 / p11 as f64,
                e_bgi as f64 / pbgi as f64
            );
        }
        println!();
        prev = Some((e_t11, e_bgi));
    }
    println!(
        "\nQuadrupling n multiplies BGI's energy by ~4 (it is Θ(D)); Theorem 11's\n\
         barely moves (Θ(log Δ log² n)). The asymptotic crossover sits beyond\n\
         these sizes — constants are real — but the *shape* is the paper's."
    );
}
