//! Named, parameterized graph families for the benchmark harness.
//!
//! Each [`Family`] bundles a generator with the display name benches
//! report it under.

use ebc_radio::Graph;

use crate::{datasets, deterministic, random};

/// A named graph family, scalable in `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `deterministic::path`.
    Path,
    /// `deterministic::cycle`.
    Cycle,
    /// `deterministic::ladder` (n/2 rungs).
    Ladder,
    /// Near-square grid with ~n vertices.
    Grid,
    /// Complete binary tree with ≥ n vertices.
    BinaryTree,
    /// `random::bounded_degree` with Δ ≤ 4.
    BoundedDeg4,
    /// `random::bounded_degree` with Δ ≤ 16.
    BoundedDeg16,
    /// `random::gnp_connected` with expected degree ≈ 8.
    GnpAvgDeg8,
    /// `random::cluster_chain` with blocks of 8.
    ClusterChain8,
    /// `deterministic::k2k` with k = n − 2 middles.
    K2k,
    /// `deterministic::star` (hub + n−1 leaves).
    Star,
    /// `deterministic::hypercube` with dimension ⌊log₂ n⌉ — diameter and
    /// degree both `log n`, the densest family whose diameter still grows.
    Hypercube,
    /// `random::unit_disk` — random geometric graph with expected degree
    /// ≈ 8; collisions are spatially correlated.
    UnitDisk,
    /// `deterministic::barbell` — two n/3 cliques joined by an n/3 path;
    /// maximal contention at both ends of a long thin channel.
    Barbell,
    /// `datasets::social_instance` — a BFS ball of the vendored
    /// power-law social sample, rooted at its highest-degree hub. Real
    /// hub structure no synthetic family reproduces.
    DsSocial,
    /// `datasets::roadnet_instance` — a BFS ball of the vendored
    /// near-planar road/sensor mesh.
    DsRoadnet,
    /// `datasets::unit_disk_instance` — a unit-disk graph over real
    /// coordinates subsampled from the road dataset (expected degree ≈ 8).
    DsUnitDisk,
    /// `datasets::knn_instance` — a symmetric 6-nearest-neighbor sensor
    /// field over the same real coordinates.
    DsKnn,
    /// `datasets::chung_lu_instance` — a Chung-Lu graph matched to the
    /// social sample's observed degree sequence; power-law fan-out at any
    /// `n`.
    DsChungLu,
}

/// A generated instance plus its family's display name.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family display name.
    pub name: &'static str,
    /// The graph.
    pub graph: Graph,
}

impl Family {
    /// The family's display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Ladder => "ladder",
            Family::Grid => "grid",
            Family::BinaryTree => "binary-tree",
            Family::BoundedDeg4 => "bounded-deg-4",
            Family::BoundedDeg16 => "bounded-deg-16",
            Family::GnpAvgDeg8 => "gnp-avg-deg-8",
            Family::ClusterChain8 => "cluster-chain-8",
            Family::K2k => "K_{2,k}",
            Family::Star => "star",
            Family::Hypercube => "hypercube",
            Family::UnitDisk => "unit-disk",
            Family::Barbell => "barbell",
            Family::DsSocial => "ds-social",
            Family::DsRoadnet => "ds-roadnet",
            Family::DsUnitDisk => "ds-unit-disk",
            Family::DsKnn => "ds-knn",
            Family::DsChungLu => "ds-chung-lu",
        }
    }

    /// Every family, in declaration order.
    pub const ALL: [Family; 19] = [
        Family::Path,
        Family::Cycle,
        Family::Ladder,
        Family::Grid,
        Family::BinaryTree,
        Family::BoundedDeg4,
        Family::BoundedDeg16,
        Family::GnpAvgDeg8,
        Family::ClusterChain8,
        Family::K2k,
        Family::Star,
        Family::Hypercube,
        Family::UnitDisk,
        Family::Barbell,
        Family::DsSocial,
        Family::DsRoadnet,
        Family::DsUnitDisk,
        Family::DsKnn,
        Family::DsChungLu,
    ];

    /// Generates an instance with approximately `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n` is too small for the family (all families accept
    /// `n ≥ 8`).
    pub fn instance(self, n: usize, seed: u64) -> Instance {
        assert!(n >= 8, "families are defined for n >= 8");
        let graph = match self {
            Family::Path => deterministic::path(n),
            Family::Cycle => deterministic::cycle(n),
            Family::Ladder => deterministic::ladder(n / 2),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                deterministic::grid(side, side)
            }
            Family::BinaryTree => {
                // Smallest complete binary tree with ≥ n vertices: depth d
                // gives 2^{d+1} − 1 vertices. (The old ⌈log₂ n⌉ − 1 depth
                // undershot: instance(8) produced a 7-vertex tree.)
                let mut depth = 1u32;
                while (1usize << (depth + 1)) - 1 < n {
                    depth += 1;
                }
                deterministic::complete_tree(2, depth)
            }
            Family::BoundedDeg4 => random::bounded_degree(n, 4, 1.5, seed),
            Family::BoundedDeg16 => random::bounded_degree(n, 16, 4.0, seed),
            Family::GnpAvgDeg8 => {
                let p = (8.0 / n as f64).min(1.0);
                random::gnp_connected(n, p, seed)
            }
            Family::ClusterChain8 => {
                let blocks = (n / 8).max(1);
                random::cluster_chain(blocks, 8, seed)
            }
            Family::K2k => deterministic::k2k(n - 2),
            Family::Star => deterministic::star(n - 1),
            Family::Hypercube => {
                let d = ((n as f64).log2().round() as u32).max(3);
                deterministic::hypercube(d)
            }
            Family::UnitDisk => {
                // πr²n ≈ 8 → expected degree ≈ 8, above the connectivity
                // threshold at bench sizes.
                let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
                random::unit_disk(n, r, seed)
            }
            Family::Barbell => {
                let k = (n / 3).max(3);
                deterministic::barbell(k, n.saturating_sub(2 * k))
            }
            Family::DsSocial => datasets::social_instance(n),
            Family::DsRoadnet => datasets::roadnet_instance(n),
            Family::DsUnitDisk => datasets::unit_disk_instance(n, seed),
            Family::DsKnn => datasets::knn_instance(n, seed),
            Family::DsChungLu => datasets::chung_lu_instance(n, seed),
        };
        Instance {
            name: self.name(),
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_generates_connected_instances() {
        for fam in Family::ALL {
            let inst = fam.instance(64, 12345);
            assert!(
                inst.graph.is_connected(),
                "{} disconnected at n=64",
                fam.name()
            );
        }
    }

    #[test]
    fn instance_sizes_are_close_to_requested() {
        for fam in Family::ALL {
            let inst = fam.instance(128, 3);
            let n = inst.graph.n();
            assert!(
                (64..=300).contains(&n),
                "{}: n = {n} far from requested 128",
                fam.name()
            );
        }
    }

    #[test]
    fn size_contract_holds_at_the_n8_boundary() {
        // The documented contract: instance(n) has approximately n vertices
        // for every n ≥ 8. "Approximately" means within [n/2, 2n] — the
        // regression this pins: BinaryTree::instance(8) used to produce a
        // 7-vertex graph.
        for fam in Family::ALL {
            for n in [8, 9, 12, 16] {
                let inst = fam.instance(n, 11);
                let got = inst.graph.n();
                assert!(
                    (n / 2..=2 * n).contains(&got),
                    "{}: instance({n}) has {got} vertices",
                    fam.name()
                );
                assert!(got >= 8, "{}: instance({n}) shrank below 8", fam.name());
                assert!(
                    inst.graph.is_connected(),
                    "{}: instance({n}) disconnected",
                    fam.name()
                );
            }
        }
    }

    #[test]
    fn binary_tree_has_at_least_n_vertices() {
        for n in [8, 15, 16, 31, 100] {
            let got = Family::BinaryTree.instance(n, 0).graph.n();
            assert!(got >= n, "instance({n}) has only {got} vertices");
            assert!(got <= 2 * n, "instance({n}) overshot to {got}");
        }
    }

    #[test]
    fn dataset_families_are_in_all_and_flagged() {
        // The size-contract and connectivity tests above iterate
        // Family::ALL, so this pins that the ds-* families are in it (and
        // so held to the same n ≥ 8 contract as the synthetic ones), and
        // that the `ds-` name prefix marks exactly the dataset-backed
        // variants.
        let ds: Vec<Family> = Family::ALL
            .into_iter()
            .filter(|f| f.name().starts_with("ds-"))
            .collect();
        assert_eq!(
            ds,
            [
                Family::DsSocial,
                Family::DsRoadnet,
                Family::DsUnitDisk,
                Family::DsKnn,
                Family::DsChungLu
            ]
        );
    }

    #[test]
    fn dataset_families_are_reproducible() {
        for fam in Family::ALL
            .into_iter()
            .filter(|f| f.name().starts_with("ds-"))
        {
            let a = fam.instance(32, 9);
            let b = fam.instance(32, 9);
            assert_eq!(a.graph, b.graph, "{} not deterministic", fam.name());
        }
    }
}
