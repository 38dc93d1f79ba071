//! Property test: `render → parse → to_graph` is bit-identical for both
//! dataset formats.
//!
//! Each case generates one random connected graph and renders it as a
//! SNAP export (sparse ids, duplicate/reversed edges, self-loops —
//! everything normalization must undo) and a DIMACS file, with randomized
//! comment placement (including unicode comments) and randomized LF/CRLF
//! line endings. Both renders must parse back to the generating
//! [`Graph`], CSR arrays and all.

use ebc_graphs::datasets::{parse_dimacs, parse_snap};
use ebc_radio::Graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const COMMENTS: [&str; 4] = [
    "a plain ascii comment",
    "ünïcødé — naïve café ✓ ∑∞",
    "tabs\tand  spaces",
    "日本語のコメント",
];

/// Renders one comment line behind `marker`, or `None` to skip.
fn comment(rng: &mut SmallRng, marker: char) -> Option<String> {
    if !rng.gen_bool(0.4) {
        return None;
    }
    let text = COMMENTS[rng.gen_range(0..COMMENTS.len())];
    Some(format!("{marker} {text}"))
}

fn join(lines: Vec<String>, crlf: bool) -> String {
    let sep = if crlf { "\r\n" } else { "\n" };
    let mut out = lines.join(sep);
    out.push_str(sep);
    out
}

/// A random connected edge set on `n` vertices: a path backbone (so every
/// vertex appears in some edge — SNAP cannot represent isolated vertices)
/// plus random extras.
fn random_edges(n: usize, rng: &mut SmallRng) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let extras = rng.gen_range(0..2 * n + 1);
    for _ in 0..extras {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn render_snap(edges: &[(usize, usize)], rng: &mut SmallRng) -> String {
    // Sparse but ascending id map: the dense remap (rank in ascending id
    // order) then reproduces the original labels exactly.
    let stride = rng.gen_range(1usize..9);
    let offset = rng.gen_range(0usize..1000);
    let id = |v: usize| offset + stride * v;
    let mut lines = vec![format!("# Nodes: ? Edges: {}", edges.len())];
    let mut order = edges.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    for &(u, v) in &order {
        if let Some(c) = comment(rng, '#') {
            lines.push(c);
        }
        // SNAP mess: sometimes reversed, sometimes duplicated, plus the
        // occasional self-loop — normalization must erase all of it.
        if rng.gen_bool(0.3) {
            lines.push(format!("{}\t{}", id(v), id(u)));
        }
        lines.push(format!("{}\t{}", id(u), id(v)));
        if rng.gen_bool(0.1) {
            let w = rng.gen_range(0..edges.len() + 2);
            lines.push(format!("{}\t{}", id(w), id(w)));
        }
    }
    join(lines, rng.gen_bool(0.5))
}

fn render_dimacs(n: usize, edges: &[(usize, usize)], rng: &mut SmallRng) -> String {
    let mut lines = vec![format!("p edge {n} {}", edges.len())];
    let mut order = edges.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    for &(u, v) in &order {
        if let Some(c) = comment(rng, 'c') {
            lines.push(c);
        }
        lines.push(format!("e {} {}", u + 1, v + 1));
    }
    join(lines, rng.gen_bool(0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_csr_load_is_bit_identical_across_formats(
        n in 2usize..48,
        graph_seed in any::<u64>(),
        text_seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        let edges = random_edges(n, &mut rng);
        let expected = Graph::from_edges(n, &edges).unwrap();

        let mut rng = SmallRng::seed_from_u64(text_seed);
        let snap = render_snap(&edges, &mut rng);
        let dimacs = render_dimacs(n, &edges, &mut rng);
        prop_assert_eq!(&parse_snap(&snap).unwrap().to_graph().unwrap(), &expected);
        prop_assert_eq!(&parse_dimacs(&dimacs).unwrap().to_graph().unwrap(), &expected);
    }
}
