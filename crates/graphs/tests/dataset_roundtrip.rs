//! Property test: `render → load_graph` is bit-identical across every
//! dataset format.
//!
//! Each case generates one random connected graph, renders it as a plain
//! edge list, a SNAP export (sparse ids, duplicate/reversed edges,
//! self-loops — everything normalization must undo), and a DIMACS file,
//! with randomized comment placement (including unicode comments) and
//! randomized LF/CRLF line endings. Each render is written to a file
//! named with its format's extension and loaded back once; all three
//! must yield the generating [`Graph`], CSR arrays and all.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ebc_graphs::datasets::{load_graph, DatasetFormat};
use ebc_radio::Graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fresh scratch dir per case (cases run sequentially, but keep names
/// collision-free across processes and cases anyway).
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ebc_ds_roundtrip_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const COMMENTS: [&str; 4] = [
    "a plain ascii comment",
    "ünïcødé — naïve café ✓ ∑∞",
    "tabs\tand  spaces",
    "日本語のコメント",
];

/// Renders one comment line for `format`, or `None` to skip.
fn comment(rng: &mut SmallRng, format: DatasetFormat) -> Option<String> {
    if !rng.gen_bool(0.4) {
        return None;
    }
    let text = COMMENTS[rng.gen_range(0..COMMENTS.len())];
    Some(match format {
        DatasetFormat::EdgeList => format!("# {text}"),
        DatasetFormat::Snap => format!("# {text}"),
        DatasetFormat::Dimacs => format!("c {text}"),
    })
}

fn join(lines: Vec<String>, crlf: bool) -> String {
    let sep = if crlf { "\r\n" } else { "\n" };
    let mut out = lines.join(sep);
    out.push_str(sep);
    out
}

/// A random connected edge set on `n` vertices: a path backbone (so every
/// vertex appears in some edge — SNAP and edge lists cannot represent
/// isolated vertices) plus random extras.
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

fn render_edge_list(edges: &[(usize, usize)], rng: &mut SmallRng) -> String {
    let mut lines = Vec::new();
    let mut order = edges.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    for &(u, v) in &order {
        if let Some(c) = comment(rng, DatasetFormat::EdgeList) {
            lines.push(c);
        }
        let sep = if rng.gen_bool(0.5) { " " } else { "\t" };
        lines.push(format!("{u}{sep}{v}"));
    }
    join(lines, rng.gen_bool(0.5))
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
        if let Some(c) = comment(rng, DatasetFormat::Snap) {
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
        if let Some(c) = comment(rng, DatasetFormat::Dimacs) {
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
        let dir = scratch();

        let mut rng = SmallRng::seed_from_u64(text_seed);
        let renders = [
            ("g.edges", render_edge_list(&edges, &mut rng)),
            ("g.txt", render_snap(&edges, &mut rng)),
            ("g.gr", render_dimacs(n, &edges, &mut rng)),
        ];
        for (name, text) in renders {
            // The extension picks the parser.
            let src = dir.join(name);
            std::fs::write(&src, text).unwrap();
            prop_assert_eq!(&load_graph(&src).unwrap(), &expected, "{}", name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
