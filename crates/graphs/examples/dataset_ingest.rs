//! Demonstrates the binary CSR dataset cache at scale: a million-edge
//! edge list parses cold exactly once, then every later load comes from
//! the `.csrbin` entry.
//!
//! ```text
//! cargo run --release -p ebc-graphs --example dataset_ingest
//! ```
//!
//! Prints the cold parse and warm load times and their ratio. Panics if
//! the first load is not a cold parse, the second is not served from the
//! cache, or the two graphs differ, so CI can run it as a check of the
//! cache round trip; the ratio is reported, not gated, because it
//! depends on the host.

use std::time::Instant;

use ebc_graphs::datasets::load_graph_cached;
use ebc_radio::rng::node_rng;
use rand::Rng;

const TARGET_EDGES: usize = 1_000_000;

fn main() {
    let dir = std::env::temp_dir().join(format!("ebc_dataset_ingest_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let src = dir.join("million.txt");
    let cache = dir.join("csr");

    // A connected million-edge graph in SNAP form — sparse crawl-style
    // ids the parser must remap densely, exactly like a real social
    // export: a path backbone plus random extras.
    let n = TARGET_EDGES / 4;
    let id = |v: usize| 1_000_000 + 17 * v;
    let mut rng = node_rng(0xda7a, 0, 0);
    let mut text = String::with_capacity(TARGET_EDGES * 18);
    text.push_str("# synthetic million-edge SNAP sample for the ingest demo\n");
    for v in 1..n {
        text.push_str(&format!("{}\t{}\n", id(v - 1), id(v)));
    }
    for _ in 0..TARGET_EDGES - (n - 1) {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            text.push_str(&format!("{}\t{}\n", id(u), id(v)));
        }
    }
    std::fs::write(&src, &text).expect("write edge list");
    let megabytes = text.len() as f64 / (1024.0 * 1024.0);

    let t0 = Instant::now();
    let cold = load_graph_cached(&src, &cache).expect("cold load");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.from_cache, "first load must be a cold parse");

    let t1 = Instant::now();
    let warm = load_graph_cached(&src, &cache).expect("warm load");
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert!(warm.from_cache, "second load must hit the binary cache");
    assert_eq!(cold.graph, warm.graph, "cache round trip must be exact");

    let ratio = cold_ms / warm_ms;
    println!(
        "dataset: {:.1} MiB edge list, n = {}, m = {}",
        megabytes,
        cold.graph.n(),
        cold.graph.m()
    );
    println!("cold parse : {cold_ms:>9.2} ms");
    println!("warm load  : {warm_ms:>9.2} ms  ({ratio:.0}x faster)");

    std::fs::remove_dir_all(&dir).ok();
}
