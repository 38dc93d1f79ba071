//! Real-graph ingestion: pluggable dataset parsers and radio topologies
//! derived from parsed data.
//!
//! Every synthetic family in this crate draws its structure from a
//! generator; this module instead ingests *observed* topologies — the
//! irregular degree distributions and hub structure the paper's bounds are
//! sensitive to — and derives radio networks from them:
//!
//! * **Parsers** ([`parse_str`], [`load_graph`]): plain edge lists, SNAP
//!   exports (`#` comments, sparse ids remapped densely, self-loops and
//!   duplicate edges normalized away), and DIMACS (`c` comments,
//!   `p edge n m` header, 1-indexed `e u v` lines). Malformed input —
//!   self-loops in strict formats, out-of-range ids, empty files — yields
//!   a typed [`DatasetError`], never a panic. Comment lines may contain
//!   arbitrary unicode; CRLF line endings are accepted everywhere.
//! * **Derived topologies**: [`unit_disk_of_coords`] (transmission-range
//!   graphs over real coordinate files, grid-bucketed so million-point
//!   fields build in `O(n · deg)`), [`k_nearest`] sensor fields, and
//!   [`chung_lu`] power-law samplers matched to an observed degree
//!   sequence ([`resample_degrees`]) — each made connected by the same
//!   random-spanning-tree surrogate the synthetic families use.
//! * **The vendored samples** ([`SAMPLE_SOCIAL`], [`SAMPLE_ROADNET`],
//!   [`SAMPLE_ROADNET_COORDS`]): two tiny offline datasets under
//!   `datasets/` backing the `ds-*` members of
//!   [`crate::families::Family`]; each sample graph is parsed once per
//!   process. [`family_files`] maps each dataset family to the files
//!   whose content digests its bench cells must be keyed on.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use ebc_radio::rng::node_rng;
use ebc_radio::{Graph, GraphError};
use rand::Rng;

use crate::random;

/// File name of the vendored SNAP-style social sample (power-law degrees).
pub const SAMPLE_SOCIAL: &str = "sample-social.txt";
/// File name of the vendored DIMACS road/sensor sample (near-planar).
pub const SAMPLE_ROADNET: &str = "sample-roadnet.gr";
/// File name of the vendored coordinate file paired with the road sample.
pub const SAMPLE_ROADNET_COORDS: &str = "sample-roadnet.co";

/// The vendored dataset files, in registry order.
pub const SAMPLE_FILES: [&str; 3] = [SAMPLE_SOCIAL, SAMPLE_ROADNET, SAMPLE_ROADNET_COORDS];

/// The dataset files backing one dataset-derived family (by the family's
/// display name), empty for synthetic families. Bench cells key their
/// cache entries on these files' content digests: a cell built from a
/// dataset must invalidate when the dataset file changes, exactly like a
/// source-crate edit.
pub fn family_files(family: &str) -> &'static [&'static str] {
    match family {
        "ds-social" | "ds-chung-lu" => &[SAMPLE_SOCIAL],
        "ds-roadnet" => &[SAMPLE_ROADNET],
        "ds-unit-disk" | "ds-knn" => &[SAMPLE_ROADNET_COORDS],
        _ => &[],
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Error ingesting a dataset file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The file could not be read.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error, stringified.
        err: String,
    },
    /// The file contains no graph (no edges / no points).
    Empty {
        /// What was being parsed.
        what: String,
    },
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A strict format carried a self-loop (the radio model has none).
    SelfLoop {
        /// 1-based line number.
        line: usize,
        /// The looping vertex, as written in the file.
        id: usize,
    },
    /// A vertex id fell outside the declared range.
    IdOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending id, as written in the file.
        id: usize,
        /// The declared vertex count.
        n: usize,
    },
    /// The parsed edges did not form a valid [`Graph`].
    Graph(GraphError),
}

impl core::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DatasetError::Io { path, err } => write!(f, "cannot read {}: {err}", path.display()),
            DatasetError::Empty { what } => write!(f, "{what} is empty"),
            DatasetError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            DatasetError::SelfLoop { line, id } => {
                write!(f, "line {line}: self-loop at vertex {id}")
            }
            DatasetError::IdOutOfRange { line, id, n } => {
                write!(f, "line {line}: vertex id {id} out of range for n = {n}")
            }
            DatasetError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<GraphError> for DatasetError {
    fn from(e: GraphError) -> Self {
        DatasetError::Graph(e)
    }
}

fn io_err(path: &Path, err: impl core::fmt::Display) -> DatasetError {
    DatasetError::Io {
        path: path.to_path_buf(),
        err: err.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Parsers
// ---------------------------------------------------------------------------

/// The dataset text formats the ingestion layer understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFormat {
    /// Plain whitespace-separated `u v` pairs, 0-indexed, `#`/`%`
    /// comments. Strict: self-loops are errors, ids are used as written
    /// (`n` = max id + 1).
    EdgeList,
    /// SNAP exports: `#` comment header, tab- or space-separated pairs.
    /// Lenient, as SNAP data demands: sparse ids are remapped densely (in
    /// ascending id order), self-loops dropped, duplicate and reversed
    /// edges merged.
    Snap,
    /// DIMACS: `c` comments, a `p <kind> <n> <m>` header, 1-indexed
    /// `e u v` (or `a u v`) edge lines. Strict: ids outside `1..=n`,
    /// self-loops, and edges before the header are errors.
    Dimacs,
}

/// A parsed dataset: a dense vertex range and a normalized edge list
/// (each edge once as `(lo, hi)`, sorted, duplicate-free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedDataset {
    /// Number of vertices (ids are `0..n`).
    pub n: usize,
    /// Normalized undirected edges.
    pub edges: Vec<(u32, u32)>,
}

impl ParsedDataset {
    /// Builds the CSR [`Graph`].
    pub fn to_graph(&self) -> Result<Graph, DatasetError> {
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        Ok(Graph::from_edges(self.n, &edges)?)
    }
}

/// Strips one trailing `\r` so CRLF files parse like LF files.
fn clean(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

fn is_comment(line: &str, markers: &[char]) -> bool {
    match line.chars().next() {
        None => true, // blank
        Some(c) => markers.contains(&c),
    }
}

fn parse_id(tok: &str, line: usize) -> Result<usize, DatasetError> {
    let id: u64 = tok.parse().map_err(|_| DatasetError::Parse {
        line,
        msg: format!("expected a vertex id, got {tok:?}"),
    })?;
    if id >= u32::MAX as u64 {
        return Err(DatasetError::Parse {
            line,
            msg: format!("vertex id {id} exceeds the u32 id space"),
        });
    }
    Ok(id as usize)
}

/// Normalizes an edge multiset into the [`ParsedDataset`] form: `(lo,
/// hi)` orientation, sorted, deduplicated.
fn normalize(n: usize, mut edges: Vec<(u32, u32)>) -> ParsedDataset {
    for e in &mut edges {
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    ParsedDataset { n, edges }
}

/// Parses `text` as `format`. See [`DatasetFormat`] for the per-format
/// strictness contract.
///
/// # Errors
///
/// Any malformed line yields a typed [`DatasetError`]; a file with no
/// edges yields [`DatasetError::Empty`].
pub fn parse_str(text: &str, format: DatasetFormat) -> Result<ParsedDataset, DatasetError> {
    match format {
        DatasetFormat::EdgeList => parse_edge_list(text),
        DatasetFormat::Snap => parse_snap(text),
        DatasetFormat::Dimacs => parse_dimacs(text),
    }
}

fn parse_edge_list(text: &str) -> Result<ParsedDataset, DatasetError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = clean(raw);
        if is_comment(line.trim_start(), &['#', '%']) {
            continue;
        }
        let lineno = i + 1;
        let mut toks = line.split_whitespace();
        let (u, v) = match (toks.next(), toks.next()) {
            (Some(a), Some(b)) => (parse_id(a, lineno)?, parse_id(b, lineno)?),
            _ => {
                return Err(DatasetError::Parse {
                    line: lineno,
                    msg: format!("expected `u v`, got {line:?}"),
                })
            }
        };
        if u == v {
            return Err(DatasetError::SelfLoop {
                line: lineno,
                id: u,
            });
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as u32, v as u32));
    }
    if edges.is_empty() {
        return Err(DatasetError::Empty {
            what: "edge list".into(),
        });
    }
    Ok(normalize(max_id + 1, edges))
}

fn parse_snap(text: &str) -> Result<ParsedDataset, DatasetError> {
    let mut raw_edges: Vec<(u32, u32)> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = clean(raw);
        if is_comment(line.trim_start(), &['#', '%']) {
            continue;
        }
        let lineno = i + 1;
        let mut toks = line.split_whitespace();
        let (u, v) = match (toks.next(), toks.next()) {
            (Some(a), Some(b)) => (parse_id(a, lineno)?, parse_id(b, lineno)?),
            _ => {
                return Err(DatasetError::Parse {
                    line: lineno,
                    msg: format!("expected `u v`, got {line:?}"),
                })
            }
        };
        if u == v {
            // SNAP exports routinely carry self-loops; normalization
            // drops them (the radio model has none).
            continue;
        }
        ids.push(u as u32);
        ids.push(v as u32);
        raw_edges.push((u as u32, v as u32));
    }
    if raw_edges.is_empty() {
        return Err(DatasetError::Empty {
            what: "SNAP edge list".into(),
        });
    }
    // Dense remap in ascending id order: sparse SNAP ids (crawled user
    // ids, say) become 0..n without reordering the vertex universe.
    ids.sort_unstable();
    ids.dedup();
    let rank: HashMap<u32, u32> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    let edges: Vec<(u32, u32)> = raw_edges
        .into_iter()
        .map(|(u, v)| (rank[&u], rank[&v]))
        .collect();
    Ok(normalize(ids.len(), edges))
}

fn parse_dimacs(text: &str) -> Result<ParsedDataset, DatasetError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = clean(raw).trim_start();
        let lineno = i + 1;
        if is_comment(line, &['c']) {
            continue;
        }
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("p") => {
                // `p <kind> <n> <m>` — kind ("edge", "sp", …) is free text.
                let _kind = toks.next();
                let declared = toks.next().ok_or_else(|| DatasetError::Parse {
                    line: lineno,
                    msg: "p-line missing the vertex count".into(),
                })?;
                n = Some(parse_id(declared, lineno)?);
            }
            Some("e") | Some("a") => {
                let n = n.ok_or_else(|| DatasetError::Parse {
                    line: lineno,
                    msg: "edge before the `p` header line".into(),
                })?;
                let (u, v) = match (toks.next(), toks.next()) {
                    (Some(a), Some(b)) => (parse_id(a, lineno)?, parse_id(b, lineno)?),
                    _ => {
                        return Err(DatasetError::Parse {
                            line: lineno,
                            msg: format!("expected `e u v`, got {line:?}"),
                        })
                    }
                };
                // DIMACS is 1-indexed: 0 and anything past n are malformed.
                for id in [u, v] {
                    if id == 0 || id > n {
                        return Err(DatasetError::IdOutOfRange {
                            line: lineno,
                            id,
                            n,
                        });
                    }
                }
                if u == v {
                    return Err(DatasetError::SelfLoop {
                        line: lineno,
                        id: u,
                    });
                }
                edges.push((u as u32 - 1, v as u32 - 1));
            }
            Some(other) => {
                return Err(DatasetError::Parse {
                    line: lineno,
                    msg: format!("unknown DIMACS line kind {other:?}"),
                })
            }
            None => continue,
        }
    }
    let n = n.ok_or_else(|| DatasetError::Empty {
        what: "DIMACS file (no `p` header)".into(),
    })?;
    if edges.is_empty() {
        return Err(DatasetError::Empty {
            what: "DIMACS edge set".into(),
        });
    }
    Ok(normalize(n, edges))
}

/// Parses a coordinate file: DIMACS-style `v <id> <x> <y>` lines
/// (1-indexed, any order) or plain `x y` lines (sequential), with
/// `#`/`%`/`c` comments and CRLF both tolerated.
///
/// # Errors
///
/// Typed [`DatasetError`]s for unparsable lines, duplicate or out-of-order
/// ids, and empty files.
pub fn parse_coords_str(text: &str) -> Result<Vec<(f64, f64)>, DatasetError> {
    let mut plain: Vec<(f64, f64)> = Vec::new();
    let mut tagged: Vec<(usize, (f64, f64))> = Vec::new();
    let parse_f = |tok: &str, line: usize| -> Result<f64, DatasetError> {
        tok.parse::<f64>().map_err(|_| DatasetError::Parse {
            line,
            msg: format!("expected a coordinate, got {tok:?}"),
        })
    };
    for (i, raw) in text.lines().enumerate() {
        let line = clean(raw).trim_start();
        let lineno = i + 1;
        if is_comment(line, &['#', '%']) || line.starts_with("c ") || line == "c" {
            continue;
        }
        let mut toks = line.split_whitespace();
        let first = toks.next().expect("non-blank line has a token");
        if first == "v" {
            let id = parse_id(
                toks.next().ok_or_else(|| DatasetError::Parse {
                    line: lineno,
                    msg: "v-line missing the vertex id".into(),
                })?,
                lineno,
            )?;
            if id == 0 {
                return Err(DatasetError::IdOutOfRange {
                    line: lineno,
                    id,
                    n: 0,
                });
            }
            let (x, y) = match (toks.next(), toks.next()) {
                (Some(a), Some(b)) => (parse_f(a, lineno)?, parse_f(b, lineno)?),
                _ => {
                    return Err(DatasetError::Parse {
                        line: lineno,
                        msg: format!("expected `v id x y`, got {line:?}"),
                    })
                }
            };
            tagged.push((id - 1, (x, y)));
        } else {
            let (x, y) = match (Some(first), toks.next()) {
                (Some(a), Some(b)) => (parse_f(a, lineno)?, parse_f(b, lineno)?),
                _ => {
                    return Err(DatasetError::Parse {
                        line: lineno,
                        msg: format!("expected `x y`, got {line:?}"),
                    })
                }
            };
            plain.push((x, y));
        }
    }
    if !tagged.is_empty() {
        if !plain.is_empty() {
            return Err(DatasetError::Parse {
                line: 0,
                msg: "mixed `v id x y` and plain `x y` lines".into(),
            });
        }
        tagged.sort_by_key(|&(id, _)| id);
        for (i, &(id, _)) in tagged.iter().enumerate() {
            if id != i {
                return Err(DatasetError::Parse {
                    line: 0,
                    msg: format!("coordinate ids are not dense at index {i} (saw id {id})"),
                });
            }
        }
        return Ok(tagged.into_iter().map(|(_, p)| p).collect());
    }
    if plain.is_empty() {
        return Err(DatasetError::Empty {
            what: "coordinate file".into(),
        });
    }
    Ok(plain)
}

/// Guesses the format of `path` from its extension, sniffing the first
/// content line when the extension is unknown.
pub fn detect_format(path: &Path, text: &str) -> DatasetFormat {
    match path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("gr" | "dimacs" | "col" | "graph") => DatasetFormat::Dimacs,
        Some("txt" | "snap") => DatasetFormat::Snap,
        Some("edges" | "el" | "edgelist") => DatasetFormat::EdgeList,
        _ => {
            for raw in text.lines() {
                let line = clean(raw).trim_start();
                if line.is_empty() {
                    continue;
                }
                if line.starts_with("c ") || line.starts_with("p ") || line == "c" {
                    return DatasetFormat::Dimacs;
                }
                if line.starts_with('#') {
                    return DatasetFormat::Snap;
                }
                break;
            }
            DatasetFormat::EdgeList
        }
    }
}

// ---------------------------------------------------------------------------
// Directory resolution
// ---------------------------------------------------------------------------

/// The workspace root this crate was built from.
fn workspace_root() -> &'static Path {
    // crates/graphs → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Where dataset files are looked up: `$EBC_DATASET_DIR` if set (the
/// bench CLI's `--dataset-dir` sets it), else `<workspace>/datasets` —
/// the vendored samples.
pub fn dataset_dir() -> PathBuf {
    match std::env::var_os("EBC_DATASET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => workspace_root().join("datasets"),
    }
}

/// The full path of one vendored (or `--dataset-dir`-relocated) file.
pub fn sample_path(file: &str) -> PathBuf {
    dataset_dir().join(file)
}

// ---------------------------------------------------------------------------
// Loaders
// ---------------------------------------------------------------------------

/// Loads a dataset graph: reads `path`, picks the parser with
/// [`detect_format`], and builds the CSR [`Graph`].
///
/// # Errors
///
/// [`DatasetError`] if the file is unreadable or malformed.
pub fn load_graph(path: &Path) -> Result<Graph, DatasetError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    parse_str(&text, detect_format(path, &text))?.to_graph()
}

/// Loads a coordinate file ([`parse_coords_str`]).
///
/// # Errors
///
/// [`DatasetError`] if the file is unreadable or malformed.
pub fn load_coords(path: &Path) -> Result<Vec<(f64, f64)>, DatasetError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    parse_coords_str(&text)
}

// ---------------------------------------------------------------------------
// Derived radio topologies
// ---------------------------------------------------------------------------

/// Internal: distinct derivation streams for this module's samplers
/// (disjoint from [`crate::random`]'s `0x6772_6170_6873_*` tags).
fn stream_tag(k: u64) -> u64 {
    0x6461_7461_7365_0000 | k
}

/// A unit-disk (transmission-range) graph over real coordinates: an edge
/// wherever two points lie within `radius`, plus a random spanning tree
/// so the result is connected (the same surrogate the synthetic families
/// use). Neighbor search is grid-bucketed — `O(n · deg)`, so
/// million-point sensor fields build at dataset scale.
///
/// # Panics
///
/// Panics if `pts` is empty, `radius` is not positive, or a coordinate
/// is non-finite.
pub fn unit_disk_of_coords(pts: &[(f64, f64)], radius: f64, seed: u64) -> Graph {
    assert!(!pts.is_empty());
    assert!(radius > 0.0, "radius must be positive");
    let n = pts.len();
    let mut edges = random::disk_edges(pts, radius);
    let tree = random::random_tree(n, seed ^ 0xd5_c0de_0000_0002);
    for u in 0..n {
        for v in tree.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("valid coordinate disk graph")
}

/// A `k`-nearest-neighbor sensor field over real coordinates: each point
/// links to its `k` nearest peers (symmetrized; ties broken by distance
/// then id, so the graph is deterministic), plus a random spanning tree
/// for connectivity. Grid-bucketed ring search keeps construction near
/// `O(n · k)` on uniformish fields.
///
/// # Panics
///
/// Panics if `pts.len() < 2`, `k == 0`, or a coordinate is non-finite.
pub fn k_nearest(pts: &[(f64, f64)], k: usize, seed: u64) -> Graph {
    let n = pts.len();
    assert!(n >= 2, "need at least two points");
    assert!(k >= 1, "need k >= 1");
    for &(x, y) in pts {
        assert!(x.is_finite() && y.is_finite(), "non-finite coordinate");
    }
    // Cell size ≈ the spacing at which an average cell holds one point;
    // ring expansion then terminates after O(√k) rings on uniform fields.
    let (min_x, max_x) = min_max(pts.iter().map(|p| p.0));
    let (min_y, max_y) = min_max(pts.iter().map(|p| p.1));
    let span = (max_x - min_x).max(max_y - min_y);
    let cells_per_axis = (n as f64).sqrt().ceil().max(1.0);
    let cell = if span > 0.0 {
        span / cells_per_axis
    } else {
        1.0
    };
    let mut buckets: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
    let key = |x: f64, y: f64| ((x / cell).floor() as i64, (y / cell).floor() as i64);
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets.entry(key(x, y)).or_default().push(i as u32);
    }
    let max_ring = cells_per_axis as i64 + 1;
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * k);
    let mut best: Vec<(f64, u32)> = Vec::new();
    for u in 0..n {
        let (ux, uy) = pts[u];
        let (cx, cy) = key(ux, uy);
        best.clear();
        for d in 0..=max_ring {
            for (bx, by) in ring_cells(cx, cy, d) {
                let Some(cands) = buckets.get(&(bx, by)) else {
                    continue;
                };
                for &v in cands {
                    if v as usize == u {
                        continue;
                    }
                    let (vx, vy) = pts[v as usize];
                    let d2 = (ux - vx) * (ux - vx) + (uy - vy) * (uy - vy);
                    best.push((d2, v));
                }
            }
            if best.len() >= k {
                best.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
                best.truncate(k.max(best.len().min(k)));
                // Points beyond ring `d` are at least `d * cell` away;
                // once the k-th best is closer, no later ring can displace it.
                let bound = d as f64 * cell;
                if best[k - 1].0 <= bound * bound {
                    break;
                }
            }
        }
        best.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        for &(_, v) in best.iter().take(k) {
            let v = v as usize;
            edges.push((u.min(v), u.max(v)));
        }
    }
    let tree = random::random_tree(n, seed ^ 0xd5_c0de_0000_0003);
    for u in 0..n {
        for v in tree.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("valid k-nearest graph")
}

fn min_max(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    vals.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// The cells at Chebyshev distance exactly `d` from `(cx, cy)`.
fn ring_cells(cx: i64, cy: i64, d: i64) -> Vec<(i64, i64)> {
    if d == 0 {
        return vec![(cx, cy)];
    }
    let mut out = Vec::with_capacity(8 * d as usize);
    for x in (cx - d)..=(cx + d) {
        out.push((x, cy - d));
        out.push((x, cy + d));
    }
    for y in (cy - d + 1)..(cy + d) {
        out.push((cx - d, y));
        out.push((cx + d, y));
    }
    out
}

/// A Chung-Lu random graph matched to an observed degree sequence: edge
/// `{u, v}` appears with probability `min(1, w_u w_v / Σw)` where `w` is
/// the (floor-1) degree sequence, so the expected degrees reproduce the
/// observed distribution's shape — power-law in, power-law out. Uses the
/// Miller–Hagberg sorted skip-sampling construction (`O(n + m)`, not
/// `O(n²)`), plus the usual random-spanning-tree connectivity surrogate.
///
/// # Panics
///
/// Panics if `degrees` is empty.
pub fn chung_lu(degrees: &[usize], seed: u64) -> Graph {
    let n = degrees.len();
    assert!(n >= 1, "need at least one vertex");
    // Sort by weight descending (ties by id) so the per-row acceptance
    // probability is non-increasing — the precondition for skip sampling.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    let w: Vec<f64> = order
        .iter()
        .map(|&v| degrees[v as usize].max(1) as f64)
        .collect();
    let total: f64 = w.iter().sum();
    let mut rng = node_rng(seed, 0, stream_tag(0));
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..n.saturating_sub(1) {
        let mut j = i + 1;
        let mut p = (w[i] * w[j] / total).min(1.0);
        while j < n && p > 0.0 {
            if p < 1.0 {
                // Geometric skip: the number of consecutive rejections at
                // probability p, drawn in O(1).
                let r: f64 = rng.gen();
                let skip = ((1.0 - r).ln() / (1.0 - p).ln()).floor();
                if !skip.is_finite() || skip >= (n - j) as f64 {
                    break;
                }
                j += skip as usize;
            }
            let q = (w[i] * w[j] / total).min(1.0);
            if rng.gen::<f64>() < q / p {
                edges.push((order[i] as usize, order[j] as usize));
            }
            p = q;
            j += 1;
        }
    }
    let tree = random::random_tree(n, seed ^ 0xd5_c0de_0000_0004);
    for u in 0..n {
        for v in tree.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("valid Chung-Lu graph")
}

/// Resamples `n` degrees (uniformly, with replacement) from `graph`'s
/// observed degree sequence — the input [`chung_lu`] matches at any
/// target size.
pub fn resample_degrees(graph: &Graph, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = node_rng(seed, 0, stream_tag(1));
    (0..n)
        .map(|_| graph.degree(rng.gen_range(0..graph.n())))
        .collect()
}

/// The induced subgraph on the first `n` vertices of a BFS from `start`,
/// relabeled in discovery order (`start` becomes vertex 0). Connected
/// whenever the component of `start` is — every discovered vertex keeps
/// its discovery edge. This is how dataset-backed families scale a fixed
/// real graph down to the matrix's `n` axis without destroying its local
/// structure.
///
/// # Panics
///
/// Panics if `start >= graph.n()` or `n == 0`.
pub fn bfs_ball(graph: &Graph, start: usize, n: usize) -> Graph {
    assert!(start < graph.n());
    assert!(n >= 1);
    let mut rank = vec![u32::MAX; graph.n()];
    let mut order: Vec<u32> = Vec::with_capacity(n.min(graph.n()));
    rank[start] = 0;
    order.push(start as u32);
    let mut head = 0usize;
    'bfs: while head < order.len() && order.len() < n {
        let u = order[head] as usize;
        head += 1;
        for v in graph.neighbors(u) {
            if rank[v] == u32::MAX {
                rank[v] = order.len() as u32;
                order.push(v as u32);
                if order.len() == n {
                    break 'bfs;
                }
            }
        }
    }
    let ball = order.len();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (new_u, &u) in order.iter().enumerate() {
        for v in graph.neighbors(u as usize) {
            let new_v = rank[v];
            // Each in-ball edge appears twice in the scan; keep the
            // orientation where the endpoint ranks ascend.
            if new_v != u32::MAX && (new_u as u32) < new_v {
                edges.push((new_u, new_v as usize));
            }
        }
    }
    Graph::from_edges(ball, &edges).expect("valid BFS ball")
}

/// `copies` disjoint copies of `graph` chained by one bridge edge between
/// consecutive copies (copy `c`'s vertex 0 to copy `c+1`'s vertex 0) —
/// how a fixed dataset scales *up* past its own size without losing its
/// local structure, the way adjacent map tiles extend a road network.
/// Connected whenever `graph` is.
///
/// # Panics
///
/// Panics if `copies == 0`.
pub fn tile_graph(graph: &Graph, copies: usize) -> Graph {
    assert!(copies >= 1);
    let n0 = graph.n();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(copies * graph.m() + copies);
    for c in 0..copies {
        let base = c * n0;
        for u in 0..n0 {
            for v in graph.neighbors(u) {
                if u < v {
                    edges.push((base + u, base + v));
                }
            }
        }
        if c + 1 < copies {
            edges.push((base, base + n0));
        }
    }
    Graph::from_edges(copies * n0, &edges).expect("valid tiled graph")
}

/// `copies` copies of a coordinate field laid out in a row, each shifted
/// one bounding-box-plus-one-cell stride along x — the coordinate-space
/// analogue of [`tile_graph`].
///
/// # Panics
///
/// Panics if `pts` is empty or `copies == 0`.
pub fn tile_coords(pts: &[(f64, f64)], copies: usize) -> Vec<(f64, f64)> {
    assert!(!pts.is_empty() && copies >= 1);
    let (min_x, max_x) = min_max(pts.iter().map(|p| p.0));
    // One average-spacing pad keeps copies adjacent but not overlapping.
    let stride = (max_x - min_x).max(1e-9) * (1.0 + 1.0 / (pts.len() as f64).sqrt());
    let mut out = Vec::with_capacity(copies * pts.len());
    for c in 0..copies {
        let dx = c as f64 * stride;
        out.extend(pts.iter().map(|&(x, y)| (x + dx, y)));
    }
    out
}

/// A seeded uniform subsample of `n` points (partial Fisher–Yates; the
/// whole set when `n >= pts.len()`), in ascending original order so the
/// draw is order-stable.
pub fn subsample_coords(pts: &[(f64, f64)], n: usize, seed: u64) -> Vec<(f64, f64)> {
    if n >= pts.len() {
        return pts.to_vec();
    }
    let mut rng = node_rng(seed, 0, stream_tag(2));
    let mut idx: Vec<u32> = (0..pts.len() as u32).collect();
    for i in 0..n {
        let j = rng.gen_range(i..pts.len());
        idx.swap(i, j);
    }
    let mut picked = idx[..n].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(|i| pts[i as usize]).collect()
}

// ---------------------------------------------------------------------------
// The vendored-sample family backends
// ---------------------------------------------------------------------------

/// Loads a vendored sample graph, panicking with a pointed message when
/// the dataset dir is missing — the families API is infallible by
/// contract, and the vendored files ship with the repo.
///
/// Each sample is parsed once per process and shared from then on,
/// memoized under its resolved path ([`sample_path`], so `--dataset-dir`
/// still applies). A sample edited while a process runs is not re-read by
/// that process; the next process sees the edit. The bench cell cache
/// likewise digests dataset files when a run opens it, not per cell.
fn sample_graph(file: &str) -> Arc<Graph> {
    static PARSED: Mutex<BTreeMap<PathBuf, Arc<Graph>>> = Mutex::new(BTreeMap::new());
    // A load that panics has inserted nothing, so a poisoned map is whole.
    let mut parsed = PARSED.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = parsed.entry(sample_path(file)).or_insert_with_key(|path| {
        Arc::new(load_graph(path).unwrap_or_else(|e| {
            panic!(
                "cannot load vendored dataset {} (set EBC_DATASET_DIR or run \
                 from the repo): {e}",
                path.display()
            )
        }))
    });
    Arc::clone(graph)
}

/// The vertex of maximum degree (lowest id on ties) — the natural hub to
/// root dataset subsampling at.
fn hub(graph: &Graph) -> usize {
    (0..graph.n())
        .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v)))
        .expect("nonempty graph")
}

/// An n-vertex BFS ball of one sample graph, rooted at its hub; the
/// sample is tiled up first when `n` exceeds it ([`tile_graph`]).
fn ball_instance(file: &str, n: usize) -> Graph {
    let sample = sample_graph(file);
    let tiled;
    let g = if n > sample.n() {
        tiled = tile_graph(&sample, n.div_ceil(sample.n()));
        &tiled
    } else {
        &*sample
    };
    bfs_ball(g, hub(g), n)
}

/// `ds-social`: an n-vertex BFS ball around the social sample's highest-
/// degree hub. Deterministic (the seed is unused — the data is the data).
pub fn social_instance(n: usize) -> Graph {
    ball_instance(SAMPLE_SOCIAL, n)
}

/// `ds-roadnet`: an n-vertex BFS ball of the road/sensor sample, rooted
/// at its hub. Deterministic.
pub fn roadnet_instance(n: usize) -> Graph {
    ball_instance(SAMPLE_ROADNET, n)
}

/// `ds-unit-disk`: a unit-disk graph over `n` points subsampled from the
/// road sample's coordinates, radius tuned for expected degree ≈ 8 from
/// the subsample's bounding box.
pub fn unit_disk_instance(n: usize, seed: u64) -> Graph {
    let pts = sample_coords(n, seed);
    let (min_x, max_x) = min_max(pts.iter().map(|p| p.0));
    let (min_y, max_y) = min_max(pts.iter().map(|p| p.1));
    let area = (max_x - min_x) * (max_y - min_y);
    let radius = if area > 0.0 {
        (8.0 * area / (std::f64::consts::PI * pts.len() as f64)).sqrt()
    } else {
        1.0
    };
    unit_disk_of_coords(&pts, radius, seed)
}

/// `ds-knn`: a 6-nearest-neighbor sensor field over `n` points
/// subsampled from the road sample's coordinates.
pub fn knn_instance(n: usize, seed: u64) -> Graph {
    k_nearest(&sample_coords(n, seed), 6, seed)
}

fn sample_coords(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let path = sample_path(SAMPLE_ROADNET_COORDS);
    let mut pts = load_coords(&path).unwrap_or_else(|e| {
        panic!(
            "cannot load vendored dataset {} (set EBC_DATASET_DIR or run \
             from the repo): {e}",
            path.display()
        )
    });
    if n > pts.len() {
        pts = tile_coords(&pts, n.div_ceil(pts.len()));
    }
    subsample_coords(&pts, n, seed)
}

/// `ds-chung-lu`: a Chung-Lu graph whose weights are `n` degrees
/// resampled from the social sample's observed degree sequence — the
/// power-law "millions-of-users" surrogate, scalable to any `n`.
pub fn chung_lu_instance(n: usize, seed: u64) -> Graph {
    let g = sample_graph(SAMPLE_SOCIAL);
    chung_lu(&resample_degrees(&g, n, seed), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGE_LIST: &str = "# tiny\n0 1\n1 2\n2 3\n3 0\n";
    const SNAP: &str = "# Directed graph: web-tiny.txt\n# Nodes: 4 Edges: 5\n10\t20\n20\t30\n30\t40\n40\t10\n10\t10\n20\t10\n";
    const DIMACS: &str = "c a square\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n";

    #[test]
    fn the_three_formats_agree_on_the_square() {
        let a = parse_str(EDGE_LIST, DatasetFormat::EdgeList).unwrap();
        let b = parse_str(SNAP, DatasetFormat::Snap).unwrap();
        let c = parse_str(DIMACS, DatasetFormat::Dimacs).unwrap();
        assert_eq!(a, b, "SNAP remap + normalization must match");
        assert_eq!(a, c, "DIMACS 1-indexing must shift to 0-indexed");
        assert_eq!(a.n, 4);
        assert_eq!(a.edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        let g = a.to_graph().unwrap();
        assert_eq!((g.n(), g.m()), (4, 4));
    }

    #[test]
    fn crlf_and_unicode_comments_parse() {
        let text = "# ünïcødé ✓ comment — naïve café\r\n0 1\r\n1 2\r\n";
        let p = parse_str(text, DatasetFormat::EdgeList).unwrap();
        assert_eq!(p.n, 3);
        assert_eq!(p.edges.len(), 2);
    }

    #[test]
    fn snap_normalizes_self_loops_duplicates_and_sparse_ids() {
        let p = parse_str(SNAP, DatasetFormat::Snap).unwrap();
        // 10→0, 20→1, 30→2, 40→3; the self-loop 10-10 dropped; the
        // reversed duplicate 20-10 merged into 10-20.
        assert_eq!(p.n, 4);
        assert_eq!(p.edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn strict_formats_reject_malformed_input_with_typed_errors() {
        // Self-loops.
        assert!(matches!(
            parse_str("0 0\n", DatasetFormat::EdgeList),
            Err(DatasetError::SelfLoop { line: 1, id: 0 })
        ));
        assert!(matches!(
            parse_str("p edge 3 1\ne 2 2\n", DatasetFormat::Dimacs),
            Err(DatasetError::SelfLoop { line: 2, id: 2 })
        ));
        // Out-of-range / 0 ids in 1-indexed DIMACS.
        assert!(matches!(
            parse_str("p edge 3 1\ne 1 4\n", DatasetFormat::Dimacs),
            Err(DatasetError::IdOutOfRange {
                line: 2,
                id: 4,
                n: 3
            })
        ));
        assert!(matches!(
            parse_str("p edge 3 1\ne 0 1\n", DatasetFormat::Dimacs),
            Err(DatasetError::IdOutOfRange { id: 0, .. })
        ));
        // Empty files.
        assert!(matches!(
            parse_str("# nothing here\n", DatasetFormat::EdgeList),
            Err(DatasetError::Empty { .. })
        ));
        assert!(matches!(
            parse_str("", DatasetFormat::Snap),
            Err(DatasetError::Empty { .. })
        ));
        assert!(matches!(
            parse_str("c no p line\n", DatasetFormat::Dimacs),
            Err(DatasetError::Empty { .. })
        ));
        // Garbage tokens and truncated lines.
        assert!(matches!(
            parse_str("0 x\n", DatasetFormat::EdgeList),
            Err(DatasetError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_str("p edge 3 1\ne 1\n", DatasetFormat::Dimacs),
            Err(DatasetError::Parse { line: 2, .. })
        ));
        // An edge before the DIMACS header.
        assert!(matches!(
            parse_str("e 1 2\n", DatasetFormat::Dimacs),
            Err(DatasetError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn coords_parse_both_styles() {
        let tagged = "c DIMACS style\nv 2 1.5 2.5\nv 1 0.0 0.5\nv 3 3.0 0.25\n";
        let pts = parse_coords_str(tagged).unwrap();
        assert_eq!(pts, vec![(0.0, 0.5), (1.5, 2.5), (3.0, 0.25)]);
        let plain = "# plain\n0.0 0.5\r\n1.5 2.5\r\n";
        assert_eq!(parse_coords_str(plain).unwrap().len(), 2);
        assert!(matches!(
            parse_coords_str("# none\n"),
            Err(DatasetError::Empty { .. })
        ));
        assert!(matches!(
            parse_coords_str("v 1 0 0\nv 3 1 1\n"),
            Err(DatasetError::Parse { .. })
        ));
        assert!(matches!(
            parse_coords_str("0 bad\n"),
            Err(DatasetError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn format_detection_by_extension_and_sniffing() {
        let d = Path::new("x.gr");
        assert_eq!(detect_format(d, ""), DatasetFormat::Dimacs);
        assert_eq!(detect_format(Path::new("x.txt"), ""), DatasetFormat::Snap);
        assert_eq!(
            detect_format(Path::new("x.edges"), ""),
            DatasetFormat::EdgeList
        );
        // Unknown extension: sniff.
        let u = Path::new("x.data");
        assert_eq!(
            detect_format(u, "c hi\np edge 1 0\n"),
            DatasetFormat::Dimacs
        );
        assert_eq!(detect_format(u, "# snap\n1 2\n"), DatasetFormat::Snap);
        assert_eq!(detect_format(u, "1 2\n"), DatasetFormat::EdgeList);
    }

    #[test]
    fn unit_disk_of_coords_is_geometric_and_connected() {
        // A 5x5 grid with spacing 1: radius 1.1 links the lattice.
        let pts: Vec<(f64, f64)> = (0..25).map(|i| ((i % 5) as f64, (i / 5) as f64)).collect();
        let g = unit_disk_of_coords(&pts, 1.1, 7);
        assert_eq!(g.n(), 25);
        assert!(g.is_connected());
        // Radius 1.1 reaches axis neighbors (distance 1) but not
        // diagonals (√2): the disk edges are exactly the 2·5·4 = 40
        // lattice edges, plus at most the 24 spanning-tree edges.
        assert!((40..=64).contains(&g.m()), "m = {}", g.m());
    }

    #[test]
    fn k_nearest_links_each_point_to_k_peers() {
        let pts: Vec<(f64, f64)> = (0..36).map(|i| ((i % 6) as f64, (i / 6) as f64)).collect();
        let g = k_nearest(&pts, 3, 11);
        assert_eq!(g.n(), 36);
        assert!(g.is_connected());
        for v in 0..g.n() {
            assert!(g.degree(v) >= 3 - 1, "degree {} at {v}", g.degree(v));
        }
        // Interior lattice point 14 = (2, 2): its 3 nearest are axis
        // neighbors at distance 1 — all of which must be edges (plus
        // whatever chose it back or the tree added).
        let nb: Vec<usize> = g.neighbors(14).collect();
        let axis = [8, 13, 15, 20];
        let hits = axis.iter().filter(|&&a| nb.contains(&a)).count();
        assert!(hits >= 3, "lattice neighbors missing: {nb:?}");
    }

    #[test]
    fn chung_lu_tracks_the_target_degrees() {
        // Heavy-tailed weights: a hub of weight ~n/2 plus unit weights.
        let mut degrees = vec![2usize; 200];
        degrees[0] = 100;
        let g = chung_lu(&degrees, 5);
        assert_eq!(g.n(), 200);
        assert!(g.is_connected());
        // The hub must dominate: several times the median degree.
        let hub_deg = g.degree(0);
        let mut all: Vec<usize> = (0..200).map(|v| g.degree(v)).collect();
        all.sort_unstable();
        assert!(
            hub_deg >= 4 * all[100].max(1),
            "hub {hub_deg} vs median {}",
            all[100]
        );
        // Reproducible; different seeds differ.
        assert_eq!(chung_lu(&degrees, 5), g);
        assert_ne!(chung_lu(&degrees, 6), g);
    }

    #[test]
    fn bfs_ball_takes_exactly_n_connected_vertices() {
        let g = crate::deterministic::grid(10, 10);
        for n in [1, 8, 17, 64, 100, 500] {
            let ball = bfs_ball(&g, 0, n);
            assert_eq!(ball.n(), n.min(100));
            assert!(ball.is_connected(), "ball of {n} disconnected");
        }
        // Discovery-order relabeling: the start vertex becomes 0.
        let ball = bfs_ball(&g, 55, 30);
        assert_eq!(ball.n(), 30);
        assert!(ball.is_connected());
    }

    #[test]
    fn tiling_scales_past_the_sample_size() {
        let g = crate::deterministic::cycle(10);
        let tiled = tile_graph(&g, 3);
        assert_eq!(tiled.n(), 30);
        assert_eq!(tiled.m(), 3 * 10 + 2, "3 copies + 2 bridges");
        assert!(tiled.is_connected());
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        let tp = tile_coords(&pts, 4);
        assert_eq!(tp.len(), 40);
        // Copies must not overlap.
        let mut xs: Vec<f64> = tp.iter().map(|p| p.0).collect();
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs.windows(2).all(|w| w[1] > w[0]), "coordinate collision");
        // A ball bigger than the sample still has exactly n vertices.
        let big = ball_instance(SAMPLE_ROADNET, 1500);
        assert_eq!(big.n(), 1500);
        assert!(big.is_connected());
    }

    #[test]
    fn subsample_is_seeded_and_order_stable() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 0.0)).collect();
        let a = subsample_coords(&pts, 10, 3);
        assert_eq!(a.len(), 10);
        assert_eq!(a, subsample_coords(&pts, 10, 3));
        assert_ne!(a, subsample_coords(&pts, 10, 4));
        // Ascending original order.
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        // Oversampling returns everything.
        assert_eq!(subsample_coords(&pts, 200, 3).len(), 100);
    }

    #[test]
    fn vendored_samples_load_and_are_connected() {
        for file in [SAMPLE_SOCIAL, SAMPLE_ROADNET] {
            let g = sample_graph(file);
            assert!(g.n() >= 512, "{file}: n = {}", g.n());
            assert!(g.is_connected(), "{file} disconnected");
        }
        let pts = load_coords(&sample_path(SAMPLE_ROADNET_COORDS)).unwrap();
        assert!(pts.len() >= 512);
        // The social sample is the power-law one: its hub dwarfs its
        // median degree.
        let g = sample_graph(SAMPLE_SOCIAL);
        let mut degs: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        assert!(
            g.degree(hub(&g)) >= 8 * degs[g.n() / 2],
            "hub {} vs median {}",
            g.degree(hub(&g)),
            degs[g.n() / 2]
        );
    }

    #[test]
    fn vendored_samples_parse_once_per_process() {
        let first = sample_graph(SAMPLE_SOCIAL);
        let second = sample_graph(SAMPLE_SOCIAL);
        assert!(Arc::ptr_eq(&first, &second), "second call re-parsed");
        assert_eq!(*first, load_graph(&sample_path(SAMPLE_SOCIAL)).unwrap());
    }

    #[test]
    fn family_files_cover_every_dataset_family_and_only_them() {
        for fam in [
            "ds-social",
            "ds-roadnet",
            "ds-unit-disk",
            "ds-knn",
            "ds-chung-lu",
        ] {
            let files = family_files(fam);
            assert!(!files.is_empty(), "{fam} has no backing files");
            for f in files {
                assert!(SAMPLE_FILES.contains(f), "{fam} names unvendored {f}");
            }
        }
        assert!(family_files("cycle").is_empty());
        assert!(family_files("nope").is_empty());
    }
}
