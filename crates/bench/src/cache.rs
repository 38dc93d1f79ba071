//! The content-addressed cell cache: the on-disk result store that makes
//! sweeps incremental.
//!
//! Every experiment case — one `(params, seed set)` cell of a sweep — is
//! keyed by two components:
//!
//! * the **cell-config key** ([`case_key`]): the experiment name, every
//!   case param (`family`, `model`, `algorithm`, `n`, `fault`, …) in
//!   *sorted* order, and the seed count. Sorting makes the key stable
//!   under param reordering; the seed list itself is derived
//!   deterministically from the count ([`crate::measure::master_seed`]),
//!   so the count pins the exact seed set. Wall-clock budget knobs are
//!   deliberately **not** part of the key: the budget decides which cells
//!   run, never what a cell measures, so a budgeted smoke run and an
//!   unlimited gate run share entries for the cells they have in common.
//! * the **`code` digest** ([`code_digest`]), stored alongside the result
//!   and compared on every lookup: one digest of everything the running
//!   binary was built from, compiled in by `build.rs` — the root manifest
//!   and lockfile, the manifest, build script and sources of every crate
//!   under `crates/` and `shims/` (so the vendored `rand` behind every
//!   node's coins too), the vendored dataset samples under `datasets/`
//!   (compiled in by `ebc_graphs::datasets`), the build profile and
//!   `rustc -V` (see `source_closure.rs`). Any such edit, once rebuilt,
//!   invalidates every cell; an edit the running binary was not built
//!   from invalidates nothing.
//!
//! Entries live under `<cache-dir>/<hh>/<hash16>.json` (two-hex-char
//! shards of the FNV-1a key hash). Each entry stores the full key (hash
//! collisions degrade to misses, never to wrong results), the `code`
//! digest it was built under, and the case's serialized measurements.
//! Writes go through a temp file + atomic rename, so concurrent sweeps
//! and a crashed run can never leave a torn entry behind.
//!
//! Non-finite metrics serialize as JSON `null` and would not survive a
//! round trip bit-identically, so cases containing any non-finite
//! measurement are never stored — they simply re-run every time.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;
use crate::measure::{Case, Measurement};
pub use crate::source_closure::fnv1a64;

/// Cache entry schema version; entries with another version are misses.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// The `code` digest of this binary, compiled in by `build.rs`: what every
/// entry is stored under and checked against, and what CI keys its
/// cross-run cache restore on.
pub fn code_digest() -> &'static str {
    env!("EBC_CODE_DIGEST")
}

/// The text of one case param, as cache keys, baseline case keys and
/// profile labels write it.
pub(crate) fn canon_param(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Int(i) => i.to_string(),
        Json::Num(x) => format!("{x}"),
        Json::Bool(b) => b.to_string(),
        // Params are scalars today; containers get the (stable) serializer.
        other => other.to_string_pretty(),
    }
}

/// The cell-config key of one case: experiment, seed count, and every
/// param as `key=value` in **sorted** order — reordering the params of a
/// case never changes its key.
pub fn case_key(experiment: &str, params: &[(&'static str, Json)], seeds: u64) -> String {
    let mut parts: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{k}={}", canon_param(v)))
        .collect();
    parts.sort();
    format!("{experiment}|seeds={seeds}|{}", parts.join("|"))
}

/// Hit/miss/invalidation counters for one run (or one experiment).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the store without re-executing.
    pub hits: usize,
    /// Cells absent from the store (first sight of this config).
    pub misses: usize,
    /// Cells present but stored under another `code` digest.
    pub invalidated: usize,
}

impl CacheStats {
    /// Cells that actually executed (everything that was not a hit).
    pub fn executed(&self) -> usize {
        self.misses + self.invalidated
    }

    /// Folds `other` into this tally.
    pub fn add(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidated += other.invalidated;
    }

    /// The stats as a JSON object (the shape embedded in result docs,
    /// the gate report, and `BENCH_cache_stats.json`).
    pub fn to_json(self) -> Json {
        Json::obj()
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("invalidated", self.invalidated)
    }
}

/// What one lookup found.
pub enum Lookup {
    /// The cell is warm: a stored case built under the current `code`.
    Hit(Case),
    /// No readable entry under this key.
    Miss,
    /// An entry exists, but it was stored under another `code` digest —
    /// the cell must re-run.
    Invalidated,
}

/// The on-disk store. One instance per run; all methods take `&self`
/// (writes are atomic renames, safe under rayon).
pub struct CellCache {
    dir: PathBuf,
    code: &'static str,
}

impl CellCache {
    /// Opens (creating if needed) the store at `dir` under this binary's
    /// [`code_digest`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache, String> {
        Self::open_with(dir, code_digest())
    }

    /// Opens the store at `dir` under the `code` digest `code` (tests
    /// plant their own).
    fn open_with(dir: impl Into<PathBuf>, code: &'static str) -> Result<CellCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(CellCache { dir, code })
    }

    /// Where this store lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let hash = hex16(fnv1a64(key.as_bytes()));
        self.dir.join(&hash[..2]).join(format!("{hash}.json"))
    }

    /// Looks `key` up. An unreadable entry, another schema or another key
    /// (a hash collision) is a miss; an entry stored under another `code`
    /// digest is invalidated.
    pub fn lookup(&self, key: &str) -> Lookup {
        let Some(entry) = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
        else {
            return Lookup::Miss;
        };
        if entry.get("cache_schema").and_then(Json::as_f64) != Some(f64::from(CACHE_SCHEMA_VERSION))
            || entry.get("key").and_then(Json::as_str) != Some(key)
        {
            return Lookup::Miss;
        }
        if entry.get("code").and_then(Json::as_str) != Some(self.code) {
            return Lookup::Invalidated;
        }
        match entry.get("case").and_then(case_from_json) {
            Some(case) => Lookup::Hit(case),
            // A torn or hand-edited entry: treat as absent.
            None => Lookup::Miss,
        }
    }

    /// Stores `case` under `key`, tagged with this store's `code` digest.
    /// Atomic (temp file + rename); cases with any non-finite metric are
    /// skipped (they cannot round-trip bit-identically).
    pub fn store(&self, key: &str, case: &Case) -> Result<(), String> {
        let finite = case
            .measurements
            .iter()
            .all(|m| m.metrics.iter().all(|(_, v)| v.is_finite()));
        if !finite {
            return Ok(());
        }
        let entry = Json::obj()
            .field("cache_schema", CACHE_SCHEMA_VERSION)
            .field("key", key)
            .field("code", self.code)
            .field("case", case.to_json());
        let path = self.entry_path(key);
        let shard = path.parent().expect("sharded path");
        std::fs::create_dir_all(shard)
            .map_err(|e| format!("cannot create {}: {e}", shard.display()))?;
        let tmp = shard.join(format!(
            ".{}.tmp{}",
            path.file_stem().expect("stem").to_string_lossy(),
            std::process::id()
        ));
        std::fs::write(&tmp, entry.to_string_pretty())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename into {}: {e}", path.display()))
    }
}

/// Interns a string so deserialized cases can share the `&'static str`
/// keys live cases use. The pool is bounded by the set of distinct metric
/// and param names, so the leak is a few hundred bytes total.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("intern pool");
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Rebuilds a [`Case`] from its [`Case::to_json`] serialization. The
/// summary is recomputed from the measurements (same fold, same order →
/// bit-identical statistics). Returns `None` on any shape mismatch.
pub fn case_from_json(doc: &Json) -> Option<Case> {
    let Json::Obj(param_pairs) = doc.get("params")? else {
        return None;
    };
    let params: Vec<(&'static str, Json)> = param_pairs
        .iter()
        .map(|(k, v)| (intern(k), v.clone()))
        .collect();
    let mut measurements = Vec::new();
    for m in doc.get("measurements")?.as_arr()? {
        let Json::Obj(pairs) = m else { return None };
        let seed = m.get("seed").and_then(Json::as_f64)? as u64;
        let mut metrics = Vec::new();
        for (k, v) in pairs {
            if k == "seed" {
                continue;
            }
            metrics.push((intern(k), v.as_f64()?));
        }
        measurements.push(Measurement { seed, metrics });
    }
    Some(Case::new(params, measurements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::sweep_seeds;

    fn sample_case() -> Case {
        let measurements = sweep_seeds(3, |seed| {
            vec![
                ("time", seed as f64 * 1.25),
                ("energy_max", (seed % 7) as f64 + 0.1),
            ]
        });
        Case::new(
            vec![
                ("family", "cycle".into()),
                ("n", 64usize.into()),
                ("model", "local".into()),
                ("algorithm", "naive_flood".into()),
            ],
            measurements,
        )
    }

    fn temp_cache(tag: &str) -> CellCache {
        let dir = std::env::temp_dir().join(format!("ebc_cache_store_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        CellCache::open_with(dir, "c0de").unwrap()
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: the on-disk shard layout depends on these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let cache = temp_cache("roundtrip");
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        cache.store(&key, &case).unwrap();
        match cache.lookup(&key) {
            Lookup::Hit(loaded) => {
                // Bit-identical: the serialized documents (params, summary
                // statistics, raw measurements) match byte for byte.
                assert_eq!(
                    loaded.to_json().to_string_pretty(),
                    case.to_json().to_string_pretty()
                );
            }
            _ => panic!("stored case did not hit"),
        }
    }

    #[test]
    fn key_is_stable_under_param_reordering() {
        let a = vec![
            ("family", Json::from("cycle")),
            ("n", Json::from(64usize)),
            ("model", Json::from("cd")),
        ];
        let b = vec![
            ("model", Json::from("cd")),
            ("family", Json::from("cycle")),
            ("n", Json::from(64usize)),
        ];
        assert_eq!(case_key("m", &a, 2), case_key("m", &b, 2));
        // …but any config change — a param value or the seed set — is a
        // different cell.
        let mut c = a.clone();
        c[1].1 = Json::from(128usize);
        assert_ne!(case_key("m", &a, 2), case_key("m", &c, 2));
        assert_ne!(case_key("m", &a, 2), case_key("m", &a, 3));
        assert_ne!(case_key("m", &a, 2), case_key("other", &a, 2));
    }

    #[test]
    fn config_change_is_a_miss_not_a_stale_hit() {
        let cache = temp_cache("config");
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        cache.store(&key, &case).unwrap();
        // More seeds → different key → miss.
        let other = case_key("scenario_matrix", &case.params, 4);
        assert!(matches!(cache.lookup(&other), Lookup::Miss));
    }

    #[test]
    fn rewritten_code_digest_reads_as_invalidated() {
        // An entry whose stored `code` digest is not this binary's — here
        // rewritten on disk — must re-run, never hit.
        let cache = temp_cache("code_rewrite");
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        cache.store(&key, &case).unwrap();
        assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
        let path = cache.entry_path(&key);
        let text = std::fs::read_to_string(&path).unwrap();
        let stored = "\"code\": \"c0de\"";
        assert!(text.contains(stored), "{text}");
        std::fs::write(&path, text.replace(stored, "\"code\": \"c0df\"")).unwrap();
        assert!(matches!(cache.lookup(&key), Lookup::Invalidated));
    }

    #[test]
    fn nonfinite_metrics_are_never_stored() {
        let cache = temp_cache("nonfinite");
        let case = Case::new(
            vec![("n", 4usize.into())],
            vec![Measurement {
                seed: 1000,
                metrics: vec![("time", f64::NAN)],
            }],
        );
        let key = case_key("m", &case.params, 1);
        cache.store(&key, &case).unwrap();
        assert!(matches!(cache.lookup(&key), Lookup::Miss));
    }

    #[test]
    fn open_uses_the_compiled_in_code_digest() {
        // The production path: `open` checks and stores entries under this
        // binary's compiled-in code digest, so a planted one re-runs.
        let planted = temp_cache("compiled_in");
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        planted.store(&key, &case).unwrap();
        let cache = CellCache::open(planted.dir()).unwrap();
        assert_eq!(cache.code, env!("EBC_CODE_DIGEST"));
        assert_eq!(code_digest().len(), 16);
        assert!(matches!(cache.lookup(&key), Lookup::Invalidated));
        cache.store(&key, &case).unwrap();
        assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
    }
}
