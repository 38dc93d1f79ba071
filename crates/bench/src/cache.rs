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
//! * the **code-version fingerprint** ([`SourceDigests`]), stored
//!   alongside the result and revalidated on every lookup. Every cell
//!   depends on `code`: one digest of everything the running binary was
//!   built from, compiled in by `build.rs` — the root manifest and
//!   lockfile, the manifest, build script and sources of every crate
//!   under `crates/` and `shims/` (so the vendored `rand` behind every
//!   node's coins too), the build profile and `rustc -V` (see
//!   `source_closure.rs`). Any such edit, once rebuilt, invalidates
//!   every cell; an edit the running binary was not built from
//!   invalidates nothing. Cells whose `family` is dataset-derived
//!   additionally carry one `dataset:<file>` pseudo-dependency per backing
//!   file, digesting the dataset's *content* as it is on disk at run time
//!   — editing the dataset invalidates exactly the dataset-backed cells.
//!
//! Entries live under `<cache-dir>/<hh>/<hash16>.json` (two-hex-char
//! shards of the FNV-1a key hash). Each entry stores the full key (hash
//! collisions degrade to misses, never to wrong results), the dependency
//! digests it was built under, and the case's serialized measurements.
//! Writes go through a temp file + atomic rename, so concurrent sweeps
//! and a crashed run can never leave a torn entry behind.
//!
//! Non-finite metrics serialize as JSON `null` and would not survive a
//! round trip bit-identically, so cases containing any non-finite
//! measurement are never stored — they simply re-run every time.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use ebc_graphs::datasets::{family_files, sample_path, SAMPLE_FILES};

use crate::json::Json;
use crate::measure::{Case, Measurement};
pub use crate::source_closure::fnv1a64;
use crate::source_closure::Fnv;

/// Cache entry schema version; entries with another version are misses.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// The dependency set of one cell, from its params: `code`, plus — for
/// cells whose `family` param names a dataset-derived family — one
/// `dataset:<file>` pseudo-dependency per backing file, so editing the
/// dataset on disk invalidates exactly the cells whose graphs were built
/// from it.
pub fn deps_for(params: &[(&'static str, Json)]) -> Vec<&'static str> {
    let mut deps = vec!["code"];
    if let Some(family) = params
        .iter()
        .find(|(k, _)| *k == "family")
        .and_then(|(_, v)| v.as_str())
    {
        for file in family_files(family) {
            deps.push(dataset_dep(file));
        }
    }
    deps
}

/// The pseudo-dependency key of one dataset file (`dataset:<file>`),
/// interned so deserialized and live cells share one `&'static str`.
pub fn dataset_dep(file: &str) -> &'static str {
    intern(&format!("dataset:{file}"))
}

fn canon_param(v: &Json) -> String {
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

/// The code-version half of every cache key: the `code` digest and one
/// content digest per vendored dataset file.
#[derive(Debug, Clone)]
pub struct SourceDigests {
    digests: BTreeMap<&'static str, String>,
}

impl SourceDigests {
    /// The digests of this binary: the `code` digest compiled in by
    /// `build.rs`, and the content digest of every vendored dataset file
    /// where the loaders read it ([`sample_path`], so `--dataset-dir`
    /// moves both). A missing file digests as `"absent"`, so adding the
    /// file later reads as a content change.
    pub fn compute() -> SourceDigests {
        Self::from_parts(env!("EBC_CODE_DIGEST"), sample_path)
    }

    /// `code` plus the content digest of each vendored dataset file at
    /// `path_of(file)` (tests plant their own).
    fn from_parts(code: &str, path_of: impl Fn(&str) -> PathBuf) -> SourceDigests {
        let mut digests = BTreeMap::new();
        digests.insert("code", code.to_string());
        for file in SAMPLE_FILES {
            let digest = std::fs::read(path_of(file))
                .map(|bytes| hex16(fnv1a64(&bytes)))
                .unwrap_or_else(|_| "absent".to_string());
            digests.insert(dataset_dep(file), digest);
        }
        SourceDigests { digests }
    }

    /// The digest under `key` (`code` or `dataset:<file>`), if this
    /// fingerprint knows it.
    pub fn try_digest(&self, key: &str) -> Option<&str> {
        self.digests.get(key).map(String::as_str)
    }

    /// The digest under `key` (panics on unknown keys).
    pub fn digest(&self, key: &str) -> &str {
        self.try_digest(key)
            .unwrap_or_else(|| panic!("unknown dependency {key:?}"))
    }

    /// One combined fingerprint over `deps`' digests — order-independent
    /// in the input (the set is sorted first).
    pub fn fingerprint(&self, deps: &[&str]) -> String {
        let mut sorted: Vec<&str> = deps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut h = Fnv::default();
        for dep in sorted {
            h.update(dep.as_bytes());
            h.update(b"=");
            h.update(self.digest(dep).as_bytes());
            h.update(b"\n");
        }
        hex16(h.finish())
    }

    /// The combined fingerprint over every dependency this store knows —
    /// the code *and* all dataset files — what CI keys its cross-run
    /// cache restore on. A dataset edit moves it just like a rebuild from
    /// edited sources.
    pub fn combined(&self) -> String {
        let keys: Vec<&str> = self.digests.keys().copied().collect();
        self.fingerprint(&keys)
    }

    /// All digests as a JSON object (the stats payload).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (dep, digest) in &self.digests {
            obj = obj.field(dep, digest.as_str());
        }
        obj
    }
}

/// Hit/miss/invalidation counters for one run (or one experiment).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the store without re-executing.
    pub hits: usize,
    /// Cells absent from the store (first sight of this config).
    pub misses: usize,
    /// Cells present but stored under different dependency digests.
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
    /// The cell is warm: a stored case built under the current digests.
    Hit(Case),
    /// No entry under this key.
    Miss,
    /// An entry exists, but at least one dependency digest moved (or the
    /// dependency set itself changed) — the cell must re-run.
    Invalidated,
}

/// The on-disk store. One instance per run; all methods take `&self`
/// (writes are atomic renames, safe under rayon).
pub struct CellCache {
    dir: PathBuf,
    digests: SourceDigests,
}

impl CellCache {
    /// Opens (creating if needed) the store at `dir` under this binary's
    /// [`SourceDigests::compute`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache, String> {
        Self::open_with(dir, SourceDigests::compute())
    }

    /// Opens the store at `dir` under pre-computed digests (tests plant
    /// their own).
    pub fn open_with(dir: impl Into<PathBuf>, digests: SourceDigests) -> Result<CellCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(CellCache { dir, digests })
    }

    /// The digests this store validates entries against.
    pub fn digests(&self) -> &SourceDigests {
        &self.digests
    }

    /// Where this store lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let hash = hex16(fnv1a64(key.as_bytes()));
        self.dir.join(&hash[..2]).join(format!("{hash}.json"))
    }

    /// Looks `key` up, revalidating the entry's dependency digests against
    /// the current ones for exactly the dependencies in `deps`.
    pub fn lookup(&self, key: &str, deps: &[&str]) -> Lookup {
        let Some((entry, fresh)) = self.read_entry(key) else {
            return Lookup::Miss;
        };
        let stored: BTreeSet<&str> = entry
            .get("deps")
            .and_then(|d| match d {
                Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.as_str()).collect()),
                _ => None,
            })
            .unwrap_or_default();
        let wanted: BTreeSet<&str> = deps.iter().copied().collect();
        if stored != wanted || !fresh {
            return Lookup::Invalidated;
        }
        match entry.get("case").and_then(case_from_json) {
            Some(case) => Lookup::Hit(case),
            // A torn or hand-edited entry: treat as absent.
            None => Lookup::Miss,
        }
    }

    /// Reads the raw entry under `key`, if any, plus whether every stored
    /// dependency digest still matches the current one. Key mismatches
    /// (hash collisions) read as absent.
    pub fn read_entry(&self, key: &str) -> Option<(Json, bool)> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let entry = Json::parse(&text).ok()?;
        if entry.get("cache_schema").and_then(Json::as_f64) != Some(f64::from(CACHE_SCHEMA_VERSION))
            || entry.get("key").and_then(Json::as_str) != Some(key)
        {
            return None;
        }
        let fresh = match entry.get("deps") {
            Some(Json::Obj(pairs)) => pairs.iter().all(|(dep, digest)| {
                // Unknown dependency names — a key from an older layout,
                // a dataset file no longer vendored — read as not
                // fresh, never as a panic.
                self.digests
                    .try_digest(dep)
                    .is_some_and(|current| digest.as_str() == Some(current))
            }),
            _ => false,
        };
        Some((entry, fresh))
    }

    /// Stores `case` under `key`, tagged with the current digests of
    /// `deps`. Atomic (temp file + rename); cases with any non-finite
    /// metric are skipped (they cannot round-trip bit-identically).
    pub fn store(&self, key: &str, deps: &[&str], case: &Case) -> Result<(), String> {
        let finite = case
            .measurements
            .iter()
            .all(|m| m.metrics.iter().all(|(_, v)| v.is_finite()));
        if !finite {
            return Ok(());
        }
        let mut dep_obj = Json::obj();
        let mut sorted: Vec<&str> = deps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for dep in sorted {
            dep_obj = dep_obj.field(dep, self.digests.digest(dep));
        }
        let entry = Json::obj()
            .field("cache_schema", CACHE_SCHEMA_VERSION)
            .field("key", key)
            .field("deps", dep_obj)
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

    /// Digests under a planted `code` value, with dataset files read from
    /// `<temp>/ebc_cache_datasets_<tag>` (empty unless the test writes).
    fn planted(tag: &str, code: &str) -> SourceDigests {
        let dir = std::env::temp_dir().join(format!("ebc_cache_datasets_{tag}"));
        SourceDigests::from_parts(code, |file| dir.join(file))
    }

    fn temp_cache(tag: &str) -> CellCache {
        let dir = std::env::temp_dir().join(format!("ebc_cache_store_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        CellCache::open_with(dir, planted(tag, "c0de")).unwrap()
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
        let deps = deps_for(&case.params);
        cache.store(&key, &deps, &case).unwrap();
        match cache.lookup(&key, &deps) {
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
        cache.store(&key, &["code"], &case).unwrap();
        // More seeds → different key → miss.
        let other = case_key("scenario_matrix", &case.params, 4);
        assert!(matches!(cache.lookup(&other, &["code"]), Lookup::Miss));
    }

    #[test]
    fn rewritten_code_digest_reads_as_invalidated() {
        // An entry whose stored `code` digest is not this binary's — here
        // rewritten on disk — must re-run, never hit.
        let cache = temp_cache("code_rewrite");
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        cache.store(&key, &["code"], &case).unwrap();
        assert!(matches!(cache.lookup(&key, &["code"]), Lookup::Hit(_)));
        let path = cache.entry_path(&key);
        let text = std::fs::read_to_string(&path).unwrap();
        let stored = "\"code\": \"c0de\"";
        assert!(text.contains(stored), "{text}");
        std::fs::write(&path, text.replace(stored, "\"code\": \"c0df\"")).unwrap();
        assert!(matches!(cache.lookup(&key, &["code"]), Lookup::Invalidated));
    }

    #[test]
    fn dep_set_change_invalidates() {
        let cache = temp_cache("depset");
        let case = sample_case();
        let key = case_key("m", &case.params, 3);
        cache.store(&key, &["code"], &case).unwrap();
        let wider = ["code", dataset_dep("sample-social.txt")];
        assert!(matches!(cache.lookup(&key, &wider), Lookup::Invalidated));
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
        cache.store(&key, &["code"], &case).unwrap();
        assert!(matches!(cache.lookup(&key, &["code"]), Lookup::Miss));
    }

    #[test]
    fn fingerprint_is_order_independent_and_source_sensitive() {
        let d = planted("fp", "c0de");
        let social = dataset_dep("sample-social.txt");
        assert_eq!(
            d.fingerprint(&["code", social]),
            d.fingerprint(&[social, "code"])
        );
        assert_ne!(d.fingerprint(&["code"]), d.fingerprint(&[social]));
        let rebuilt = planted("fp", "c0df");
        assert_ne!(
            d.combined(),
            rebuilt.combined(),
            "a new code digest must move the fingerprint"
        );
        assert_eq!(
            d.digest(social),
            rebuilt.digest(social),
            "dataset digests do not depend on the code"
        );
        // The planted directory holds no dataset files: each digests as
        // `absent`.
        for file in SAMPLE_FILES {
            assert_eq!(d.digest(dataset_dep(file)), "absent", "{file}");
        }
    }

    #[test]
    fn deps_for_adds_dataset_files_for_dataset_families() {
        // Synthetic families depend on the code only.
        let cycle = vec![
            ("algorithm", Json::from("naive_flood")),
            ("family", Json::from("cycle")),
        ];
        assert_eq!(deps_for(&cycle), ["code"]);
        assert_eq!(deps_for(&[]), ["code"]);
        // Dataset families append one dataset:<file> pseudo-dep per
        // backing file.
        let ds = vec![
            ("algorithm", Json::from("naive_flood")),
            ("family", Json::from("ds-social")),
        ];
        assert_eq!(deps_for(&ds), ["code", "dataset:sample-social.txt"]);
        let ds_t11 = vec![
            ("algorithm", Json::from("theorem11")),
            ("family", Json::from("ds-unit-disk")),
        ];
        assert_eq!(deps_for(&ds_t11), ["code", "dataset:sample-roadnet.co"]);
    }

    #[test]
    fn dataset_edit_invalidates_only_dataset_backed_cells() {
        // The planted-edit contract: two cells, one built from a
        // synthetic family and one from an on-disk dataset. Editing the
        // dataset file re-runs only the dataset-backed cell.
        let ds_dir = std::env::temp_dir().join("ebc_cache_datasets_dataset_edit");
        std::fs::create_dir_all(&ds_dir).unwrap();
        std::fs::write(ds_dir.join("sample-social.txt"), "0 1\n1 2\n").unwrap();
        let store_dir = std::env::temp_dir().join("ebc_cache_store_dataset_edit");
        std::fs::remove_dir_all(&store_dir).ok();
        let cache = CellCache::open_with(&store_dir, planted("dataset_edit", "c0de")).unwrap();
        let combined_before = cache.digests().combined();

        let cycle_case = sample_case();
        let cycle_deps = deps_for(&cycle_case.params);
        let cycle_key = case_key("scenario_matrix", &cycle_case.params, 3);
        let mut ds_params = cycle_case.params.clone();
        ds_params[0].1 = Json::from("ds-social");
        let ds_deps = deps_for(&ds_params);
        let ds_key = case_key("scenario_matrix", &ds_params, 3);
        cache.store(&cycle_key, &cycle_deps, &cycle_case).unwrap();
        cache
            .store(
                &ds_key,
                &ds_deps,
                &Case::new(ds_params, cycle_case.measurements.clone()),
            )
            .unwrap();
        assert!(matches!(cache.lookup(&ds_key, &ds_deps), Lookup::Hit(_)));

        // Plant the edit: one more edge in the dataset file.
        std::fs::write(ds_dir.join("sample-social.txt"), "0 1\n1 2\n2 3\n").unwrap();
        let cache = CellCache::open_with(&store_dir, planted("dataset_edit", "c0de")).unwrap();
        assert!(
            matches!(cache.lookup(&cycle_key, &cycle_deps), Lookup::Hit(_)),
            "synthetic cell does not read the dataset — must stay warm"
        );
        assert!(
            matches!(cache.lookup(&ds_key, &ds_deps), Lookup::Invalidated),
            "dataset-backed cell must invalidate on a dataset edit"
        );
        assert_ne!(
            combined_before,
            cache.digests().combined(),
            "the combined fingerprint must move on a dataset edit"
        );
    }

    #[test]
    fn real_workspace_digests_compute() {
        // The production path: this binary's compiled-in code digest plus
        // the vendored datasets.
        let d = SourceDigests::compute();
        assert_eq!(d.combined().len(), 16);
        assert_eq!(d.digest("code"), env!("EBC_CODE_DIGEST"));
        assert_eq!(d.digest("code").len(), 16);
        for file in SAMPLE_FILES {
            assert_eq!(d.digest(dataset_dep(file)).len(), 16, "{file}");
        }
    }
}
