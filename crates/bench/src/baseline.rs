//! Checked-in baselines and the CI regression gate, over **every**
//! registered experiment.
//!
//! [`baseline_doc`] distills one experiment run into a compact,
//! diff-friendly document: the per-case summary mean of every recorded
//! metric and — where the cases form `(algorithm, family, model)` cells —
//! fitted scaling exponents with their bootstrap CIs.
//! `--update-baselines` writes one `bench-baselines/<experiment>.json`
//! per registered experiment; `--check-against <dir>` re-runs each
//! experiment, builds the same document fresh, and diffs the two — a
//! nonzero exit on any out-of-tolerance drift gates PRs on correctness
//! (absolute per-case means) *and* asymptotics (exponents and growth
//! classes). Cases and fits the baseline lacks are notes, not
//! regressions: new coverage gates once a refresh records it.
//!
//! Exponents gate on **CI overlap**, not a fixed band: a drift only
//! regresses when the baseline and fresh bootstrap intervals exclude each
//! other, and a growth-class flip only fails outright between two
//! `class_confident` fits whose CIs exclude each other (anything softer
//! is reported as a note) — quick-mode fits over ~4 n-points are noisy
//! enough that a hand-tuned band either trips on seed noise or masks
//! real drift. Per-case means keep a relative
//! tolerance, [`METRIC_REL_TOLERANCE`] (exponents without a CI fall back
//! to the absolute band [`EXPONENT_ABS_TOLERANCE`]): sweeps are
//! deterministic given their seeds, so in CI those diffs are normally
//! exact, and the tolerance exists to absorb intentional small
//! reparameterizations without churning the baselines.
//! Both the gate and the updater force an unlimited cell budget —
//! wall-clock truncation would make the case set machine-dependent.

use std::path::{Path, PathBuf};

use crate::analysis::{ci_from_json, FIT_METRICS};
use crate::cache::{canon_param, CacheStats};
use crate::experiments::ExperimentResult;
use crate::json::Json;
use crate::measure::Case;

/// The baseline file name for one experiment (`<name>.json` in the
/// baseline directory).
pub fn baseline_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{experiment}.json"))
}

/// Maximum relative drift of a per-case summary mean.
pub const METRIC_REL_TOLERANCE: f64 = 0.10;

/// Maximum absolute drift of a fitted power-law exponent — the fallback
/// band, used only when either side lacks a bootstrap CI (CI-overlap is
/// the primary gate).
pub const EXPONENT_ABS_TOLERANCE: f64 = 0.25;

/// What a baseline comparison found.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Out-of-tolerance drifts and coverage losses — any entry here gates.
    pub regressions: Vec<String>,
    /// Benign differences (new coverage the baseline predates).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// The stable identity of one case: every param as `key=value`, joined
/// with `/`. Works for any experiment's parameter shape (the matrix's
/// `(algorithm, family, model, n)` cells, `fig1_path`'s `(graph, n)`,
/// Theorem 2's `(gadget, k, protocol, model)` …).
fn case_key(case: &Case) -> String {
    case.params
        .iter()
        .map(|(k, v)| format!("{k}={}", canon_param(v)))
        .collect::<Vec<_>>()
        .join("/")
}

/// Distills `result` into the baseline document the gate stores and
/// diffs: per-case summary means of every recorded metric, and per-cell
/// fits with bootstrap exponent CIs.
pub fn baseline_doc(result: &ExperimentResult) -> Json {
    let mut cases = Vec::new();
    for case in &result.cases {
        let mut obj = Json::obj().field("case", case_key(case));
        for (metric, stats) in &case.summary.metrics {
            obj = obj.field(metric, stats.mean);
        }
        cases.push(obj);
    }
    // Only the scenario matrix has fits: they group cases on the `family`
    // param, which no other experiment's cases carry. The matrix already
    // computed (and emitted) them, so their rows are lifted from there.
    let fit_rows = result
        .extra
        .iter()
        .find(|(k, _)| *k == "fits")
        .map_or_else(Vec::new, |(_, fits)| fit_rows_from_json(fits));
    Json::obj()
        .field("schema_version", crate::experiments::SCHEMA_VERSION)
        .field("experiment", result.spec.name)
        .field(
            "config",
            Json::obj()
                .field("quick", result.config.quick)
                .field("seeds", result.config.seeds.map_or(Json::Null, Json::from)),
        )
        .field("cases", Json::Arr(cases))
        .field("fits", Json::Arr(fit_rows))
}

/// The per-fit gate rows, lifted from a serialized `fits` section
/// ([`crate::analysis::fits_to_json`] layout), in [`FIT_METRICS`] order.
fn fit_rows_from_json(fits: &Json) -> Vec<Json> {
    let mut rows = Vec::new();
    for cell in fits.as_arr().unwrap_or(&[]) {
        let name = |key: &str| cell.get(key).and_then(Json::as_str).unwrap_or("?");
        let cell_key = format!("{}/{}/{}", name("algorithm"), name("family"), name("model"));
        for metric in FIT_METRICS {
            let Some(m) = cell.get("metrics").and_then(|ms| ms.get(metric)) else {
                continue;
            };
            let lift = |key: &str| m.get(key).cloned().unwrap_or(Json::Null);
            rows.push(
                Json::obj()
                    .field("cell", cell_key.as_str())
                    .field("metric", metric)
                    .field("points", lift("points"))
                    .field("class", lift("class"))
                    .field("class_confident", lift("class_confident"))
                    .field("exponent", lift("exponent"))
                    .field("exponent_ci", lift("exponent_ci")),
            );
        }
    }
    rows
}

/// The `cases` rows of a baseline document, keyed by their `case` field.
fn case_rows(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("cases")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("case").and_then(Json::as_str).map(|k| (k, r)))
                .collect()
        })
        .unwrap_or_default()
}

fn rel_drift(base: f64, fresh: f64) -> f64 {
    if base == fresh {
        return 0.0; // covers 0 == 0 and exact reproduction
    }
    (fresh - base).abs() / base.abs().max(1e-12)
}

/// Whether two intervals exclude each other (strictly disjoint).
fn cis_disjoint(a: (f64, f64), b: (f64, f64)) -> bool {
    a.1 < b.0 || b.1 < a.0
}

/// Diffs the metric fields (everything except the `case` key) of one
/// baseline case row against its fresh counterpart, with relative
/// tolerance.
fn diff_case_metrics(report: &mut DiffReport, key: &str, base_row: &Json, fresh_row: &Json) {
    let Json::Obj(pairs) = base_row else { return };
    for (metric, base_value) in pairs {
        if metric == "case" {
            continue;
        }
        let b = base_value.as_f64();
        let f = fresh_row.get(metric).and_then(Json::as_f64);
        match (b, f) {
            (Some(b), Some(f)) => {
                let drift = rel_drift(b, f);
                if drift > METRIC_REL_TOLERANCE {
                    report.regressions.push(format!(
                        "case {key}: {metric} drifted {:+.1}% (baseline {b}, fresh {f}, \
                         tolerance ±{:.0}%)",
                        100.0 * (f - b) / b.abs().max(1e-12),
                        100.0 * METRIC_REL_TOLERANCE,
                    ));
                }
            }
            // A metric that was null in both documents (e.g. a NaN mean
            // serialized as null) is consistently absent, not a drift.
            (None, None) => {}
            _ => report.regressions.push(format!(
                "case {key}: {metric} not comparable (baseline {b:?}, fresh {f:?})"
            )),
        }
    }
    // The symmetric half: metrics only the fresh row records are ungated
    // coverage — surface them like fresh-only rows.
    if let Json::Obj(fresh_pairs) = fresh_row {
        for (metric, _) in fresh_pairs {
            if metric != "case" && base_row.get(metric).is_none() {
                report.notes.push(format!(
                    "case {key}: metric {metric} is new (not in baseline — refresh \
                     to gate it)"
                ));
            }
        }
    }
}

/// Diffs the `cases` sections: baseline cases missing fresh are
/// regressions, metric drifts gate with relative tolerance, fresh-only
/// cases are notes.
fn diff_cases(report: &mut DiffReport, baseline: &Json, fresh: &Json) {
    let fresh_rows = case_rows(fresh);
    let fresh_by_key: std::collections::HashMap<&str, &Json> = fresh_rows.iter().copied().collect();
    let mut baseline_keys = std::collections::HashSet::new();
    for (key, base_row) in case_rows(baseline) {
        baseline_keys.insert(key);
        let Some(fresh_row) = fresh_by_key.get(key) else {
            report
                .regressions
                .push(format!("case {key}: present in baseline, missing fresh"));
            continue;
        };
        diff_case_metrics(report, key, base_row, fresh_row);
    }
    for (key, _) in fresh_rows {
        if !baseline_keys.contains(key) {
            report.notes.push(format!(
                "case {key}: new (not in baseline — refresh to gate it)"
            ));
        }
    }
}

/// Diffs a fresh baseline document against the checked-in one.
///
/// Per-case means gate on relative drift beyond
/// [`METRIC_REL_TOLERANCE`]; fitted exponents gate on **bootstrap-CI
/// overlap** (the [`EXPONENT_ABS_TOLERANCE`] band is only the fallback
/// when either side lacks a CI), and growth-class flips gate outright
/// only when the two exponent CIs exclude each other — a flip whose CIs
/// overlap is seed noise around a classification boundary and is
/// reported as a note instead.
pub fn diff(baseline: &Json, fresh: &Json) -> DiffReport {
    let mut report = DiffReport::default();
    for field in ["experiment", "config"] {
        let (b, f) = (baseline.get(field), fresh.get(field));
        if b != f {
            report.regressions.push(format!(
                "{field} mismatch: baseline {b:?} vs fresh {f:?} — \
                 compare like with like (same --quick/--seeds), or refresh \
                 with --update-baselines"
            ));
        }
    }

    diff_cases(&mut report, baseline, fresh);

    let fit_key = |row: &Json| -> Option<String> {
        Some(format!(
            "{} [{}]",
            row.get("cell")?.as_str()?,
            row.get("metric")?.as_str()?
        ))
    };
    let fresh_fits: std::collections::HashMap<String, &Json> = fresh
        .get("fits")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| fit_key(r).map(|k| (k, r)))
                .collect()
        })
        .unwrap_or_default();
    for row in baseline.get("fits").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(key) = fit_key(row) else { continue };
        let Some(fresh_row) = fresh_fits.get(&key) else {
            report
                .regressions
                .push(format!("fit {key}: present in baseline, missing fresh"));
            continue;
        };
        let b_ci = ci_from_json(row.get("exponent_ci"));
        let f_ci = ci_from_json(fresh_row.get("exponent_ci"));
        let cis_exclude = match (b_ci, f_ci) {
            (Some(b), Some(f)) => Some(cis_disjoint(b, f)),
            _ => None,
        };
        let b_class = row.get("class").and_then(Json::as_str);
        let f_class = fresh_row.get("class").and_then(Json::as_str);
        if b_class != f_class {
            // A flip is a regression only between two *class-confident*
            // fits whose exponent CIs exclude each other (no CIs at all
            // on a confident pair also gates — overlap cannot be shown).
            // Anything softer — a non-confident side, or overlapping
            // CIs — is seed noise around a classification boundary.
            let confident = |doc: &Json| doc.get("class_confident") == Some(&Json::Bool(true));
            let both_confident = confident(row) && confident(fresh_row);
            if both_confident && cis_exclude.unwrap_or(true) {
                report.regressions.push(format!(
                    "fit {key}: growth class changed {} → {} (both class-confident{})",
                    b_class.unwrap_or("?"),
                    f_class.unwrap_or("?"),
                    match cis_exclude {
                        Some(true) => ", exponent CIs exclude each other",
                        _ => ", no CI to show overlap",
                    }
                ));
            } else {
                report.notes.push(format!(
                    "fit {key}: growth class flipped {} → {}, but {} — within seed \
                     noise, not gated",
                    b_class.unwrap_or("?"),
                    f_class.unwrap_or("?"),
                    if both_confident {
                        "the exponent CIs overlap"
                    } else {
                        "the classification is not seed-stable on both sides"
                    },
                ));
            }
        }
        let b_points = row.get("points").and_then(Json::as_f64);
        let f_points = fresh_row.get("points").and_then(Json::as_f64);
        if b_points != f_points {
            report.regressions.push(format!(
                "fit {key}: n-point coverage changed {b_points:?} → {f_points:?}"
            ));
        }
        match (
            row.get("exponent").and_then(Json::as_f64),
            fresh_row.get("exponent").and_then(Json::as_f64),
        ) {
            (Some(b), Some(f)) => match (b_ci, f_ci) {
                // The statistically sound gate: drift fails only when the
                // two bootstrap CIs exclude each other.
                (Some(bc), Some(fc)) => {
                    if cis_disjoint(bc, fc) {
                        report.regressions.push(format!(
                            "fit {key}: exponent drifted {b:.3} → {f:.3} and the bootstrap \
                             CIs exclude each other ([{:.3}, {:.3}] vs [{:.3}, {:.3}])",
                            bc.0, bc.1, fc.0, fc.1
                        ));
                    }
                }
                // Fallback band for rows without CIs.
                _ => {
                    if (f - b).abs() > EXPONENT_ABS_TOLERANCE {
                        report.regressions.push(format!(
                            "fit {key}: exponent drifted {b:.3} → {f:.3} \
                             (tolerance ±{:.2}, no CI)",
                            EXPONENT_ABS_TOLERANCE
                        ));
                    }
                }
            },
            (None, None) => {}
            (b, f) => report.regressions.push(format!(
                "fit {key}: exponent not comparable (baseline {b:?}, fresh {f:?})"
            )),
        }
    }
    // The symmetric half: fit rows only the fresh run has are ungated
    // exponent coverage — surface them like new cases.
    let baseline_fit_keys: std::collections::HashSet<String> = baseline
        .get("fits")
        .and_then(Json::as_arr)
        .map(|rows| rows.iter().filter_map(&fit_key).collect())
        .unwrap_or_default();
    for key in fresh_fits.keys() {
        if !baseline_fit_keys.contains(key) {
            report.notes.push(format!(
                "fit {key}: new (not in baseline — refresh to gate it)"
            ));
        }
    }
    report
}

/// Writes `result`'s baseline document under `dir`. Returns the path.
pub fn write_baseline(dir: &Path, result: &ExperimentResult) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = baseline_path(dir, result.spec.name);
    std::fs::write(&path, baseline_doc(result).to_string_pretty())?;
    Ok(path)
}

/// Diffs `result` against the baseline checked in under `dir`.
pub fn check_against(dir: &Path, result: &ExperimentResult) -> Result<DiffReport, String> {
    let path = baseline_path(dir, result.spec.name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline =
        Json::parse(&text).map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))?;
    Ok(diff(&baseline, &baseline_doc(result)))
}

/// What the gate found for one experiment: its diff report, or the error
/// that kept the comparison from happening (missing/corrupt baseline —
/// also a gate failure).
pub struct GateOutcome {
    /// The experiment name.
    pub experiment: &'static str,
    /// The comparison result.
    pub report: Result<DiffReport, String>,
    /// Cell-cache accounting of this experiment's fresh run — `Some` iff
    /// the gate ran with a cache configured.
    pub cache: Option<CacheStats>,
}

impl GateOutcome {
    /// Whether this experiment's gate passed.
    pub fn passed(&self) -> bool {
        matches!(&self.report, Ok(r) if r.passed())
    }
}

/// The machine-readable per-experiment gate report
/// (`BENCH_gate_report.json`) — what CI uploads as an artifact when the
/// gate fails.
pub fn gate_report_doc(dir: &Path, outcomes: &[GateOutcome]) -> Json {
    let rows = outcomes
        .iter()
        .map(|o| {
            let mut row = Json::obj()
                .field("experiment", o.experiment)
                .field("passed", o.passed());
            match &o.report {
                Ok(r) => {
                    row = row
                        .field(
                            "regressions",
                            Json::Arr(r.regressions.iter().map(|s| s.as_str().into()).collect()),
                        )
                        .field(
                            "notes",
                            Json::Arr(r.notes.iter().map(|s| s.as_str().into()).collect()),
                        );
                }
                Err(e) => {
                    row = row.field("error", e.as_str());
                }
            }
            if let Some(cache) = o.cache {
                row = row.field("cache", cache.to_json());
            }
            row
        })
        .collect();
    let mut doc = Json::obj()
        .field("schema_version", crate::experiments::SCHEMA_VERSION)
        .field("baseline_dir", dir.display().to_string())
        .field("passed", outcomes.iter().all(GateOutcome::passed));
    if let Some(total) = total_cache(outcomes) {
        doc = doc.field("cache", total.to_json());
    }
    doc.field("experiments", Json::Arr(rows))
}

/// The aggregate cache tally over `outcomes` — `Some` iff any experiment
/// ran with a cache configured.
fn total_cache(outcomes: &[GateOutcome]) -> Option<CacheStats> {
    let mut total = CacheStats::default();
    let mut any = false;
    for o in outcomes {
        if let Some(stats) = o.cache {
            total.add(stats);
            any = true;
        }
    }
    any.then_some(total)
}

/// The human-readable gate summary (`BENCH_gate_summary.md`) — the
/// markdown CI appends to `$GITHUB_STEP_SUMMARY` so a bench-gate verdict
/// is readable without downloading the JSON artifact: one verdict row per
/// experiment with its cache counts, then the worst diffs of every
/// failing experiment.
pub fn gate_summary_markdown(dir: &Path, outcomes: &[GateOutcome]) -> String {
    let passed = outcomes.iter().all(GateOutcome::passed);
    let mut out = format!(
        "## Bench gate: {}\n\nBaselines: `{}`\n\n",
        if passed { "✅ pass" } else { "❌ fail" },
        dir.display()
    );
    out.push_str("| experiment | verdict | regressions | notes | cache hit/miss/invalidated |\n");
    out.push_str("|---|---|---:|---:|---|\n");
    for o in outcomes {
        let (verdict, regressions, notes) = match &o.report {
            Ok(r) if r.passed() => ("✅ pass".to_string(), r.regressions.len(), r.notes.len()),
            Ok(r) => ("❌ fail".to_string(), r.regressions.len(), r.notes.len()),
            Err(_) => ("❌ error".to_string(), 0, 0),
        };
        let cache = o.cache.map_or("—".to_string(), |c| {
            format!("{}/{}/{}", c.hits, c.misses, c.invalidated)
        });
        out.push_str(&format!(
            "| {} | {verdict} | {regressions} | {notes} | {cache} |\n",
            o.experiment
        ));
    }
    if let Some(total) = total_cache(outcomes) {
        out.push_str(&format!(
            "\nCache totals: **{} hits**, **{} misses**, **{} invalidated** \
             ({} cells executed).\n",
            total.hits,
            total.misses,
            total.invalidated,
            total.executed()
        ));
    }
    // The worst diffs: the first few regressions (or the error) of each
    // failing experiment, so the common failures read without artifacts.
    const WORST_PER_EXPERIMENT: usize = 5;
    for o in outcomes.iter().filter(|o| !o.passed()) {
        out.push_str(&format!("\n### {} — worst diffs\n\n", o.experiment));
        match &o.report {
            Ok(r) => {
                for regression in r.regressions.iter().take(WORST_PER_EXPERIMENT) {
                    out.push_str(&format!("- {regression}\n"));
                }
                if r.regressions.len() > WORST_PER_EXPERIMENT {
                    out.push_str(&format!(
                        "- … and {} more (see `BENCH_gate_report.json`)\n",
                        r.regressions.len() - WORST_PER_EXPERIMENT
                    ));
                }
            }
            Err(e) => out.push_str(&format!("- gate error: {e}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find_experiment, run_experiment};
    use crate::measure::{RunConfig, UNLIMITED_BUDGET_MS};

    fn gate_config() -> RunConfig {
        RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(UNLIMITED_BUDGET_MS),
            family: Some("cycle".into()),
            model: Some("local".into()),
            ..RunConfig::default()
        }
    }

    /// The shared gate-config matrix run: deterministic by design, so
    /// the six tests here share one sweep instead of re-simulating it.
    fn matrix_result() -> &'static ExperimentResult {
        static RESULT: std::sync::OnceLock<ExperimentResult> = std::sync::OnceLock::new();
        RESULT.get_or_init(|| {
            run_experiment(find_experiment("scenario_matrix").unwrap(), &gate_config())
        })
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let result = matrix_result();
        let doc = baseline_doc(result);
        // Byte-stable: document ↔ parse round trip.
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
        let report = diff(&doc, &baseline_doc(result));
        assert!(report.passed(), "regressions: {:?}", report.regressions);
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
    }

    #[test]
    fn planted_energy_regression_fails_the_gate() {
        let result = matrix_result();
        let baseline = baseline_doc(result);
        // Plant: halve the baseline's recorded energy means (as if the
        // fresh run's energy doubled).
        let planted = plant(&baseline, |row| {
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "energy_mean" {
                        if let Some(x) = v.as_f64() {
                            *v = Json::Num(x / 2.0);
                        }
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(result));
        assert!(!report.passed());
        assert!(
            report.regressions.iter().any(|r| r.contains("energy_mean")),
            "{:?}",
            report.regressions
        );
    }

    /// Shifts a fit row's exponent *and* its CI by `delta` — a genuine
    /// asymptotic drift, as opposed to seed noise around a stable CI.
    fn shift_exponent(row: &mut Json, delta: f64) {
        if let Json::Obj(pairs) = row {
            for (k, v) in pairs.iter_mut() {
                if k == "exponent" {
                    if let Some(x) = v.as_f64() {
                        *v = Json::Num(x + delta);
                    }
                } else if k == "exponent_ci" {
                    if let Json::Arr(bounds) = v {
                        for b in bounds.iter_mut() {
                            if let Some(x) = b.as_f64() {
                                *b = Json::Num(x + delta);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planted_exponent_regression_fails_the_gate() {
        let result = matrix_result();
        let baseline = baseline_doc(result);
        let planted = plant_fits(&baseline, |row| shift_exponent(row, 1.0));
        let report = diff(&planted, &baseline_doc(result));
        assert!(!report.passed());
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("exponent") && r.contains("exclude each other")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn exponent_drift_inside_overlapping_cis_passes() {
        // The CI-overlap semantics: a point-estimate wobble whose CI still
        // overlaps the baseline's is seed noise, not a regression — even
        // past the old ±0.25 band. Only the point estimate moves here; the
        // planted CI is widened to keep the intervals overlapping.
        let result = matrix_result();
        let baseline = baseline_doc(result);
        let planted = plant_fits(&baseline, |row| {
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "exponent" {
                        if let Some(x) = v.as_f64() {
                            *v = Json::Num(x + 0.4);
                        }
                    } else if k == "exponent_ci" {
                        if let Json::Arr(bounds) = v {
                            if let Some(x) = bounds[1].as_f64() {
                                bounds[1] = Json::Num(x + 0.5);
                            }
                        }
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(result));
        let exponent_regressions: Vec<&String> = report
            .regressions
            .iter()
            .filter(|r| r.contains("exponent"))
            .collect();
        assert!(
            exponent_regressions.is_empty(),
            "overlapping CIs must not gate: {exponent_regressions:?}"
        );
    }

    #[test]
    fn class_flip_with_overlapping_cis_is_a_note_not_a_regression() {
        let result = matrix_result();
        let baseline = baseline_doc(result);
        // Flip every class label while leaving exponents and CIs alone:
        // the CIs trivially overlap (they are identical), so the flip is
        // seed noise by the gate's definition.
        let planted = plant_fits(&baseline, |row| {
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "class" {
                        *v = Json::Str("polylog-flipped".into());
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(result));
        assert!(
            !report
                .regressions
                .iter()
                .any(|r| r.contains("growth class")),
            "{:?}",
            report.regressions
        );
        assert!(
            report.notes.iter().any(|n| n.contains("growth class")),
            "{:?}",
            report.notes
        );
        // But a flip whose CIs exclude each other gates outright.
        let planted = plant_fits(&baseline, |row| {
            shift_exponent(row, 1.0);
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "class" {
                        *v = Json::Str("polynomial-flipped".into());
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(result));
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("growth class") && r.contains("exclude each other")),
            "{:?}",
            report.regressions
        );
        // And the same disjoint-CI flip with a non-seed-stable
        // classification on the baseline side downgrades to a note: the
        // class label was never trustworthy enough to gate on.
        let planted = plant_fits(&baseline, |row| {
            shift_exponent(row, 1.0);
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "class" {
                        *v = Json::Str("polynomial-flipped".into());
                    } else if k == "class_confident" {
                        *v = Json::Bool(false);
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(result));
        assert!(
            !report
                .regressions
                .iter()
                .any(|r| r.contains("growth class")),
            "{:?}",
            report.regressions
        );
        assert!(
            report.notes.iter().any(|n| n.contains("not seed-stable")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn missing_and_new_cases_are_detected() {
        let result = matrix_result();
        let baseline = baseline_doc(result);
        // Drop one fresh case → "missing fresh" regression; drop one
        // baseline case → "new" note.
        let drop_first = |doc: &Json| -> Json {
            let mut doc = doc.clone();
            if let Json::Obj(pairs) = &mut doc {
                for (k, v) in pairs.iter_mut() {
                    if k == "cases" {
                        if let Json::Arr(rows) = v {
                            rows.remove(0);
                        }
                    }
                }
            }
            doc
        };
        let report = diff(&baseline, &drop_first(&baseline));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("missing fresh")));
        let report = diff(&drop_first(&baseline), &baseline);
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(report.notes.iter().any(|n| n.contains("new")));
    }

    #[test]
    fn new_algorithms_in_the_fresh_run_are_notes_not_regressions() {
        // A baseline of one algorithm's slice, against a fresh run of the
        // same slice for every algorithm: the other algorithms' cases and
        // fits are new coverage, so the gate notes them and passes.
        let mut flood_only = gate_config();
        flood_only.algo = Some("naive_flood".into());
        let baseline = baseline_doc(&run_experiment(
            find_experiment("scenario_matrix").unwrap(),
            &flood_only,
        ));
        let report = diff(&baseline, &baseline_doc(matrix_result()));
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(
            report.notes.iter().any(|n| n.contains("new")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn config_mismatch_is_a_regression() {
        let result = matrix_result();
        let baseline = baseline_doc(result);
        let mut other = gate_config();
        other.seeds = Some(2);
        let fresh = baseline_doc(&run_experiment(
            find_experiment("scenario_matrix").unwrap(),
            &other,
        ));
        let report = diff(&baseline, &fresh);
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("config mismatch")));
    }

    #[test]
    fn write_and_check_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("ebc_bench_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let result = matrix_result();
        let path = write_baseline(&dir, result).unwrap();
        assert!(path.ends_with("scenario_matrix.json"));
        let report = check_against(&dir, result).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        std::fs::remove_file(&path).ok();
        assert!(check_against(&dir, result).is_err());
    }

    /// Runs one non-matrix experiment under the shared gate config shape.
    fn experiment_result(name: &str) -> ExperimentResult {
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(UNLIMITED_BUDGET_MS),
            ..RunConfig::default()
        };
        run_experiment(find_experiment(name).unwrap(), &config)
    }

    #[test]
    fn fig1_path_gates_within_2n_and_planted_regression_fails() {
        let result = experiment_result("fig1_path");
        let baseline = baseline_doc(&result);
        // Identical rerun passes.
        let report = diff(&baseline, &baseline_doc(&result));
        assert!(report.passed(), "{:?}", report.regressions);
        // Planted: halve each case's recorded within_2n mean (Theorem 21's
        // 2n deadline) → the gate fails (the CLI maps this to a nonzero
        // exit).
        let planted = plant(&baseline, |row| {
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "within_2n" {
                        if let Some(x) = v.as_f64() {
                            *v = Json::Num(x / 2.0);
                        }
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(&result));
        assert!(!report.passed());
        assert!(
            report.regressions.iter().any(|r| r.contains("within_2n")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn table1_lower_gates_slot_counts_and_planted_regression_fails() {
        let result = experiment_result("table1_lower");
        let baseline = baseline_doc(&result);
        let report = diff(&baseline, &baseline_doc(&result));
        assert!(report.passed(), "{:?}", report.regressions);
        // Planted: halve the recorded per-case le_slots means (as if the
        // fresh elections took twice the slots).
        let planted = plant(&baseline, |row| {
            if let Json::Obj(pairs) = row {
                for (k, v) in pairs.iter_mut() {
                    if k == "le_slots" {
                        if let Some(x) = v.as_f64() {
                            *v = Json::Num(x / 2.0);
                        }
                    }
                }
            }
        });
        let report = diff(&planted, &baseline_doc(&result));
        assert!(!report.passed());
        assert!(
            report.regressions.iter().any(|r| r.contains("le_slots")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn fresh_only_metrics_on_existing_cases_are_noted() {
        let result = matrix_result();
        let baseline = baseline_doc(result);
        // Drop one metric from every baseline case row: the fresh run
        // "adds" it back, which must surface as ungated coverage.
        let planted = plant(&baseline, |row| {
            if let Json::Obj(pairs) = row {
                pairs.retain(|(k, _)| k != "energy_p95");
            }
        });
        let report = diff(&planted, &baseline_doc(result));
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("metric energy_p95 is new")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn gate_report_doc_records_per_experiment_outcomes() {
        let dir = std::path::Path::new("bench-baselines");
        let outcomes = vec![
            GateOutcome {
                experiment: "scenario_matrix",
                report: Ok(DiffReport::default()),
                cache: Some(CacheStats {
                    hits: 40,
                    misses: 2,
                    invalidated: 1,
                }),
            },
            GateOutcome {
                experiment: "fig1_path",
                report: Ok(DiffReport {
                    regressions: vec!["case graph=path/n=256: within_2n drifted".into()],
                    notes: vec![],
                }),
                cache: Some(CacheStats {
                    hits: 2,
                    misses: 0,
                    invalidated: 0,
                }),
            },
            GateOutcome {
                experiment: "table1_lower",
                report: Err("cannot read baseline".into()),
                cache: None,
            },
        ];
        let doc = gate_report_doc(dir, &outcomes);
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        let rows = doc.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("passed"), Some(&Json::Bool(true)));
        assert_eq!(rows[1].get("passed"), Some(&Json::Bool(false)));
        assert!(rows[2].get("error").is_some());
        // Per-experiment and aggregate cache accounting land in the doc.
        let cache = rows[0].get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(40.0));
        let total = doc.get("cache").unwrap();
        assert_eq!(total.get("hits").and_then(Json::as_f64), Some(42.0));
        assert_eq!(total.get("misses").and_then(Json::as_f64), Some(2.0));
        assert_eq!(total.get("invalidated").and_then(Json::as_f64), Some(1.0));
        // Round-trips through the parser (it is written to disk by the
        // CLI and uploaded by CI).
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn gate_summary_markdown_renders_verdicts_cache_and_worst_diffs() {
        let dir = std::path::Path::new("bench-baselines");
        let outcomes = vec![
            GateOutcome {
                experiment: "scenario_matrix",
                report: Ok(DiffReport::default()),
                cache: Some(CacheStats {
                    hits: 40,
                    misses: 0,
                    invalidated: 0,
                }),
            },
            GateOutcome {
                experiment: "fig1_path",
                report: Ok(DiffReport {
                    regressions: (0..7).map(|i| format!("case c{i}: drifted")).collect(),
                    notes: vec!["note".into()],
                }),
                cache: Some(CacheStats {
                    hits: 1,
                    misses: 3,
                    invalidated: 0,
                }),
            },
            GateOutcome {
                experiment: "table1_lower",
                report: Err("cannot read baseline".into()),
                cache: None,
            },
        ];
        let md = gate_summary_markdown(dir, &outcomes);
        assert!(md.contains("## Bench gate: ❌ fail"), "{md}");
        assert!(
            md.contains("| scenario_matrix | ✅ pass | 0 | 0 | 40/0/0 |"),
            "{md}"
        );
        assert!(
            md.contains("| fig1_path | ❌ fail | 7 | 1 | 1/3/0 |"),
            "{md}"
        );
        assert!(
            md.contains("| table1_lower | ❌ error | 0 | 0 | — |"),
            "{md}"
        );
        assert!(md.contains("**41 hits**"), "{md}");
        // Worst diffs truncate at five with a pointer to the artifact.
        assert!(md.contains("case c4: drifted"), "{md}");
        assert!(!md.contains("case c5: drifted"), "{md}");
        assert!(md.contains("and 2 more"), "{md}");
        assert!(md.contains("gate error: cannot read baseline"), "{md}");
        // An all-pass gate renders the pass header and no diff sections.
        let md = gate_summary_markdown(
            dir,
            &[GateOutcome {
                experiment: "scenario_matrix",
                report: Ok(DiffReport::default()),
                cache: None,
            }],
        );
        assert!(md.contains("## Bench gate: ✅ pass"), "{md}");
        assert!(!md.contains("worst diffs"), "{md}");
    }

    #[test]
    fn checked_in_baselines_are_exactly_the_registered_experiments() {
        // The gate reads only registered experiments' files and
        // `--update-baselines` deletes none, so an orphan is never gated.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-baselines");
        let mut stems: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort_unstable();
        let mut names: Vec<&str> = crate::experiments::EXPERIMENTS
            .iter()
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        assert_eq!(stems, names, "bench-baselines/ vs the registry");
    }

    fn plant(doc: &Json, mutate: impl Fn(&mut Json)) -> Json {
        plant_section(doc, "cases", mutate)
    }

    fn plant_fits(doc: &Json, mutate: impl Fn(&mut Json)) -> Json {
        plant_section(doc, "fits", mutate)
    }

    fn plant_section(doc: &Json, section: &str, mutate: impl Fn(&mut Json)) -> Json {
        let mut doc = doc.clone();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == section {
                    if let Json::Arr(rows) = v {
                        for row in rows.iter_mut() {
                            mutate(row);
                        }
                    }
                }
            }
        }
        doc
    }
}
