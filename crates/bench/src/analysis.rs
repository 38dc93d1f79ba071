//! Scaling-law analysis over the scenario matrix's n axis.
//!
//! The paper's headline claims are asymptotic — Θ(log n·log log n /
//! log log log n) energy for randomized CD broadcast, the polylog
//! deterministic bounds of Theorems 25/27, the Θ(D) baseline gap — so raw
//! per-n numbers demonstrate nothing by themselves. This module fits
//! growth curves across the n axis of every `(algorithm, family, model)`
//! cell:
//!
//! * a **power-law** fit `y = C·nᵇ` (least squares on `ln y` vs `ln n`;
//!   the slope `b` is the scaling exponent),
//! * a **polylog** fit `y = C·(ln n)ᵏ` (least squares on `ln y` vs
//!   `ln ln n`),
//!
//! each with its R², plus a classification: whichever model explains the
//! series better names the growth class (`flat` / `polylog` /
//! `polynomial`). Fitted exponents are what the CI baseline gate diffs —
//! a reproduction whose theorem-25 energy exponent drifts from polylog
//! toward polynomial has regressed *asymptotically* even if every
//! absolute number still looks plausible.

use crate::json::Json;
use crate::measure::Case;
use crate::stats;

/// Metrics fitted across the n axis, in presentation order.
pub const FIT_METRICS: [&str; 3] = ["energy_max", "energy_mean", "time"];

/// Minimum finite points for a fit to be attempted at all.
pub const MIN_FIT_POINTS: usize = 3;

/// One fitted line `y ≈ intercept + slope·x` in a transformed space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitLine {
    /// The least-squares slope (the scaling exponent).
    pub slope: f64,
    /// The least-squares intercept (`ln C`).
    pub intercept: f64,
    /// Coefficient of determination in the transformed space; a constant
    /// series fits perfectly (R² = 1) with slope 0.
    pub r2: f64,
}

/// Ordinary least squares of `ys` on `xs`. `None` if fewer than two
/// points, any non-finite coordinate, or a degenerate (constant-x) design.
pub fn least_squares(xs: &[f64], ys: &[f64]) -> Option<FitLine> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r2 = if ss_tot <= 0.0 {
        1.0 // constant y: the horizontal line explains it exactly
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(FitLine {
        slope,
        intercept,
        r2,
    })
}

/// Keeps only points a log-log fit can use: finite coordinates with
/// `x > min_x` and `y > 0`.
fn usable(points: &[(f64, f64)], min_x: f64) -> Vec<(f64, f64)> {
    points
        .iter()
        .copied()
        .filter(|&(x, y)| x.is_finite() && y.is_finite() && x > min_x && y > 0.0)
        .collect()
}

/// Fits `y = C·nᵇ` over `(n, y)` points: least squares of `ln y` on
/// `ln n`. Points with `y ≤ 0` or NaN anywhere are dropped (their log is
/// undefined); `None` if fewer than two usable points remain.
pub fn fit_power_law(points: &[(f64, f64)]) -> Option<FitLine> {
    let pts = usable(points, 0.0);
    let xs: Vec<f64> = pts.iter().map(|(x, _)| x.ln()).collect();
    let ys: Vec<f64> = pts.iter().map(|(_, y)| y.ln()).collect();
    least_squares(&xs, &ys)
}

/// Fits `y = C·(ln n)ᵏ`: least squares of `ln y` on `ln ln n`. Points
/// with `n ≤ 1` additionally drop (their `ln ln` is undefined).
pub fn fit_polylog(points: &[(f64, f64)]) -> Option<FitLine> {
    let pts = usable(points, 1.0);
    let xs: Vec<f64> = pts.iter().map(|(x, _)| x.ln().ln()).collect();
    let ys: Vec<f64> = pts.iter().map(|(_, y)| y.ln()).collect();
    least_squares(&xs, &ys)
}

/// The growth class a fitted series falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthClass {
    /// Too few usable points to call ([`MIN_FIT_POINTS`]).
    Insufficient,
    /// Essentially size-independent (|power-law exponent| < 0.15).
    Flat,
    /// The polylog model explains the series at least as well as the
    /// power law — the shape every paper upper bound predicts for energy.
    Polylog,
    /// The power law wins — expected for times (and for the Θ(D)-energy
    /// baselines the paper improves on).
    Polynomial,
}

impl GrowthClass {
    /// The stable JSON name.
    pub fn as_str(self) -> &'static str {
        match self {
            GrowthClass::Insufficient => "insufficient-points",
            GrowthClass::Flat => "flat",
            GrowthClass::Polylog => "polylog",
            GrowthClass::Polynomial => "polynomial",
        }
    }
}

/// Classifies a series from its two fits and usable point count.
pub fn classify(power: Option<&FitLine>, polylog: Option<&FitLine>, points: usize) -> GrowthClass {
    if points < MIN_FIT_POINTS {
        return GrowthClass::Insufficient;
    }
    let Some(pow) = power else {
        return GrowthClass::Insufficient;
    };
    if pow.slope.abs() < 0.15 {
        return GrowthClass::Flat;
    }
    match polylog {
        // The log-log space is exact for power laws and concave for
        // polylogs, so comparing R² separates the two shapes.
        Some(pl) if pl.r2 >= pow.r2 - 1e-9 => GrowthClass::Polylog,
        _ => GrowthClass::Polynomial,
    }
}

/// One metric's fits within a cell.
#[derive(Debug, Clone)]
pub struct MetricFit {
    /// Metric name (`energy_max`, `energy_mean`, `time`).
    pub metric: &'static str,
    /// Usable `(n, mean)` points after dropping non-positive/NaN values.
    pub points: usize,
    /// The power-law fit, if computable.
    pub power: Option<FitLine>,
    /// The polylog fit, if computable.
    pub polylog: Option<FitLine>,
    /// The growth class.
    pub class: GrowthClass,
    /// Seed-level bootstrap percentile CI on the power-law exponent
    /// ([`stats::CI_LEVEL`] two-sided, over [`stats::DEFAULT_RESAMPLES`]
    /// resamples; `None` when the point fit itself is unavailable).
    pub exponent_ci: Option<(f64, f64)>,
    /// Fraction of bootstrap refits whose growth class matched [`class`]
    /// (`None` when no resample refit successfully).
    ///
    /// [`class`]: MetricFit::class
    pub class_agreement: Option<f64>,
    /// Whether the classification is stable under seed resampling: enough
    /// usable points *and* class agreement of at least
    /// [`stats::CLASS_CONFIDENCE_THRESHOLD`]. The baseline gate treats a
    /// class flip between two confident fits with disjoint exponent CIs
    /// as a regression; anything softer is only a note.
    pub class_confident: bool,
}

/// Seed-level bootstrap of one metric series: refits the power-law
/// exponent and growth class on each resample of the per-point seed
/// values. Returns the exponent CI and the class-agreement fraction
/// (both `None` when no resample produced a fit).
fn bootstrap_fit(
    ns: &[f64],
    groups: &[&[f64]],
    point_class: GrowthClass,
    seed: u64,
    resamples: usize,
) -> (Option<(f64, f64)>, Option<f64>) {
    let refits = stats::bootstrap_refit(groups, resamples, seed, |means| {
        let series: Vec<(f64, f64)> = ns.iter().copied().zip(means.iter().copied()).collect();
        let points = usable(&series, 1.0).len();
        let power = fit_power_law(&series)?;
        let polylog = fit_polylog(&series);
        let class = classify(Some(&power), polylog.as_ref(), points);
        Some((power.slope, class))
    });
    // A mostly-degenerate bootstrap (most resamples unfittable, e.g. a
    // seed whose metric is ~0 dragging resampled means non-positive) says
    // nothing trustworthy: a CI over the few survivors would be
    // artificially narrow and the agreement denominator tiny. Report no
    // CI instead — the gate then falls back to the tolerance band and the
    // fit is never class-confident.
    if refits.len() * 2 < resamples {
        return (None, None);
    }
    let mut slopes: Vec<f64> = refits.iter().map(|(s, _)| *s).collect();
    let ci = stats::percentile_ci(&mut slopes);
    let agreement =
        refits.iter().filter(|(_, c)| *c == point_class).count() as f64 / refits.len() as f64;
    (ci, Some(agreement))
}

/// Scaling fits of one `(algorithm, family, model)` cell across its n axis.
#[derive(Debug, Clone)]
pub struct CellFit {
    /// Algorithm registry name.
    pub algorithm: String,
    /// Graph family display name.
    pub family: String,
    /// Collision model JSON key.
    pub model: String,
    /// The n values the cell ran at, ascending.
    pub sizes: Vec<f64>,
    /// Whether the cell's n-sweep was cut short by the wall-clock budget
    /// (fewer sizes than the matrix planned).
    pub truncated: bool,
    /// Per-metric fits, in [`FIT_METRICS`] order.
    pub metrics: Vec<MetricFit>,
}

fn param_str(case: &Case, key: &str) -> Option<String> {
    case.params
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        })
}

fn param_f64(case: &Case, key: &str) -> Option<f64> {
    case.params
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_f64())
}

fn param_bool(case: &Case, key: &str) -> bool {
    matches!(
        case.params.iter().find(|(k, _)| *k == key),
        Some((_, Json::Bool(true)))
    )
}

/// Groups scenario-matrix cases into `(algorithm, family, model)` cells
/// and fits every [`FIT_METRICS`] series across each cell's n axis,
/// bootstrapping a CI on every fitted exponent (`resamples` draws) from
/// the per-seed measurements ([`stats`]).
///
/// Cases missing any of the three identity params are skipped, and so
/// are fault-injected cases (a `fault` param other than `"none"`): the
/// scaling fits describe the paper's clean-channel bounds, and a faulted
/// rerun of the same `(algorithm, family, model, n)` point would
/// otherwise corrupt the clean series. Cells keep first-appearance
/// order, sizes sort ascending within a cell. A cell is `truncated` if
/// any of its cases carries the `truncated: true` param.
pub fn scaling_fits(cases: &[Case], resamples: usize) -> Vec<CellFit> {
    struct Row {
        n: f64,
        // Per-metric mean and per-metric per-seed values.
        means: Vec<f64>,
        values: Vec<Vec<f64>>,
    }
    struct CellAcc {
        algorithm: String,
        family: String,
        model: String,
        truncated: bool,
        // One row per n, later sorted by n.
        rows: Vec<Row>,
    }
    let mut cells: Vec<CellAcc> = Vec::new();
    for case in cases {
        let (Some(algorithm), Some(family), Some(model), Some(n)) = (
            param_str(case, "algorithm"),
            param_str(case, "family"),
            param_str(case, "model"),
            param_f64(case, "n"),
        ) else {
            continue;
        };
        if param_str(case, "fault").is_some_and(|f| f != "none") {
            continue;
        }
        let means: Vec<f64> = FIT_METRICS
            .iter()
            .map(|m| case.summary.metric(m).map_or(f64::NAN, |s| s.mean))
            .collect();
        let values: Vec<Vec<f64>> = FIT_METRICS.iter().map(|m| case.metric_values(m)).collect();
        let truncated = param_bool(case, "truncated");
        let row = Row { n, means, values };
        match cells
            .iter_mut()
            .find(|c| c.algorithm == algorithm && c.family == family && c.model == model)
        {
            Some(cell) => {
                cell.rows.push(row);
                cell.truncated |= truncated;
            }
            None => cells.push(CellAcc {
                algorithm,
                family,
                model,
                truncated,
                rows: vec![row],
            }),
        }
    }
    cells
        .into_iter()
        .map(|mut cell| {
            cell.rows
                .sort_by(|a, b| a.n.partial_cmp(&b.n).expect("finite n"));
            let ns: Vec<f64> = cell.rows.iter().map(|r| r.n).collect();
            let metrics = FIT_METRICS
                .iter()
                .enumerate()
                .map(|(mi, &metric)| {
                    let series: Vec<(f64, f64)> =
                        cell.rows.iter().map(|r| (r.n, r.means[mi])).collect();
                    let points = usable(&series, 1.0).len();
                    let power = fit_power_law(&series);
                    let polylog = fit_polylog(&series);
                    let class = classify(power.as_ref(), polylog.as_ref(), points);
                    // Bootstrap only where a point fit exists; the stream
                    // is seeded from the cell identity so CI runs
                    // reproduce bit-for-bit.
                    let (exponent_ci, class_agreement) = if power.is_some() {
                        let groups: Vec<&[f64]> =
                            cell.rows.iter().map(|r| r.values[mi].as_slice()).collect();
                        let seed = stats::seed_from_parts(&[
                            &cell.algorithm,
                            &cell.family,
                            &cell.model,
                            metric,
                        ]);
                        bootstrap_fit(&ns, &groups, class, seed, resamples)
                    } else {
                        (None, None)
                    };
                    let class_confident = points >= MIN_FIT_POINTS
                        && class_agreement.is_some_and(|a| a >= stats::CLASS_CONFIDENCE_THRESHOLD);
                    MetricFit {
                        metric,
                        points,
                        power,
                        polylog,
                        class,
                        exponent_ci,
                        class_agreement,
                        class_confident,
                    }
                })
                .collect();
            CellFit {
                algorithm: cell.algorithm,
                family: cell.family,
                model: cell.model,
                sizes: ns,
                truncated: cell.truncated,
                metrics,
            }
        })
        .collect()
}

/// Serializes a CI as a two-element `[lo, hi]` array (or `null`).
pub fn ci_json(ci: Option<(f64, f64)>) -> Json {
    match ci {
        Some((lo, hi)) => Json::Arr(vec![Json::Num(lo), Json::Num(hi)]),
        None => Json::Null,
    }
}

/// Parses a `[lo, hi]` CI array back (inverse of [`ci_json`]).
pub fn ci_from_json(v: Option<&Json>) -> Option<(f64, f64)> {
    match v?.as_arr()? {
        [lo, hi] => Some((lo.as_f64()?, hi.as_f64()?)),
        _ => None,
    }
}

fn fit_json(fit: Option<&FitLine>, prefix: &str) -> Vec<(String, Json)> {
    match fit {
        Some(f) => vec![
            (format!("{prefix}exponent"), Json::Num(f.slope)),
            (format!("{prefix}r2"), Json::Num(f.r2)),
        ],
        None => vec![
            (format!("{prefix}exponent"), Json::Null),
            (format!("{prefix}r2"), Json::Null),
        ],
    }
}

impl CellFit {
    /// Serializes the cell fit (stable field order; the baseline gate
    /// parses this back).
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut obj = Json::obj()
                .field("points", m.points)
                .field("class", m.class.as_str());
            for (k, v) in fit_json(m.power.as_ref(), "") {
                obj = obj.field(&k, v);
            }
            obj = obj
                .field("exponent_ci", ci_json(m.exponent_ci))
                .field(
                    "class_agreement",
                    m.class_agreement.map_or(Json::Null, Json::Num),
                )
                .field("class_confident", m.class_confident);
            for (k, v) in fit_json(m.polylog.as_ref(), "polylog_") {
                obj = obj.field(&k, v);
            }
            metrics = metrics.field(m.metric, obj);
        }
        Json::obj()
            .field("algorithm", self.algorithm.as_str())
            .field("family", self.family.as_str())
            .field("model", self.model.as_str())
            .field(
                "sizes",
                Json::Arr(self.sizes.iter().map(|&n| Json::Num(n)).collect()),
            )
            .field("truncated", self.truncated)
            .field("metrics", metrics)
    }
}

/// Serializes a batch of cell fits as the `fits` array.
pub fn fits_to_json(fits: &[CellFit]) -> Json {
    Json::Arr(fits.iter().map(CellFit::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measurement;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn power_law_recovers_exactly() {
        // y = 3·n^1.5 — the log-log fit must be exact.
        let pts: Vec<(f64, f64)> = [16.0f64, 32.0, 64.0, 128.0, 256.0]
            .iter()
            .map(|&n| (n, 3.0 * n.powf(1.5)))
            .collect();
        let fit = fit_power_law(&pts).unwrap();
        close(fit.slope, 1.5);
        close(fit.intercept, 3.0f64.ln());
        close(fit.r2, 1.0);
        let class = classify(Some(&fit), fit_polylog(&pts).as_ref(), pts.len());
        assert_eq!(class, GrowthClass::Polynomial);
    }

    #[test]
    fn polylog_recovers_exactly_and_classifies_polylog() {
        // y = (ln n)^2.
        let pts: Vec<(f64, f64)> = [16.0f64, 32.0, 64.0, 128.0, 256.0]
            .iter()
            .map(|&n| (n, n.ln().powi(2)))
            .collect();
        let pl = fit_polylog(&pts).unwrap();
        close(pl.slope, 2.0);
        close(pl.r2, 1.0);
        let pow = fit_power_law(&pts).unwrap();
        assert!(pow.r2 < 1.0, "log-log of a polylog is concave");
        assert_eq!(
            classify(Some(&pow), Some(&pl), pts.len()),
            GrowthClass::Polylog
        );
    }

    #[test]
    fn constant_series_is_flat() {
        let pts: Vec<(f64, f64)> = vec![(16.0, 5.0), (32.0, 5.0), (64.0, 5.0)];
        let pow = fit_power_law(&pts).unwrap();
        close(pow.slope, 0.0);
        close(pow.r2, 1.0);
        assert_eq!(
            classify(Some(&pow), fit_polylog(&pts).as_ref(), 3),
            GrowthClass::Flat
        );
    }

    #[test]
    fn nan_and_zero_points_are_dropped_not_poisonous() {
        let pts = vec![
            (16.0, 2.0),
            (32.0, f64::NAN),
            (64.0, 0.0),
            (128.0, 16.0),
            (256.0, 32.0),
        ];
        // Three usable points survive; the fit uses exactly those.
        let clean = vec![(16.0, 2.0), (128.0, 16.0), (256.0, 32.0)];
        assert_eq!(fit_power_law(&pts), fit_power_law(&clean));
        assert_eq!(usable(&pts, 1.0).len(), 3);
        // All-unusable series fit nothing and classify insufficient.
        let dead = vec![(16.0, 0.0), (32.0, f64::NAN)];
        assert!(fit_power_law(&dead).is_none());
        assert_eq!(classify(None, None, 0), GrowthClass::Insufficient);
    }

    #[test]
    fn too_few_points_are_insufficient() {
        let pts = vec![(16.0, 2.0), (32.0, 4.0)];
        let pow = fit_power_law(&pts);
        assert!(pow.is_some(), "two points still define a line");
        assert_eq!(
            classify(pow.as_ref(), fit_polylog(&pts).as_ref(), 2),
            GrowthClass::Insufficient
        );
    }

    fn case(algorithm: &str, family: &str, model: &str, n: usize, energy: f64) -> Case {
        Case::new(
            vec![
                ("family", family.into()),
                ("n", n.into()),
                ("model", model.into()),
                ("algorithm", algorithm.into()),
            ],
            vec![Measurement {
                seed: 1000,
                metrics: vec![
                    ("energy_max", energy),
                    ("energy_mean", energy / 2.0),
                    ("time", n as f64 * 10.0),
                ],
            }],
        )
    }

    #[test]
    fn scaling_fits_group_cells_and_sort_sizes() {
        let mut cases = Vec::new();
        for &n in &[64usize, 16, 32, 128] {
            cases.push(case("alg_a", "cycle", "cd", n, (n as f64).powf(2.0)));
        }
        cases.push(case("alg_b", "cycle", "cd", 16, 1.0));
        let fits = scaling_fits(&cases, stats::DEFAULT_RESAMPLES);
        assert_eq!(fits.len(), 2);
        let a = &fits[0];
        assert_eq!(
            (a.algorithm.as_str(), a.family.as_str(), a.model.as_str()),
            ("alg_a", "cycle", "cd")
        );
        assert_eq!(a.sizes, vec![16.0, 32.0, 64.0, 128.0], "sizes sorted");
        assert!(!a.truncated);
        let emax = &a.metrics[0];
        assert_eq!(emax.metric, "energy_max");
        assert_eq!(emax.points, 4);
        close(emax.power.unwrap().slope, 2.0);
        assert_eq!(emax.class, GrowthClass::Polynomial);
        let time = a.metrics.iter().find(|m| m.metric == "time").unwrap();
        close(time.power.unwrap().slope, 1.0);
        // The single-point cell is insufficient everywhere.
        let b = &fits[1];
        assert!(b
            .metrics
            .iter()
            .all(|m| m.class == GrowthClass::Insufficient));
    }

    #[test]
    fn truncated_param_marks_the_whole_cell() {
        let mut c1 = case("alg_a", "path", "local", 16, 4.0);
        c1.params.push(("truncated", Json::Bool(true)));
        let c2 = case("alg_a", "path", "local", 32, 8.0);
        let fits = scaling_fits(&[c1, c2], stats::DEFAULT_RESAMPLES);
        assert_eq!(fits.len(), 1);
        assert!(fits[0].truncated);
    }

    #[test]
    fn cell_fit_json_round_trips() {
        let cases: Vec<Case> = [16usize, 32, 64, 128]
            .iter()
            .map(|&n| case("alg_a", "cycle", "cd", n, (n as f64).ln().powi(2)))
            .collect();
        let fits = scaling_fits(&cases, stats::DEFAULT_RESAMPLES);
        let doc = fits_to_json(&fits);
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(parsed, doc);
        let cell = &parsed.as_arr().unwrap()[0];
        assert_eq!(cell.get("truncated"), Some(&Json::Bool(false)));
        let emax = cell.get("metrics").unwrap().get("energy_max").unwrap();
        assert_eq!(emax.get("class").unwrap().as_str(), Some("polylog"));
        assert!(emax.get("exponent").unwrap().as_f64().is_some());
        // Every fitted metric carries its bootstrap fields.
        for metric in FIT_METRICS {
            let m = cell.get("metrics").unwrap().get(metric).unwrap();
            assert!(
                ci_from_json(m.get("exponent_ci")).is_some(),
                "{metric} missing exponent_ci: {m:?}"
            );
            assert!(matches!(m.get("class_confident"), Some(Json::Bool(_))));
            assert!(m.get("class_agreement").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn ci_json_round_trips_and_rejects_malformed() {
        assert_eq!(
            ci_from_json(Some(&ci_json(Some((0.5, 1.5))))),
            Some((0.5, 1.5))
        );
        assert_eq!(ci_json(None), Json::Null);
        assert!(ci_from_json(Some(&Json::Null)).is_none());
        assert!(ci_from_json(None).is_none());
        assert!(ci_from_json(Some(&Json::Arr(vec![Json::Num(1.0)]))).is_none());
    }

    /// A cell whose per-point values carry seed noise around `y = n^b`.
    fn noisy_cases(b: f64, seeds: usize) -> Vec<Case> {
        [16usize, 32, 64, 128, 256]
            .iter()
            .map(|&n| {
                let measurements = (0..seeds)
                    .map(|s| {
                        // Deterministic ±10% multiplicative "seed noise".
                        let noise = 1.0 + 0.1 * f64::from((s as i32 % 3) - 1);
                        Measurement {
                            seed: 1000 + s as u64,
                            metrics: vec![
                                ("energy_max", (n as f64).powf(b) * noise),
                                ("energy_mean", (n as f64).powf(b) * noise / 2.0),
                                ("time", n as f64 * 10.0 * noise),
                            ],
                        }
                    })
                    .collect();
                Case::new(
                    vec![
                        ("family", "cycle".into()),
                        ("n", n.into()),
                        ("model", "cd".into()),
                        ("algorithm", "alg_a".into()),
                    ],
                    measurements,
                )
            })
            .collect()
    }

    #[test]
    fn bootstrap_ci_brackets_the_true_exponent_and_is_reproducible() {
        let fits = scaling_fits(&noisy_cases(1.5, 6), stats::DEFAULT_RESAMPLES);
        let emax = &fits[0].metrics[0];
        let (lo, hi) = emax.exponent_ci.expect("CI for a fitted series");
        assert!(lo <= hi);
        assert!(
            lo < 1.5 && 1.5 < hi,
            "CI [{lo}, {hi}] should bracket the true exponent 1.5"
        );
        assert!(hi - lo < 0.5, "CI implausibly wide for ±10% noise");
        // Polynomial growth at b = 1.5 is stable under seed resampling.
        assert_eq!(emax.class, GrowthClass::Polynomial);
        assert!(emax.class_confident, "agreement {:?}", emax.class_agreement);
        // Same inputs, same CI — the resampler is identity-seeded.
        let again = scaling_fits(&noisy_cases(1.5, 6), stats::DEFAULT_RESAMPLES);
        assert_eq!(again[0].metrics[0].exponent_ci, Some((lo, hi)));
    }

    #[test]
    fn single_seed_cells_get_degenerate_but_present_cis() {
        // One seed per point: every resample is identical, so the CI is
        // zero-width at the point estimate and the class trivially agrees.
        let cases: Vec<Case> = [16usize, 32, 64, 128]
            .iter()
            .map(|&n| case("alg_a", "cycle", "cd", n, (n as f64).powf(2.0)))
            .collect();
        let fits = scaling_fits(&cases, stats::DEFAULT_RESAMPLES);
        let emax = &fits[0].metrics[0];
        let (lo, hi) = emax.exponent_ci.unwrap();
        assert!((lo - hi).abs() < 1e-12, "[{lo}, {hi}]");
        assert!((lo - emax.power.unwrap().slope).abs() < 1e-9);
        assert_eq!(emax.class_agreement, Some(1.0));
    }

    #[test]
    fn mostly_degenerate_bootstrap_reports_no_ci() {
        // One point never usable (all values non-positive), one always,
        // one usable only ~25% of the time: ~75% of refits end with a
        // single usable point and fail. The survivors are too few to
        // trust — the guard must suppress the CI instead of reporting an
        // artificially narrow interval over a handful of refits.
        let g1: &[f64] = &[-1.0, -1.0];
        let g2: &[f64] = &[2.0, 2.0];
        let g3: &[f64] = &[1.0, -2.0];
        let (ci, agreement) = bootstrap_fit(
            &[16.0, 32.0, 64.0],
            &[g1, g2, g3],
            GrowthClass::Insufficient,
            7,
            stats::DEFAULT_RESAMPLES,
        );
        assert_eq!(ci, None, "mostly-failed bootstrap must not yield a CI");
        assert_eq!(agreement, None);
        // A healthy series keeps its CI.
        let h1: &[f64] = &[2.0, 2.0];
        let h2: &[f64] = &[4.0, 4.0];
        let h3: &[f64] = &[8.0, 8.0];
        let (ci, agreement) = bootstrap_fit(
            &[16.0, 32.0, 64.0],
            &[h1, h2, h3],
            GrowthClass::Polynomial,
            7,
            stats::DEFAULT_RESAMPLES,
        );
        assert!(ci.is_some());
        assert!(agreement.is_some());
    }

    #[test]
    fn unfittable_series_have_no_ci_and_no_confidence() {
        // A single-point cell fits nothing: no CI, not confident.
        let fits = scaling_fits(
            &[case("alg_b", "cycle", "cd", 16, 1.0)],
            stats::DEFAULT_RESAMPLES,
        );
        let emax = &fits[0].metrics[0];
        assert!(emax.power.is_none());
        assert!(emax.exponent_ci.is_none());
        assert!(emax.class_agreement.is_none());
        assert!(!emax.class_confident);
    }
}
