//! Human-readable rendering of experiment results: one aligned table per
//! experiment (params on the left, metric summaries on the right), the
//! paper bound above, the expected shape below.
//!
//! Each metric gets one column: its per-seed `mean ±std_dev` (the mean
//! alone where every seed agrees).

use crate::experiments::ExperimentResult;
use crate::json::Json;

/// Renders `result` as an aligned text table.
pub fn render(result: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n=== {} — {} ===\n",
        result.spec.name, result.spec.title
    ));
    out.push_str(&format!("paper: {}\n", result.spec.paper));

    // Column layout: union of param keys, then union of metric names.
    let mut param_keys: Vec<&'static str> = Vec::new();
    let mut metric_keys: Vec<&'static str> = Vec::new();
    for case in &result.cases {
        for (k, _) in &case.params {
            if !param_keys.contains(k) {
                param_keys.push(k);
            }
        }
        for (k, _) in &case.summary.metrics {
            if !metric_keys.contains(k) {
                metric_keys.push(k);
            }
        }
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let header: Vec<String> = param_keys
        .iter()
        .map(|k| k.to_string())
        .chain(metric_keys.iter().map(|k| format!("{k} (mean)")))
        .collect();
    for case in &result.cases {
        let mut row: Vec<String> = Vec::new();
        for key in &param_keys {
            row.push(
                case.params
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(String::new(), |(_, v)| render_param(v)),
            );
        }
        for key in &metric_keys {
            row.push(case.summary.metric(key).map_or(String::new(), |s| {
                if s.min == s.max {
                    format_num(s.mean)
                } else {
                    format!("{} ±{}", format_num(s.mean), format_num(s.std_dev))
                }
            }));
        }
        rows.push(row);
    }

    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r[i].chars().count())
                .max()
                .unwrap_or(0)
                .max(h.chars().count())
        })
        .collect();
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&render_row(&header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in &rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out.push_str(&format!("shape: {}\n", result.spec.note));
    if let Some(cache) = &result.cache {
        out.push_str(&format!(
            "cache: {} hits, {} misses, {} invalidated ({} executed)\n",
            cache.hits,
            cache.misses,
            cache.invalidated,
            cache.executed()
        ));
    }
    // Experiment-specific top-level fields (e.g. the scenario matrix's
    // skip accounting) — scalars and flat objects, one line each.
    for (key, value) in &result.extra {
        if *key == "fits" {
            out.push_str(&render_fits_summary(value));
            continue;
        }
        match value {
            Json::Obj(pairs)
                if pairs
                    .iter()
                    .all(|(_, v)| !matches!(v, Json::Obj(_) | Json::Arr(_))) =>
            {
                let body: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{k}={}", render_param(v)))
                    .collect();
                out.push_str(&format!("{key}: {}\n", body.join(" ")));
            }
            Json::Arr(_) | Json::Obj(_) => {}
            scalar => out.push_str(&format!("{key}: {}\n", render_param(scalar))),
        }
    }
    out
}

/// One line breaking the run's wall-clock into graph build / sim /
/// analysis / cache time — the same totals `BENCH_profile.json` records
/// for this experiment. Kept out of [`render`] because wall-clock varies
/// between reruns while the rendered table must not; empty when the run
/// profiled no cells.
pub fn render_profile(result: &ExperimentResult) -> String {
    if result.profile.cells.is_empty() {
        return String::new();
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let (build, sim, cache) = result.profile.totals();
    let analysis = result.profile.analysis;
    format!(
        "profile: {} cells — build {:.1}ms, sim {:.1}ms, analysis {:.1}ms, \
         cache {:.1}ms (total {:.1}ms)\n",
        result.profile.cells.len(),
        ms(build),
        ms(sim),
        ms(analysis),
        ms(cache),
        ms(build + sim + analysis + cache)
    )
}

/// One line summarizing the scaling fits: how the cells' `energy_max`
/// growth classifies, plus the truncation count.
fn render_fits_summary(fits: &Json) -> String {
    let Some(cells) = fits.as_arr() else {
        return String::new();
    };
    let mut by_class: Vec<(String, usize)> = Vec::new();
    let mut truncated = 0usize;
    for cell in cells {
        if cell.get("truncated") == Some(&Json::Bool(true)) {
            truncated += 1;
        }
        let class = cell
            .get("metrics")
            .and_then(|m| m.get("energy_max"))
            .and_then(|m| m.get("class"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        match by_class.iter_mut().find(|(c, _)| *c == class) {
            Some((_, n)) => *n += 1,
            None => by_class.push((class, 1)),
        }
    }
    let breakdown: Vec<String> = by_class.iter().map(|(c, n)| format!("{n} {c}")).collect();
    format!(
        "fits: {} cells (energy_max: {}; {} truncated by budget)\n",
        cells.len(),
        breakdown.join(", "),
        truncated
    )
}

fn render_param(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Int(i) => i.to_string(),
        Json::Num(x) => format_num(*x),
        Json::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

fn format_num(x: f64) -> String {
    if !x.is_finite() {
        "-".to_string()
    } else if x == x.trunc() && x.abs() < 1e12 {
        format!("{x:.0}")
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find_experiment, run_experiment};
    use crate::measure::RunConfig;

    #[test]
    fn render_contains_params_and_metrics() {
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            ..RunConfig::default()
        };
        let result = run_experiment(find_experiment("table1_lower").unwrap(), &config);
        let text = render(&result);
        assert!(text.contains("broadcast_theorem11"), "{text}");
        assert!(text.contains("energy_max"), "{text}");
        assert!(text.contains("shape:"), "{text}");
        // The wall-clock breakdown is rendered separately (it varies
        // between reruns, so it must stay out of the stable table).
        let profile = render_profile(&result);
        assert!(profile.starts_with("profile:"), "{profile}");
        assert!(profile.contains("sim "), "{profile}");
        assert!(!text.contains("profile:"), "{text}");
    }

    #[test]
    fn rendered_tables_are_deterministic() {
        // Re-running the experiment and rendering it again must produce
        // an identical table.
        let config = RunConfig {
            seeds: Some(3),
            quick: true,
            ..RunConfig::default()
        };
        let spec = find_experiment("fig1_path").unwrap();
        let a = render(&run_experiment(spec, &config));
        let b = render(&run_experiment(spec, &config));
        assert_eq!(a, b);
    }

    #[test]
    fn format_num_is_compact() {
        assert_eq!(format_num(1234.0), "1234");
        assert_eq!(format_num(1234.5), "1234.5");
        assert_eq!(format_num(0.25), "0.250");
        assert_eq!(format_num(f64::NAN), "-");
    }
}
