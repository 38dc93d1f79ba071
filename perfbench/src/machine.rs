//! The environment every result is recorded with, and the process's peak
//! resident memory.

use ebc_bench::json::Json;

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size in bytes of the highest-level and second-level caches of CPU 0,
/// as `(level, bytes)` pairs, highest level first.
fn caches() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map(|m| m << 20),
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), bytes) {
            out.push((level, bytes));
        }
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, commit, `rustc -V`, CPU model and cache sizes, plus the
/// workload's computed working set against the last-level and
/// second-level caches. `run.py` passes the commit and compiler version
/// in the environment.
pub fn record(working_set_bytes: u64) -> Json {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caches = caches();
    let level = |rank: usize| caches.get(rank).copied();
    let mut doc = Json::obj()
        .field("nproc", nproc)
        .field("commit", var("PERFBENCH_COMMIT"))
        .field("rustc", var("PERFBENCH_RUSTC"))
        .field("cpu", cpu_model())
        .field("threads", var("EBC_NUM_THREADS"))
        .field("working_set_bytes_computed", working_set_bytes);
    for (key, rank) in [("llc", 0), ("l2", 1)] {
        if let Some((lvl, bytes)) = level(rank) {
            doc = doc
                .field(&format!("{key}_level"), lvl)
                .field(&format!("{key}_bytes"), bytes)
                .field(
                    &format!("working_set_over_{key}"),
                    working_set_bytes as f64 / bytes as f64,
                );
        }
    }
    doc
}
