//! `--compare <dir> [<dir>]`: read the result lines `run.sh --save <dir>` left behind and
//! judge them the way the driver does. One directory: the run-to-run spread of each
//! end-to-end metric (interquartile range ÷ median) beside its bound. Two directories
//! (`agree.sh`'s interleaved sets A and B): also how much worse B's median is than A's.
//! Exits nonzero when a spread or a difference is outside the metric's bound, except on a
//! workload `BENCHMARK.json` does not list (`names::UNGATED`): its rows are printed and
//! judged, but decide nothing.

use crate::names::{END_TO_END, UNGATED, WORKLOADS};
use crate::stats::{iqr_over_median, median};
use rws_lab::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `(workload, metric)` → one value per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Read every `<workload>.<run>.json` of `dir`. A run that reported failures is an error:
/// its timings are not comparable.
fn load(dir: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(file) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(workload) = WORKLOADS.iter().find(|w| file.starts_with(&format!("{w}."))) else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text.lines().last().unwrap_or("");
        let doc = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("failed").and_then(Json::as_u64) != Some(0) {
            return Err(format!("{}: the run reported failed operations", path.display()));
        }
        let metrics =
            doc.get("metrics").ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for name in metrics.keys() {
            let value = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            let value = value.ok_or_else(|| format!("{}: {name} has no value", path.display()))?;
            samples.entry((workload.to_string(), name.to_string())).or_default().push(value);
        }
    }
    if samples.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(samples)
}

/// The end-to-end bounds of `BENCHMARK.json`, by metric name.
fn bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    let mut out = BTreeMap::new();
    for e in entries {
        let name = e.get("name").and_then(Json::as_str).ok_or("end_to_end entry without a name")?;
        let bound =
            e.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without a bound")?;
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own direction.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

fn run(dirs: &[String]) -> Result<bool, String> {
    let a = load(Path::new(dirs.first().ok_or("--compare needs a directory")?))?;
    let b = dirs.get(1).map(|d| load(Path::new(d))).transpose()?;
    let bounds = bounds(Path::new("BENCHMARK.json"))?;
    let mut ok = true;
    println!(
        "{:<15} {:<17} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound"
    );
    for workload in WORKLOADS {
        let gated = !UNGATED.contains(&workload);
        for def in &END_TO_END {
            let key = (workload.to_string(), def.name.to_string());
            let Some(va) = a.get(&key) else { continue };
            let bound = *bounds.get(def.name).ok_or(format!("{} has no bound", def.name))?;
            let (med_a, iqr_a) = (median(va), iqr_over_median(va));
            let mut verdict = Vec::new();
            // The driver does not hold set-up time to its spread, only to its medians.
            let spread_matters = def.name != "setup_s";
            let mut judge_spread = |iqr: f64, set: &str| {
                if spread_matters && iqr > bound {
                    ok &= !gated;
                    verdict.push(format!("spread {set} outside bound"));
                } else if spread_matters && iqr > bound / 3.0 {
                    verdict.push(format!("spread {set} over a third of bound"));
                }
            };
            judge_spread(iqr_a, "A");
            let (mut med_b, mut iqr_b, mut worse) = (f64::NAN, f64::NAN, f64::NAN);
            if let Some(vb) = b.as_ref().and_then(|b| b.get(&key)) {
                (med_b, iqr_b) = (median(vb), iqr_over_median(vb));
                judge_spread(iqr_b, "B");
                worse = worse_by(med_a, med_b, def.better);
                if worse.abs() > bound {
                    ok &= !gated;
                    verdict.push("medians disagree".to_string());
                }
            }
            if !gated {
                verdict.push("not gated".to_string());
            }
            let verdict = if verdict.is_empty() { "ok".to_string() } else { verdict.join("; ") };
            println!(
                "{workload:<15} {:<17} {med_a:>12.4} {:>7.2}% {med_b:>12.4} {:>7.2}% {:>8.2}% {:>5.0}%  {verdict}",
                def.name,
                iqr_a * 100.0,
                iqr_b * 100.0,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Entry point of `--compare`.
pub fn main(dirs: &[String]) -> ExitCode {
    match run(dirs) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rws-benchmark: at least one end-to-end metric is outside its bound");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("rws-benchmark --compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, "lower"), 0.0);
    }
}
