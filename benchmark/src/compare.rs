//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged by the metric's direction and bound.

use crate::catalog::{END_TO_END, EXACT};
use crate::json::Json;
use crate::stats::{judge, spread, worse_by, Verdict};

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub baseline: f64,
    pub candidate: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn workload_docs(doc: &Json) -> Result<&[(String, Json)], String> {
    doc.get("workloads")
        .map(Json::entries)
        .filter(|w| !w.is_empty())
        .ok_or_else(|| "not a benchmark result file: no workloads".to_string())
}

fn metric_value(workload: &Json, metric: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Run-to-run spread of a metric inside one result file: across the
/// child processes that each measured the workload once (`runs`).
fn metric_spread(workload: &Json, metric: &str) -> f64 {
    let samples: Vec<f64> = workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("runs"))
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    spread(&samples)
}

/// Judges `candidate` against `baseline` on every workload both files
/// carry.
pub fn compare(baseline: &Json, candidate: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let theirs = workload_docs(candidate)?;
    for (name, ours) in workload_docs(baseline)? {
        let Some((_, theirs)) = theirs.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for def in END_TO_END.iter().chain(EXACT) {
            let (Some(a), Some(b)) = (metric_value(ours, def.name), metric_value(theirs, def.name))
            else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let spread = metric_spread(ours, def.name).max(metric_spread(theirs, def.name));
            rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                unit: def.unit,
                baseline: a,
                candidate: b,
                worse_by: worse_by(def.better, a, b),
                spread,
                bound,
                verdict: judge(def.better, bound, a, b, spread),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<22} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}{}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.baseline,
            r.candidate,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label(),
            if r.bound == 0.0 { " (exact count)" } else { "" },
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} better, {} within bound, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(job_s: f64, samples: &[f64], recall: f64) -> Json {
        let metric = |v: f64, unit: &str| Json::obj().with("value", v).with("unit", unit);
        let runs = Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect());
        let workload = Json::obj().with(
            "end_to_end",
            Json::obj()
                .with("job_s", metric(job_s, "s").with("runs", runs))
                .with("recall", metric(recall, "ratio")),
        );
        Json::obj().with("workloads", Json::obj().with("clk-inproc", workload))
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<(&'static str, Verdict)> {
        compare(a, b)
            .unwrap()
            .iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn steady_rows_are_judged_by_direction_and_bound() {
        let base = result(1.0, &[0.99, 1.0, 1.01, 1.0], 0.9);
        let slower = result(1.5, &[1.49, 1.5, 1.51, 1.5], 0.9);
        assert_eq!(
            verdicts(&base, &slower),
            [("job_s", Verdict::Worse), ("recall", Verdict::WithinBound)]
        );
        assert!(any_worse(&compare(&base, &slower).unwrap()));
        assert_eq!(verdicts(&slower, &base)[0], ("job_s", Verdict::Better));
        assert!(!any_worse(&compare(&slower, &base).unwrap()));
    }

    #[test]
    fn noisy_rows_are_unresolved_and_exact_counts_are_strict() {
        let base = result(1.0, &[0.7, 1.0, 1.3, 1.0], 0.9);
        let other = result(1.3, &[1.0, 1.3, 1.6, 1.3], 0.9 + 1e-12);
        assert_eq!(
            verdicts(&base, &other),
            [("job_s", Verdict::Unresolved), ("recall", Verdict::Worse)]
        );
    }

    #[test]
    fn files_without_common_workloads_are_an_error() {
        let empty = Json::obj().with("workloads", Json::obj());
        assert!(compare(&empty, &result(1.0, &[], 1.0)).is_err());
        assert!(compare(&Json::obj(), &Json::obj()).is_err());
    }
}
