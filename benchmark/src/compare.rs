//! `--compare A.json B.json`: one row per (workload, end-to-end metric the
//! catalogue reports on it) with both medians, both inter-quartile ranges
//! over each side's runs and the bound, and an exact comparison of every ✱
//! counter. Derived cells are left out: they restate a row that is there.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::serve_load::LAG_LIMIT_MS;
use crate::workloads::WORKLOADS;
use serde_json::Value;

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// How one (workload, metric) pair of two result files relates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

/// `(B − A) ÷ A`, signed so that positive means B is worse.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Judges one pair. `spread` is the wider of the two sides' run-to-run
/// inter-quartile ranges as a share of its median.
pub fn judge(a: f64, b: f64, better: &str, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let w = worse_by(a, b, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct Cell {
    value: f64,
    iqr: f64,
}

fn cell(results: &Value, workload: &str, part: &str, metric: &str) -> Option<Cell> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get(part)?
        .get("metrics")?
        .get(metric)?;
    let value = num(m.get("value")?)?;
    let iqr = match (m.get("q1").and_then(num), m.get("q3").and_then(num)) {
        (Some(q1), Some(q3)) => q3 - q1,
        _ => 0.0,
    };
    Some(Cell { value, iqr })
}

/// Prints the comparison and returns whether the two files agree: no pair
/// differs by more than its bound, no ✱ counter differs at all, no output
/// was incorrect, and both load generators kept time.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut agree = true;
    let seed = |v: &Value| v.get("seed").and_then(Value::as_u64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "IQR A", "IQR B", "bound"
    );
    for (w, _) in WORKLOADS {
        for e in END_TO_END.iter().filter(|e| e.reported_on(w)) {
            let (Some(ca), Some(cb)) = (
                cell(a, w, "end_to_end", e.name),
                cell(b, w, "end_to_end", e.name),
            ) else {
                println!("{w:<16} {:<20} missing from one file", e.name);
                agree = false;
                continue;
            };
            let spread = (ca.iqr / ca.value.abs()).max(cb.iqr / cb.value.abs());
            let verdict = judge(ca.value, cb.value, e.better, e.bound, spread);
            // the schedule is a pure function of the seed: held bit for bit
            let exact = e.name == "quality_ratio" && same_seed;
            let differs = if exact {
                ca.value.to_bits() != cb.value.to_bits()
            } else {
                worse_by(ca.value, cb.value, e.better).abs() > e.bound
            };
            agree &= !differs;
            println!(
                "{w:<16} {:<20} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>5.0}%  {}{}",
                e.name,
                ca.value,
                cb.value,
                100.0 * ca.iqr / ca.value.abs(),
                100.0 * cb.iqr / cb.value.abs(),
                100.0 * e.bound,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Worse => "WORSE",
                    Verdict::Better => "BETTER",
                    Verdict::Unresolved => "unresolved",
                },
                match (differs, exact) {
                    (true, true) => " (must be identical for one seed)",
                    (true, false) => " (differs by more than the bound)",
                    (false, _) => "",
                }
            );
        }
        for side in [a, b] {
            let run = side
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|x| x.get("end_to_end"));
            if run.and_then(|x| x.get("failed")).and_then(num) != Some(0.0) {
                println!("{w:<16} fail_share is not 0 in one file");
                agree = false;
            }
            if !matches!(run.and_then(|x| x.get("invalid")), Some(Value::Bool(false))) {
                println!("{w:<16} a load generator ran late in one file: invalid, not slow");
                agree = false;
            }
        }
        for p in PER_LAYER.iter().filter(|p| p.exact) {
            if let (Some(ca), Some(cb)) = (
                cell(a, w, "per_layer", p.name),
                cell(b, w, "per_layer", p.name),
            ) {
                if ca.value.to_bits() != cb.value.to_bits() {
                    println!(
                        "{w:<16} {:<30} ✱ counter differs: {} vs {}",
                        p.name, ca.value, cb.value
                    );
                    agree = false;
                }
            }
        }
        for side in [a, b] {
            if let Some(lag) = cell(side, w, "per_layer", "loadgen.lag_p99_ms") {
                if lag.value > LAG_LIMIT_MS {
                    println!(
                        "{w:<16} load generator ran {:.3} ms late at p99: invalid",
                        lag.value
                    );
                    agree = false;
                }
            }
        }
    }
    println!(
        "{}",
        if agree {
            "the two files agree"
        } else {
            "the two files DISAGREE"
        }
    );
    agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        assert_eq!(judge(1.0, 1.05, "lower", 0.10, 0.01), Verdict::Same);
        assert_eq!(judge(1.0, 1.20, "lower", 0.10, 0.01), Verdict::Worse);
        assert_eq!(judge(1.0, 0.80, "lower", 0.10, 0.01), Verdict::Better);
        assert_eq!(judge(100.0, 80.0, "higher", 0.10, 0.01), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, "higher", 0.10, 0.01), Verdict::Better);
        assert_eq!(judge(1.0, 1.20, "lower", 0.10, 0.30), Verdict::Unresolved);
    }

    /// A results file in which every end-to-end cell is 1, but for `cell`
    /// of `workload`, and which is `invalid` on that workload or not.
    fn results(workload: &str, cell: (&str, f64), invalid: bool) -> Value {
        let obj = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        let workloads = WORKLOADS
            .iter()
            .map(|(w, _)| {
                let metrics = END_TO_END
                    .iter()
                    .map(|e| {
                        let hit = *w == workload && e.name == cell.0;
                        let value = Value::F64(if hit { cell.1 } else { 1.0 });
                        (e.name.to_string(), obj(vec![("value".to_string(), value)]))
                    })
                    .collect();
                let run = obj(vec![
                    ("failed".to_string(), Value::U64(0)),
                    (
                        "invalid".to_string(),
                        Value::Bool(invalid && *w == workload),
                    ),
                    ("metrics".to_string(), obj(metrics)),
                ]);
                (w.to_string(), obj(vec![("end_to_end".to_string(), run)]))
            })
            .collect();
        obj(vec![
            ("seed".to_string(), Value::U64(1)),
            ("workloads".to_string(), obj(workloads)),
        ])
    }

    #[test]
    fn derived_cells_are_skipped_and_invalid_runs_refused() {
        let base = results("serve_steady", ("serve_p50_ms", 1.0), false);
        assert!(compare(&base, &base));
        // reported on serve_steady: a regression there disagrees
        let slower = results("serve_steady", ("serve_p50_ms", 2.0), false);
        assert!(!compare(&base, &slower));
        // derived on oneshot_wide: it restates pipeline_s and is not judged
        let derived = results("oneshot_wide", ("serve_p50_ms", 2.0), false);
        assert!(compare(&base, &derived));
        // a late load generator makes the file unusable, whatever it measured
        let late = results("serve_steady", ("serve_p50_ms", 1.0), true);
        assert!(!compare(&base, &late));
    }
}
