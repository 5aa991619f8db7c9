//! A full run: every workload in a fresh child process, one results file,
//! and optionally one ledger line.

use crate::compare::num;
use crate::ladder::RUNGS;
use crate::metrics::{END_TO_END, RUNS};
use crate::run::nproc;
use crate::stats::Summary;
use crate::workloads::WORKLOADS;
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Exit code of a run that measured but whose outputs were incorrect.
pub const EXIT_DISAGREE: u8 = 1;

/// What `--all` was asked for.
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub results: PathBuf,
    pub ledger: Option<PathBuf>,
    pub commit: String,
}

/// A JSON file, with the path in the error.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs this program again as a child and waits for it.
fn child(args: &[String]) -> Result<std::process::Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))
}

/// One run of one workload in a child; returns its detailed report.
fn run_child(a: &SuiteArgs, workload: &str, traced: bool) -> Result<Value, String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &a.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
        "--out",
        &a.out_dir.display().to_string(),
    ]
    .map(String::from)
    .to_vec();
    if a.smoke {
        args.push("--smoke".to_string());
    }
    let output = child(&args)?;
    std::io::stdout()
        .write_all(&output.stdout)
        .map_err(|e| e.to_string())?;
    // an incorrect output still measured: its run file says so
    let measured = [0, i32::from(EXIT_DISAGREE)];
    if !output.status.code().is_some_and(|c| measured.contains(&c)) {
        return Err(format!(
            "workload {workload} (trace {}) exited with {}",
            u8::from(traced),
            output.status
        ));
    }
    read_json(&a.out_dir.join(format!(
        "run-{workload}-seed{}-trace{}.json",
        a.seed,
        u8::from(traced)
    )))
}

/// Whether a run file carries a reason in `invalid`.
fn is_invalid(run: &Value) -> bool {
    !matches!(run.get("invalid"), None | Some(Value::Null))
}

/// Folds a workload's end-to-end runs into one report: per metric the
/// median over the runs, their quartiles and every value; cells the
/// catalogue does not report on the workload are marked `derived`.
fn fold_runs(workload: &str, runs: &[Value]) -> Value {
    let total = |key: &str| -> u64 { runs.iter().filter_map(|r| r.get(key)?.as_u64()).sum() };
    let metrics = END_TO_END
        .iter()
        .map(|e| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| num(r.get("metrics")?.get(e.name)?.get("value")?))
                .collect();
            let s = Summary::of(&values);
            let mut fields = vec![
                ("value".to_string(), Value::F64(s.median)),
                ("unit".to_string(), Value::Str(e.unit.to_string())),
                ("q1".to_string(), Value::F64(s.q1)),
                ("q3".to_string(), Value::F64(s.q3)),
                ("samples".to_string(), Value::U64(s.samples as u64)),
                (
                    "runs".to_string(),
                    Value::Array(values.into_iter().map(Value::F64).collect()),
                ),
            ];
            if !e.reported_on(workload) {
                fields.push(("derived".to_string(), Value::Bool(true)));
            }
            (e.name.to_string(), Value::Object(fields))
        })
        .collect();
    Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(
                runs.iter()
                    .all(|r| matches!(r.get("correct"), Some(Value::Bool(true)))),
            ),
        ),
        ("attempted".to_string(), Value::U64(total("attempted"))),
        ("failed".to_string(), Value::U64(total("failed"))),
        (
            "invalid".to_string(),
            Value::Bool(runs.iter().any(is_invalid)),
        ),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
}

/// Runs the whole set and writes the results file. Returns whether every
/// workload's outputs were correct and every run valid.
///
/// # Errors
/// Returns the first child that could not measure at all.
pub fn run_all(a: &SuiteArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let mut any_invalid = false;
    let mut workloads = Vec::new();
    let mut medians = Vec::new();
    for (w, _) in WORKLOADS {
        let runs = (0..RUNS)
            .map(|_| run_child(a, w, false))
            .collect::<Result<Vec<_>, _>>()?;
        let folded = fold_runs(w, &runs);
        all_correct &= matches!(folded.get("correct"), Some(Value::Bool(true)));
        any_invalid |= matches!(folded.get("invalid"), Some(Value::Bool(true)));
        let m = folded.get("metrics");
        medians.push((
            w.to_string(),
            Value::Object(
                END_TO_END
                    .iter()
                    .filter(|e| e.reported_on(w))
                    .filter_map(|e| {
                        Some((e.name.to_string(), m?.get(e.name)?.get("value")?.clone()))
                    })
                    .collect(),
            ),
        ));
        let mut entry = vec![("end_to_end".to_string(), folded)];
        if a.traced {
            let detail = run_child(a, w, true)?;
            all_correct &= matches!(detail.get("correct"), Some(Value::Bool(true)));
            any_invalid |= is_invalid(&detail);
            entry.push(("per_layer".to_string(), detail));
        }
        workloads.push((w.to_string(), Value::Object(entry)));
    }

    // what a results file and a ledger line both open with
    let header = vec![
        ("commit".to_string(), Value::Str(a.commit.clone())),
        ("seed".to_string(), Value::U64(a.seed)),
        ("nproc".to_string(), Value::U64(nproc() as u64)),
        ("seconds".to_string(), Value::F64(a.seconds)),
    ];
    let mut top = header.clone();
    top.push(("smoke".to_string(), Value::Bool(a.smoke)));
    top.push(("workloads".to_string(), Value::Object(workloads)));
    if a.traced && !a.smoke {
        let mut rungs = Vec::new();
        for (name, _) in RUNGS {
            let output = child(&[
                "--ladder-rung".to_string(),
                name.to_string(),
                "--seed".to_string(),
                a.seed.to_string(),
            ])?;
            if !output.status.success() {
                return Err(format!("ladder rung {name} exited with {}", output.status));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let line = text.lines().last().unwrap_or_default();
            println!("ladder.{name}: {line}");
            rungs.push((
                name.to_string(),
                serde_json::from_str::<Value>(line).map_err(|e| e.to_string())?,
            ));
        }
        top.push(("ladder".to_string(), Value::Object(rungs)));
    }
    let text = serde_json::to_string_pretty(&Value::Object(top)).map_err(|e| e.to_string())?;
    if let Some(dir) = a.results.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&a.results, text + "\n").map_err(|e| format!("{}: {e}", a.results.display()))?;
    println!("results: {}", a.results.display());
    if any_invalid {
        println!("INVALID: a load generator ran late; the results file says where");
    }

    if let Some(ledger) = &a.ledger {
        if a.smoke {
            return Err(
                "smoke numbers are not for claims and do not go into the ledger".to_string(),
            );
        }
        if any_invalid {
            return Err("an invalid run does not go into the ledger".to_string());
        }
        let mut line = header;
        line.push(("correct".to_string(), Value::Bool(all_correct)));
        line.push(("medians".to_string(), Value::Object(medians)));
        let line = Value::Object(line);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ledger)
            .map_err(|e| format!("{}: {e}", ledger.display()))?;
        writeln!(
            f,
            "{}",
            serde_json::to_string(&line).map_err(|e| e.to_string())?
        )
        .map_err(|e| format!("{}: {e}", ledger.display()))?;
        println!("ledger: appended to {}", ledger.display());
    }
    Ok(all_correct && !any_invalid)
}
