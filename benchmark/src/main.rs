//! Command line of the benchmark; `run.sh` builds it and passes its
//! arguments through.

use das_benchmark::compare::compare;
use das_benchmark::ladder::run_rung;
use das_benchmark::metrics::RUN_SECONDS;
use das_benchmark::run::{run_workload, Settings};
use das_benchmark::suite::{read_json, run_all, SuiteArgs, EXIT_DISAGREE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
      one workload in this process; the last line of stdout is the result
  run.sh --all [--seed N] [--seconds S] [--trace] [--smoke]
         [--out DIR] [--results FILE] [--ledger FILE] [--commit HASH]
      every workload three times, each run in a fresh child process; one
      results file with the median and quartiles over the runs
  run.sh --compare A.json B.json
      compare two results files against the bounds; nonzero if they disagree
  run.sh --benchmark-json
      print BENCHMARK.json as the metric catalogue defines it
workloads: oneshot_dense oneshot_wide oneshot_private sharded_dense
           networked_dense serve_steady serve_saturate";

/// `--flag value` pairs and bare `--flag`s, in order.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    let modes = [
        "--workload",
        "--all",
        "--compare",
        "--ladder-rung",
        "--benchmark-json",
    ];
    if args.flag("--help") || !modes.iter().any(|m| args.flag(m)) {
        println!("{USAGE}");
        return Ok(args.flag("--help"));
    }
    if args.flag("--benchmark-json") {
        print!("{}", das_benchmark::metrics::benchmark_json());
        return Ok(true);
    }
    if let Some(at) = args.0.iter().position(|x| x == "--compare") {
        let (Some(a), Some(b)) = (args.0.get(at + 1), args.0.get(at + 2)) else {
            return Err("--compare needs two files".to_string());
        };
        return Ok(compare(
            &read_json(Path::new(a))?,
            &read_json(Path::new(b))?,
        ));
    }
    let seed: u64 = args.parsed("--seed", 1)?;
    if let Some(rung) = args.value("--ladder-rung") {
        println!(
            "{}",
            serde_json::to_string(&run_rung(rung, seed)?).map_err(|e| e.to_string())?
        );
        return Ok(true);
    }
    let smoke = args.flag("--smoke");
    let seconds: f64 = args.parsed("--seconds", if smoke { 0.5 } else { RUN_SECONDS as f64 })?;
    let out_dir = PathBuf::from(args.value("--out").unwrap_or("benchmark/out"));
    if args.flag("--all") {
        let results = args.value("--results").map_or_else(
            || out_dir.join(format!("results-seed{seed}.json")),
            PathBuf::from,
        );
        return run_all(&SuiteArgs {
            seed,
            seconds,
            traced: args.flag("--trace"),
            smoke,
            out_dir,
            results,
            ledger: args.value("--ledger").map(PathBuf::from),
            commit: args.value("--commit").unwrap_or("unknown").to_string(),
        });
    }
    let workload = args.value("--workload").ok_or(USAGE)?;
    let traced = match args.value("--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let settings = Settings {
        seed,
        seconds,
        traced,
        smoke,
        out_dir: Some(out_dir),
    };
    let report = run_workload(workload, &settings)?;
    report.print();
    println!("{}", report.result_line());
    // An incorrect output is in the result line and fails the command too.
    // A late load generator does not: the contract's result line has no
    // place for it, so it is printed, flagged in the run file, and refused
    // by `--all` and `--compare`.
    Ok(report.correct())
}

/// Exit codes: 0, [`EXIT_DISAGREE`] when the run measured and an output was
/// incorrect (or two files disagree), 2 when it could not measure at all.
fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_DISAGREE),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
