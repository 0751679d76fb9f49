//! `simbench` — the end-to-end benchmark of middlesim's figure jobs.
//!
//! ```text
//! simbench --workload <jbb_live|ecperf_observed|jbb_replay> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's figure job on every worker of
//! an `ExperimentPlan` for `--seconds`, checks every job's output, and
//! prints the end-to-end metrics. With `--trace 1` it prints the
//! per-layer split instead (see `layers`). Either way the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `BENCHMARK.json` at the repository root lists the metrics and why
//! each workload is there.

mod jobs;
mod layers;
mod metrics;

use std::process::ExitCode;
use std::time::Instant;

use middlesim::Effort;
use probes::Provenance;

use jobs::{Phase, Workload, LIVE_SETUPS, REPLAY_SETUPS};
use layers::Checks;
use metrics::{median, peak_rss_mb, result_line, Metrics};

const USAGE: &str = "usage: simbench --workload <jbb_live|ecperf_observed|jbb_replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(bad("0 to 3600 seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A finished run: its metrics, checks and simulated fingerprint.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failures: Vec<String>,
    fingerprint: Option<String>,
}

/// Times `reps` calls of `f` and returns the median seconds and the
/// last call's result.
fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(f());
        times.push(started.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up ran"))
}

/// The untraced run: set-up, the timed phase, and the six end-to-end
/// metrics.
fn end_to_end(args: &Args, effort: Effort, prov: &Provenance) -> Outcome {
    let seed = args.seed;
    let plan = jobs::plan(effort);
    let (setup_s, phase): (f64, Phase) = match args.workload {
        Workload::JbbLive => {
            let (setup_s, _) = median_setup(LIVE_SETUPS, || jobs::jbb(seed, effort));
            let phase = jobs::timed_phase(&plan, args.seconds, || {
                jobs::live_job(&mut jobs::jbb(seed, effort), effort).0
            });
            (setup_s, phase)
        }
        Workload::EcperfObserved => {
            let (setup_s, _) = median_setup(LIVE_SETUPS, || jobs::ecperf(seed, effort));
            let phase = jobs::timed_phase(&plan, args.seconds, || {
                jobs::observed_job(&mut jobs::ecperf(seed, effort), effort, prov).outcome
            });
            (setup_s, phase)
        }
        Workload::JbbReplay => {
            let (setup_s, stream) = median_setup(REPLAY_SETUPS, || {
                jobs::capture(jobs::jbb(seed, effort), effort)
            });
            let phase = jobs::timed_phase(&plan, args.seconds, || jobs::replay_job(&stream));
            (setup_s, phase)
        }
    };
    let failures = phase.failures();
    let attempted = phase.jobs.len();
    let walls: Vec<f64> = phase.jobs.iter().map(|j| j.wall_s).collect();
    let rate = |f: fn(&jobs::JobOutcome) -> f64| {
        median(
            &phase
                .jobs
                .iter()
                .map(|j| f(j) / j.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::default();
    m.push("job_wall_s", median(&walls), "s");
    m.push("sim_refs_per_s", rate(|j| j.refs as f64), "1/s");
    m.push("sim_mcycles_per_s", rate(|j| j.proc_mcycles), "Mcycles/s");
    m.push("setup_s", setup_s, "s");
    m.push(
        "peak_rss_mb",
        peak_rss_mb().expect("the kernel reports VmHWM in /proc/self/status"),
        "MiB",
    );
    m.push(
        "check_pass_ratio",
        (attempted - failures.len()) as f64 / attempted as f64,
        "ratio",
    );
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("min {lo:.4} s, max {hi:.4} s")
    };
    println!(
        "timed phase: {} jobs on {} workers in {:.2} s ({}); check_fail_ratio {}",
        attempted,
        phase.workers,
        phase.wall_s,
        spread(&walls),
        failures.len() as f64 / attempted as f64
    );
    Outcome {
        metrics: m,
        attempted,
        failures,
        fingerprint: Some(jobs::show_fingerprint(&phase.jobs[0].fingerprint)),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let effort = Effort::Standard;
    let prov = Provenance::capture()
        .with_workers(jobs::plan(effort).threads())
        .with_effort(effort.name())
        .with_sim_mode("full");
    println!("provenance {}", prov.to_json());
    println!(
        "workload {} seed {} seconds {} trace {} geometry {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        jobs::describe(effort)
    );
    let outcome = if args.trace {
        let mut checks = Checks::default();
        let metrics = layers::run(args.workload, args.seed, effort, &prov, &mut checks);
        Outcome {
            metrics,
            attempted: checks.attempted,
            failures: checks.failures,
            fingerprint: None,
        }
    } else {
        end_to_end(&args, effort, &prov)
    };
    if let Some(f) = &outcome.fingerprint {
        println!("fingerprint {f}");
    }
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    print!("{}", outcome.metrics.table());
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failures.len(), &outcome.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload jbb_replay --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::JbbReplay);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    /// The names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = probes::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(|v| v.elements())
            .expect("an array of named entries")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// Every workload at `Effort::Quick` size, untraced and traced: all checks
    /// pass, and each run prints exactly the metrics `BENCHMARK.json`
    /// declares, in its order. One test, so the captures run one at a
    /// time.
    #[test]
    fn smoke_runs_every_workload_and_prints_the_declared_metrics() {
        let effort = Effort::Quick;
        let prov = Provenance::capture();
        let names = |m: &Metrics| m.names().map(String::from).collect::<Vec<_>>();
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, declared("workloads"));
        for workload in Workload::ALL {
            let args = Args {
                workload,
                seed: 3,
                seconds: 0.0,
                trace: false,
            };
            let run = end_to_end(&args, effort, &prov);
            assert!(run.failures.is_empty(), "{:?}", run.failures);
            assert!(run.attempted >= 1);
            assert_eq!(names(&run.metrics), declared("end_to_end"));

            let mut checks = Checks::default();
            let layers = layers::run(workload, 3, effort, &prov, &mut checks);
            assert!(checks.failures.is_empty(), "{:?}", checks.failures);
            assert_eq!(names(&layers), declared("per_layer"));
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload jbb_live --seed x --seconds 1 --trace 0",
            "--workload jbb_live --seed 1 --seconds -1 --trace 0",
            "--workload jbb_live --seed 1 --seconds 1 --trace 2",
            "--workload jbb_live --seed 1 --seconds 1",
            "--workload jbb_live --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
