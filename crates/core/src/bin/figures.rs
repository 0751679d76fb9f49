//! Regenerates every measured figure of the paper and reports whether the
//! published shapes hold.
//!
//! Usage: `figures [--sampled] [quick|standard|full]
//!                 [4|5|...|16|10dram|attrib|memcurve|ablations|validate-sampled|all]...`
//!
//! The effort defaults to `quick` and the figure list to `all`. An
//! unknown effort or figure name prints the usage and exits 2.
//!
//! Several figure names may be given at once (`figures quick 10 attrib`);
//! they share the one plan and RunLog, so the written
//! `RUNLOG_figures.jsonl` carries every named run — the form
//! `rebaseline.sh` aggregates and `ci.sh` gates.
//!
//! `--sampled` routes every plan-run experiment through the
//! signature-picked sampling path (one seed per point, fast-forward
//! between sample units) instead of every-cycle simulation; the unit
//! schedules land in the run log. `validate-sampled` runs the
//! sampled-vs-full differential matrix, writes
//! `SAMPLED_VALIDATION.csv`, and exits non-zero if any metric breaks
//! the error bound.
//!
//! Every plan-routed experiment runs with a `RunLog` attached; the
//! worker-occupancy record is written to `RUNLOG_figures.jsonl` on exit
//! (render it with `simreport RUNLOG_figures.jsonl`).

use std::sync::Arc;

use middlesim::figures::{self, processor_axis, scaling::run_scaling_with};
use middlesim::{Effort, ExperimentPlan};
use probes::runlog::{JobSpan, RunMeta};
use probes::{Provenance, RunLog};

const USAGE: &str = "usage: figures [--sampled] [quick|standard|full] \
                     [4|5|...|16|10dram|attrib|memcurve|ablations|validate-sampled|all]...";

/// Every figure name the command line accepts, space-separated.
const FIGURES: &str = "4 5 6 7 8 9 10 10dram 11 12 13 14 15 16 \
                       attrib memcurve ablations validate-sampled all";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    sampled: bool,
    effort: Effort,
    figures: Vec<String>,
}

/// Parses the arguments after the program name. `--sampled` may appear
/// anywhere; the first other argument may name the effort.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut sampled = false;
    let mut effort = None;
    let mut figures = Vec::new();
    for arg in args {
        if arg == "--sampled" {
            sampled = true;
            continue;
        }
        let named = match arg.as_str() {
            "quick" => Some(Effort::Quick),
            "standard" => Some(Effort::Standard),
            "full" => Some(Effort::Full),
            _ => None,
        };
        match named {
            Some(e) if effort.is_none() && figures.is_empty() => effort = Some(e),
            _ if FIGURES.split_whitespace().any(|f| f == arg) => figures.push(arg),
            Some(_) => return Err(format!("effort {arg:?} given after the first argument")),
            None => return Err(format!("unknown effort or figure {arg:?}")),
        }
    }
    if figures.is_empty() {
        figures.push("all".into());
    }
    Ok(Args {
        sampled,
        effort: effort.unwrap_or(Effort::Quick),
        figures,
    })
}

fn report(name: &str, table: impl std::fmt::Display, violations: Vec<String>) {
    println!("{table}");
    if violations.is_empty() {
        println!("[shape OK] {name}\n");
    } else {
        println!("[shape VIOLATIONS] {name}:");
        for v in &violations {
            println!("  - {v}");
        }
        println!();
    }
}

fn main() {
    let Args {
        sampled,
        effort,
        figures: whichs,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let has = |n: &str| whichs.iter().any(|w| w == n);
    let all = has("all");
    let ps = processor_axis(effort);
    let log = Arc::new(RunLog::new());
    let mut plan = ExperimentPlan::new(effort).with_run_log(Arc::clone(&log), "figures");
    if sampled {
        plan = plan.with_mode(effort.sampled_mode());
    }

    let scaling_figs = ["4", "5", "6", "7", "8", "9"];
    if all || scaling_figs.iter().any(|f| has(f)) {
        eprintln!(
            "running scaling sweep over {ps:?} at {effort:?} ({} workers)...",
            plan.threads()
        );
        let data = run_scaling_with(&plan, ps);
        if all || has("4") {
            let f = figures::fig04::from_data(&data);
            report("Figure 4", f.table(), f.shape_violations());
        }
        if all || has("5") {
            let f = figures::fig05::from_data(&data);
            report("Figure 5", f.table(), f.shape_violations());
        }
        if all || has("6") {
            let f = figures::fig06::from_data(&data);
            report("Figure 6", f.table(), f.shape_violations());
        }
        if all || has("7") {
            let f = figures::fig07::from_data(&data);
            report("Figure 7", f.table(), f.shape_violations());
        }
        if all || has("8") {
            let f = figures::fig08::from_data(&data);
            report("Figure 8", f.table(), f.shape_violations());
        }
        if all || has("9") {
            let f = figures::fig09::from_data(&data);
            report("Figure 9", f.table(), f.shape_violations());
        }
    }

    if all || has("10") || has("10dram") {
        let dram = has("10dram") && !all && !has("10");
        let (label, name) = if dram {
            ("fig10dram", "Figure 10 (banked DRAM)")
        } else {
            ("fig10", "Figure 10")
        };
        eprintln!("running figure 10 trace ({label})...");
        let started = std::time::Instant::now();
        let f = match (dram, sampled) {
            (true, _) => figures::fig10::run_dram(effort, 8),
            (false, true) => figures::fig10::run_sampled(effort, 8),
            (false, false) => figures::fig10::run(effort, 8),
        };
        println!(
            "## {name} summary: c2c/Mcycle outside GC = {:.1}, during GC = {:.1} ({} GCs)",
            f.rate_outside_gc(),
            f.rate_during_gc(),
            f.gc_count
        );
        // The interval series goes into the shared log as its own run
        // so `simreport --simstat RUNLOG_figures.jsonl` can render it.
        let run = log.begin_run(RunMeta {
            tag: "figures".into(),
            effort: effort.name().into(),
            threads: 1,
            jobs: 1,
        });
        log.record_span(JobSpan {
            run,
            id: 0,
            label: Some(label.into()),
            worker: 0,
            claim: 0,
            cost_hint: None,
            wall_secs: started.elapsed().as_secs_f64(),
            counters: None,
        });
        log.record_intervals(f.records(run, 0));
        log.record_events(f.event_records(run, 0));
        report(name, f.table(), f.shape_violations());
    }

    if all || has("11") {
        eprintln!("running figure 11 scale sweep...");
        let axis = match effort {
            Effort::Quick => &figures::fig11::QUICK_SCALE_AXIS[..],
            _ => &figures::fig11::PAPER_SCALE_AXIS[..],
        };
        let f = figures::fig11::run_with(&plan, axis);
        report("Figure 11", f.table(), f.shape_violations());
    }

    if all || has("12") || has("13") {
        eprintln!("running figure 12/13 uniprocessor sweeps...");
        let data = figures::fig12::run_sweeps_with(&plan);
        let f12 = figures::fig12::from_data(&data);
        report("Figure 12", f12.table(), f12.shape_violations());
        let f13 = figures::fig13::from_data(&data);
        report("Figure 13", f13.table(), f13.shape_violations());
    }

    if all || has("14") || has("15") {
        eprintln!("running figure 14/15 communication footprints...");
        let f14 = figures::fig14::run_with(&plan, 8);
        let f15 = figures::fig15::from_fig14(&f14);
        report("Figure 14", f14.table(), f14.shape_violations());
        report("Figure 15", f15.table(), f15.shape_violations());
    }

    if all || has("16") {
        eprintln!("running figure 16 shared-cache topologies...");
        let f = figures::fig16::run_with(&plan);
        report("Figure 16", f.table(), f.shape_violations());
    }

    if all || has("attrib") {
        eprintln!("running cycle-attribution profiles...");
        let f = figures::attrib::run_with(&plan, 8);
        report("Cycle attribution", f.table(), f.shape_violations());
    }

    if all || has("memcurve") {
        eprintln!("running bandwidth-latency curves...");
        let c = figures::memcurve::run_with(&plan);
        std::fs::write("MEMCURVE.csv", c.csv()).expect("write MEMCURVE.csv");
        eprintln!("wrote MEMCURVE.csv ({} points)", c.points.len());
        report("Bandwidth-latency curves", c.table(), c.shape_violations());
    }

    if all || has("ablations") {
        eprintln!("running ablations...");
        let ism = figures::ablations::run_ism(effort);
        report("Ablation: ISM", ism.table(), ism.shape_violations());
        let pl = figures::ablations::run_path_length(effort, &[1, 4, 8]);
        report("Ablation: path length", pl.table(), pl.shape_violations());
        let oc = figures::ablations::run_objcache(effort, 8);
        report("Ablation: object cache", oc.table(), oc.shape_violations());
        let cl = figures::ablations::run_c2c_latency(effort, 8);
        report("Ablation: c2c latency", cl.table(), cl.shape_violations());
        let mb = figures::ablations::run_mem_backend(effort, 8);
        report(
            "Ablation: memory backend",
            mb.table(),
            mb.shape_violations(),
        );
        let mbe = figures::ablations::run_mem_backend_ecperf(effort, 2);
        report(
            "Ablation: memory backend (ECperf)",
            mbe.table(),
            mbe.shape_violations(),
        );
    }

    if has("validate-sampled") {
        eprintln!("running sampled-vs-full differential validation...");
        let v = figures::validate::run_with(&plan);
        std::fs::write("SAMPLED_VALIDATION.csv", v.csv()).expect("write SAMPLED_VALIDATION.csv");
        eprintln!("wrote SAMPLED_VALIDATION.csv ({} rows)", v.rows.len());
        let violations = v.violations();
        report("Sampled-vs-full validation", v.table(), violations.clone());
        if !violations.is_empty() {
            std::process::exit(1);
        }
    }

    if log.span_count() > 0
        || log.interval_count() > 0
        || log.sample_unit_count() > 0
        || log.event_count() > 0
        || log.attrib_count() > 0
    {
        let prov = Provenance::capture()
            .with_workers(plan.threads())
            .with_effort(effort.name())
            .with_sim_mode(if sampled { "sampled" } else { "full" });
        let file =
            std::fs::File::create("RUNLOG_figures.jsonl").expect("create RUNLOG_figures.jsonl");
        log.write_to(file, &prov)
            .expect("write RUNLOG_figures.jsonl");
        eprintln!(
            "wrote RUNLOG_figures.jsonl ({} runs, {} job spans, {} intervals, {} events) — render with `simreport RUNLOG_figures.jsonl`",
            log.run_count(),
            log.span_count(),
            log.interval_count(),
            log.event_count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_to_quick_and_every_figure() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.effort, Effort::Quick);
        assert_eq!(args.figures, ["all"]);
        assert!(!args.sampled);
    }

    #[test]
    fn effort_figures_and_sampled_flag_parse() {
        let args = parse(&["--sampled", "standard", "10", "attrib"]).unwrap();
        assert!(args.sampled);
        assert_eq!(args.effort, Effort::Standard);
        assert_eq!(args.figures, ["10", "attrib"]);
        let args = parse(&["full", "memcurve", "--sampled"]).unwrap();
        assert!(args.sampled);
        assert_eq!(args.effort, Effort::Full);
        // The effort is optional, as the usage line shows.
        let args = parse(&["12"]).unwrap();
        assert_eq!(args.effort, Effort::Quick);
        assert_eq!(args.figures, ["12"]);
    }

    #[test]
    fn unknown_efforts_and_figures_are_errors() {
        assert!(parse(&["fast"]).is_err());
        assert!(parse(&["quick", "17"]).is_err());
        assert!(parse(&["quick", "10", "atrib"]).is_err());
        assert!(parse(&["quick", "--verbose"]).is_err());
        assert!(parse(&["10", "quick"]).is_err());
        assert!(parse(&["quick", "standard"]).is_err());
    }
}
