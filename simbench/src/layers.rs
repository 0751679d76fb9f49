//! The traced run: the per-layer split of a workload's host time, timed
//! from the benchmark's own code around calls into each layer's public
//! functions, with exactness oracles beside every timing.
//!
//! Live jobs cannot be split from outside while they run, so the
//! traced run captures the job's whole reference stream (the same seed,
//! a `TraceObserver` attached) and replays it layer by layer:
//!
//! - `memsys`: scalar `MemorySystem::access` in live order, the batched
//!   `SystemTrace::replay_into`, and the `new_broadcast` oracle;
//! - `simcpu`: the same scalar loop feeding each reference's outcome to
//!   its processor's `CpuTimer`, minus the scalar loop alone;
//! - `engine`: the bare live `run_until` wall minus the two above — the
//!   workload model, scheduler, accounting, TLB and GC driver;
//! - observers and `probes`: the observed ECperf job minus the bare run
//!   of the same seed, and the job's RunLog write and check.
//!
//! A layer the workload's job never calls reports 0.

use std::hint::black_box;
use std::time::Instant;

use memsys::{
    AccessKind, AccessSource, HierarchyConfig, MemorySystem, SystemStats, SystemTrace,
    SystemTraceEvent,
};
use middlesim::{Effort, Machine, MachineConfig, WindowReport};
use probes::Provenance;
use simcpu::CpuTimer;
use workloads::model::Workload as Model;

use crate::jobs::{self, Phase, Stream, Workload, PSET};
use crate::metrics::{median, Metrics};

/// Repetitions of each per-layer replay; the metrics are medians.
const LAYER_REPS: usize = 3;

/// Pass/fail record of the traced run's oracles and jobs.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: usize,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("oracle failed: {what}"));
        }
    }

    /// Records a timed phase's jobs.
    pub fn jobs(&mut self, phase: &Phase) {
        self.attempted += phase.jobs.len();
        self.failures.extend(phase.failures());
    }
}

/// Feeds every reference to `sys` in recorded order, resetting its
/// statistics at the window boundary — the live path's scalar loop.
fn scalar(trace: &SystemTrace, sys: &mut MemorySystem) {
    for e in trace.events() {
        match *e {
            SystemTraceEvent::Ref {
                cpu, kind, addr, ..
            } => {
                black_box(sys.access(cpu as usize, kind, addr));
            }
            SystemTraceEvent::WindowReset => sys.reset_stats(),
            SystemTraceEvent::Instructions { .. } => {}
        }
    }
}

/// The scalar loop plus each processor's `CpuTimer`, charged exactly as
/// the live engine charges them (kernel-tick references bypass the
/// timers).
fn timed_scalar(trace: &SystemTrace, sys: &mut MemorySystem) {
    let cfg = MachineConfig::e6000(PSET);
    let mut timers: Vec<CpuTimer> = (0..sys.cpus())
        .map(|_| CpuTimer::new(cfg.pipeline, cfg.latency))
        .collect();
    for e in trace.events() {
        match *e {
            SystemTraceEvent::Instructions { cpu, n } => timers[cpu as usize].retire(n),
            SystemTraceEvent::Ref {
                cpu,
                source,
                kind,
                addr,
            } => {
                let c = cpu as usize;
                let outcome = sys.access(c, kind, addr);
                if source != AccessSource::KernelTick {
                    let timer = &mut timers[c];
                    black_box(match kind {
                        AccessKind::Ifetch => timer.ifetch(&outcome),
                        AccessKind::Load => timer.load(&outcome),
                        AccessKind::Store => timer.store(&outcome),
                    });
                }
            }
            SystemTraceEvent::WindowReset => {
                sys.reset_stats();
                timers.iter_mut().for_each(CpuTimer::reset);
            }
        }
    }
    black_box(&timers);
}

/// Seconds `f` takes, and its result.
fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Median host seconds of each replay of one stream (summed over the
/// hierarchies the workload's job drives), and of the differences the
/// `simcpu` and `engine` shares are taken from, paired per repetition.
#[derive(Debug)]
struct ReplayTimes {
    access_s: f64,
    into_s: f64,
    broadcast_s: f64,
    /// Access plus `CpuTimer` replay minus the scalar loop (0 on a
    /// replay workload).
    timer_s: f64,
    /// Bare live run minus the access plus `CpuTimer` replay (0 on a
    /// replay workload).
    residual_s: f64,
    /// The bare live run (0 on a replay workload).
    bare_s: f64,
}

/// Replays `stream` [`LAYER_REPS`] times through each path and
/// hierarchy. On a live workload, `bare` runs the workload's bare live
/// job at the start of each repetition and returns its host seconds,
/// and the timer replay runs too. Interleaving puts every path in the
/// same stretch of host time, so drift in host speed hits them alike.
///
/// Checks that every path reproduces the scalar loop's statistics, and
/// the private-L2 scalar loop the live capture's.
fn replay_layers(
    stream: &Stream,
    hierarchies: &[HierarchyConfig],
    mut bare: Option<&mut dyn FnMut() -> f64>,
    checks: &mut Checks,
) -> ReplayTimes {
    let trace = &stream.trace;
    let replay = |sys: MemorySystem, f: fn(&SystemTrace, &mut MemorySystem)| {
        time(move || {
            let mut sys = sys;
            f(trace, &mut sys);
            sys.stats().clone()
        })
    };
    let into = |t: &SystemTrace, sys: &mut MemorySystem| t.replay_into(sys);
    // access, into, broadcast, timer excess, residual, bare
    let mut samples: [Vec<f64>; 6] = Default::default();
    for rep in 0..LAYER_REPS {
        let mut sums = [0.0; 6];
        if let Some(run) = bare.as_mut() {
            sums[5] = run();
        }
        for (h, hier) in hierarchies.iter().enumerate() {
            let runs = [
                replay(MemorySystem::new(*hier), scalar),
                replay(MemorySystem::new(*hier), into),
                replay(MemorySystem::new_broadcast(*hier), scalar),
            ];
            for (sum, (t, _)) in sums.iter_mut().zip(&runs) {
                *sum += t;
            }
            let reference = &runs[0].1;
            if bare.is_some() {
                let (t, timed) = replay(MemorySystem::new(*hier), timed_scalar);
                sums[3] += t - runs[0].0;
                sums[4] += sums[5] - t;
                if rep == 0 {
                    checks.check(
                        "timer replay statistics == scalar loop",
                        timed == *reference,
                    );
                }
            }
            if rep == 0 {
                let name = if h == 0 { "private-L2" } else { "shared-L2" };
                checks.check(
                    &format!("{name} scalar loop == replay_into"),
                    runs[1].1 == *reference,
                );
                checks.check(
                    &format!("{name} scalar loop == new_broadcast"),
                    runs[2].1 == *reference,
                );
                if h == 0 {
                    checks.check(
                        "private-L2 scalar loop == live capture",
                        *reference == stream.stats,
                    );
                }
            }
        }
        for (s, t) in samples.iter_mut().zip(sums) {
            s.push(t);
        }
    }
    let [access_s, into_s, broadcast_s, timer_s, residual_s, bare_s] = samples.map(|s| median(&s));
    ReplayTimes {
        access_s,
        into_s,
        broadcast_s,
        timer_s,
        residual_s,
        bare_s,
    }
}

/// Share of the window's references the collector issued.
fn gc_ref_share(trace: &SystemTrace) -> f64 {
    let events = trace.events();
    let start = events
        .iter()
        .rposition(|e| matches!(e, SystemTraceEvent::WindowReset))
        .map_or(0, |i| i + 1);
    let (mut gc, mut all) = (0u64, 0u64);
    for e in &events[start..] {
        if let SystemTraceEvent::Ref { source, .. } = e {
            all += 1;
            gc += u64::from(*source == AccessSource::Collector);
        }
    }
    gc as f64 / all.max(1) as f64
}

/// The per-layer host times of one workload (0 where its job never
/// calls the layer), from which the metrics are assembled.
#[derive(Debug, Default)]
struct HostSplit {
    timer_s: f64,
    residual_s: f64,
    observer_s: f64,
    attrib_stacks: usize,
    events: usize,
    write_s: f64,
    check_s: f64,
    runlog_bytes: usize,
    records: usize,
    overhead_pct: f64,
}

/// Captures a live workload's stream, then replays it layer by layer
/// with `bare` (the workload's bare live job, returning its host
/// seconds) interleaved; fills the `simcpu`, `engine` and trace parts
/// of `split`.
fn live_layers<W: Model>(
    build: impl Fn() -> Machine<W>,
    effort: Effort,
    bare: &mut dyn FnMut() -> f64,
    split: &mut HostSplit,
    checks: &mut Checks,
) -> (Stream, ReplayTimes) {
    let stream = jobs::capture(build(), effort);
    let mut first_bare = None;
    let mut bare_then_note = || {
        let t = bare();
        first_bare.get_or_insert(t);
        t
    };
    let times = replay_layers(
        &stream,
        &[jobs::private_hierarchy()],
        Some(&mut bare_then_note),
        checks,
    );
    split.timer_s = times.timer_s;
    split.residual_s = times.residual_s;
    // The capture against the bare run right after it, the nearest in
    // host time.
    let first_bare = first_bare.expect("at least one repetition");
    split.overhead_pct = (stream.wall_s - first_bare) / first_bare * 100.0;
    let share = |t: f64| t / times.bare_s * 100.0;
    println!(
        "layer split of the bare {:.3} s run_until: memsys {:.1}%, simcpu {:.1}%, engine {:.1}%",
        times.bare_s,
        share(times.access_s),
        share(split.timer_s),
        share(split.residual_s)
    );
    (stream, times)
}

/// Runs the traced measurement of `workload` and returns its per-layer
/// metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    effort: Effort,
    prov: &Provenance,
    checks: &mut Checks,
) -> Metrics {
    let plan = jobs::plan(effort);
    let mut split = HostSplit::default();
    let mut reports: Vec<WindowReport> = Vec::new();
    let (phase, stream, times) = match workload {
        Workload::JbbLive => {
            let phase = jobs::timed_phase(&plan, 0.0, || {
                jobs::live_job(&mut jobs::jbb(seed, effort), effort).0
            });
            let mut bare = || {
                let (outcome, report) = jobs::live_job(&mut jobs::jbb(seed, effort), effort);
                reports.push(report);
                outcome.wall_s
            };
            let (stream, times) = live_layers(
                || jobs::jbb(seed, effort),
                effort,
                &mut bare,
                &mut split,
                checks,
            );
            (phase, stream, times)
        }
        Workload::EcperfObserved => {
            let phase = jobs::timed_phase(&plan, 0.0, || {
                jobs::observed_job(&mut jobs::ecperf(seed, effort), effort, prov).outcome
            });
            // Each repetition runs the bare job and the observed job of
            // the same seed back to back; the overhead is their
            // difference, paired per repetition.
            let mut observed = Vec::new();
            let mut bare = || {
                let (outcome, report) = jobs::live_job(&mut jobs::ecperf(seed, effort), effort);
                reports.push(report);
                let obs = jobs::observed_job(&mut jobs::ecperf(seed, effort), effort, prov);
                observed.push((obs.run_s - outcome.wall_s, obs));
                outcome.wall_s
            };
            let (stream, times) = live_layers(
                || jobs::ecperf(seed, effort),
                effort,
                &mut bare,
                &mut split,
                checks,
            );
            for (_, obs) in &observed {
                checks.check(
                    "observed ECperf window report is bit-identical to the bare run",
                    jobs::same_report(&obs.report, &stream.report),
                );
            }
            let median_of = |f: &dyn Fn(&(f64, jobs::ObservedJob)) -> f64| {
                median(&observed.iter().map(f).collect::<Vec<_>>())
            };
            split.observer_s = median_of(&|(d, _)| *d);
            split.write_s = median_of(&|(_, o)| o.write_s);
            split.check_s = median_of(&|(_, o)| o.check_s);
            let obs = &observed[0].1;
            split.attrib_stacks = obs.attrib_stacks;
            split.events = obs.events;
            split.runlog_bytes = obs.runlog_bytes;
            split.records = obs.records;
            (phase, stream, times)
        }
        Workload::JbbReplay => {
            let stream = jobs::capture(jobs::jbb(seed, effort), effort);
            let phase = jobs::timed_phase(&plan, 0.0, || jobs::replay_job(&stream));
            let untraced: Vec<f64> = (0..LAYER_REPS)
                .map(|_| jobs::replay_job(&stream).wall_s)
                .collect();
            let hierarchies = [jobs::private_hierarchy(), jobs::shared_hierarchy()];
            let times = replay_layers(&stream, &hierarchies, None, checks);
            let untraced = median(&untraced);
            split.overhead_pct = (times.into_s - untraced) / untraced * 100.0;
            (phase, stream, times)
        }
    };
    for report in &reports {
        checks.check(
            "bare window report is bit-identical to the captured one",
            jobs::same_report(report, &stream.report),
        );
    }
    checks.jobs(&phase);

    let refs = stream.trace.refs() as f64;
    let hierarchies = if workload == Workload::JbbReplay {
        2.0
    } else {
        1.0
    };
    let stats: &SystemStats = &stream.stats;
    let report = &stream.report;
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let mut m = Metrics::default();
    m.push("memsys.access_s", times.access_s, "s");
    m.push(
        "memsys.ns_per_access",
        times.access_s * 1e9 / (refs * hierarchies),
        "ns",
    );
    m.push("memsys.replay_into_s", times.into_s, "s");
    m.push("memsys.broadcast_access_s", times.broadcast_s, "s");
    m.push("memsys.accesses", stats.total_accesses() as f64, "count");
    m.push(
        "memsys.l2_miss_ratio",
        ratio(stats.total_l2_misses(), stats.total_accesses()),
        "ratio",
    );
    m.push("memsys.c2c_ratio", stats.c2c_ratio(), "ratio");
    m.push("memsys.snoops_sent", stream.bus.snoops_sent as f64, "count");
    m.push(
        "memsys.snoop_filter_rate",
        stream.bus.snoop_filter_rate(),
        "ratio",
    );
    m.push("simcpu.timer_s", split.timer_s, "s");
    m.push("simcpu.cpi", report.cpi.cpi(), "cycles/instr");
    m.push(
        "simcpu.data_stall_cpi",
        report.cpi.data_stall_cpi(),
        "cycles/instr",
    );
    m.push("engine.residual_s", split.residual_s, "s");
    m.push("jvm.gc_count", report.gc_count as f64, "count");
    m.push(
        "jvm.gc_cycle_share",
        ratio(report.gc_cycles, report.cycles),
        "ratio",
    );
    m.push("jvm.gc_ref_share", gc_ref_share(&stream.trace), "ratio");
    m.push("sysos.system_share", report.modes.system, "ratio");
    m.push("sysos.idle_share", report.modes.total_idle(), "ratio");
    m.push("observer.overhead_s", split.observer_s, "s");
    m.push(
        "observer.attrib_stacks",
        split.attrib_stacks as f64,
        "count",
    );
    m.push("observer.events", split.events as f64, "count");
    m.push("probes.runlog_write_s", split.write_s, "s");
    m.push("probes.check_s", split.check_s, "s");
    m.push("probes.runlog_bytes", split.runlog_bytes as f64, "B");
    m.push("probes.records", split.records as f64, "count");
    m.push("plan.workers", phase.workers as f64, "count");
    m.push("plan.busy_s", phase.busy_s(), "s");
    m.push("plan.idle_s", phase.idle_s(), "s");
    m.push(
        "trace.capture_bytes",
        (stream.trace.len() * std::mem::size_of::<SystemTraceEvent>()) as f64,
        "B",
    );
    m.push("trace.overhead_pct", split.overhead_pct, "%");
    m
}
