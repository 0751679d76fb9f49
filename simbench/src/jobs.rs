//! The three workloads' figure jobs, their correctness checks and
//! simulated-output fingerprints, and the timed phase that runs them
//! through the experiment plan's worker pool.

use std::time::{Duration, Instant};

use memsys::{BusStats, HierarchyConfig, SystemStats, SystemTrace};
use middlesim::{
    ecperf_machine, jbb_machine, replay_trace, AttribProfiler, Effort, ExperimentPlan,
    IntervalSampler, Machine, MachineConfig, TimelineCollector, TraceObserver, WindowReport,
};
use probes::runlog::{JobSpan, RunLog, RunMeta};
use probes::Provenance;
use workloads::ecperf::Ecperf;
use workloads::model::Workload as Model;
use workloads::specjbb::SpecJbb;

/// Processors in the benchmark's processor set (of the 16-way E6000).
pub const PSET: usize = 8;
/// SPECjbb warehouses: two per processor, as in the scaling figures.
pub const WAREHOUSES: usize = 16;
/// Interval-sampler width on the observed job: Figure 10's bucket.
pub const INTERVAL_CYCLES: u64 = 2_000_000;
/// Processors per L2 in the shared-cache replay (a Figure 16 topology).
pub const SHARED_CPUS_PER_L2: usize = 4;
/// Worker threads the timed phase may use, at most.
pub const MAX_WORKERS: usize = 2;
/// Upper bound on jobs one timed phase can claim.
const MAX_JOBS: usize = 10_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SPECjbb, 8 processors, 16 warehouses, detailed, no observers.
    JbbLive,
    /// ECperf, 8 processors, the figure telemetry stack attached and its
    /// RunLog serialized and validated.
    EcperfObserved,
    /// The `JbbLive` stream captured once and replayed into the private-
    /// and shared-L2 hierarchies.
    JbbReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::JbbLive,
        Workload::EcperfObserved,
        Workload::JbbReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JbbLive => "jbb_live",
            Workload::EcperfObserved => "ecperf_observed",
            Workload::JbbReplay => "jbb_replay",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Machine constructions timed for a live workload's `setup_s`.
pub const LIVE_SETUPS: usize = 25;
/// Captures timed for `jbb_replay`'s `setup_s` (the last is kept).
pub const REPLAY_SETUPS: usize = 3;

/// The geometry at `effort`, as one line for provenance.
pub fn describe(effort: Effort) -> String {
    format!(
        "pset={PSET} warehouses={WAREHOUSES} effort={} scale_divisor={} warmup_cycles={} window_cycles={} shared_cpus_per_l2={SHARED_CPUS_PER_L2}",
        effort.name(),
        effort.scale_divisor(),
        effort.warmup(),
        effort.window()
    )
}

/// Builds the SPECjbb machine every SPECjbb workload uses.
pub fn jbb(seed: u64, effort: Effort) -> Machine<SpecJbb> {
    jbb_machine(PSET, WAREHOUSES, seed, effort)
}

/// Builds the ECperf machine.
pub fn ecperf(seed: u64, effort: Effort) -> Machine<Ecperf> {
    ecperf_machine(PSET, seed, effort)
}

/// The private-L2 E6000 hierarchy the machines are built with.
pub fn private_hierarchy() -> HierarchyConfig {
    MachineConfig::e6000(PSET).hierarchy
}

/// The same machine with [`SHARED_CPUS_PER_L2`] processors per L2.
pub fn shared_hierarchy() -> HierarchyConfig {
    let mut b = HierarchyConfig::builder(private_hierarchy().cpus);
    b.cpus_per_l2(SHARED_CPUS_PER_L2);
    b.build().expect("16 processors divide into groups of 4")
}

/// Warms a machine up and measures one window (what `measure` does),
/// returning the references simulated during warm-up.
pub fn run_window<W: Model>(m: &mut Machine<W>, effort: Effort) -> u64 {
    m.run_until(effort.warmup());
    let warm_refs = m.memory().stats().total_accesses();
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + effort.window());
    warm_refs
}

/// A simulated-output fingerprint: exact counts (and CPI bits) that a
/// speed-only change must leave untouched.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// The fingerprint of a live window.
pub fn live_fingerprint(report: &WindowReport, stats: &SystemStats) -> Fingerprint {
    vec![
        ("transactions", report.transactions),
        ("cycles", report.cycles),
        ("refs", stats.total_accesses()),
        ("l2_misses", stats.total_l2_misses()),
        ("c2c", stats.total_c2c()),
        ("gc_count", report.gc_count),
        ("cpi_bits", report.cpi.cpi().to_bits()),
    ]
}

/// A fingerprint as `name=value` pairs.
pub fn show_fingerprint(f: &Fingerprint) -> String {
    f.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Bitwise equality of two window reports (`PartialEq` on the `f64`
/// fields would accept `0.0 == -0.0`).
pub fn same_report(a: &WindowReport, b: &WindowReport) -> bool {
    let bits = |r: &WindowReport| {
        let m = &r.modes;
        (
            r.transactions,
            r.cycles,
            r.cpi,
            [m.user, m.system, m.io, m.idle, m.gc_idle].map(f64::to_bits),
            r.gc_cycles,
            r.gc_count,
            r.c2c_ratio.to_bits(),
            r.snoop_filter_rate.to_bits(),
        )
    };
    bits(a) == bits(b)
}

/// The window-report invariants every live job must meet.
pub fn check_window(report: &WindowReport) -> Result<(), String> {
    if report.transactions == 0 {
        return Err("no transactions completed in the window".into());
    }
    let sum = report.modes.sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("mode fractions sum to {sum}, not 1"));
    }
    let cpi = report.cpi.cpi();
    if !cpi.is_finite() || cpi <= 0.0 {
        return Err(format!("CPI {cpi} is not a finite positive number"));
    }
    Ok(())
}

/// What one job did and how long it took.
#[derive(Debug)]
pub struct JobOutcome {
    /// Host seconds of the timed part of the job.
    pub wall_s: f64,
    /// Simulated memory references in the timed part.
    pub refs: u64,
    /// Simulated processor-Mcycles covered by the timed part.
    pub proc_mcycles: f64,
    /// The job's simulated outputs.
    pub fingerprint: Fingerprint,
    /// Why the job's output is wrong, if it is.
    pub failure: Option<String>,
}

/// Runs a freshly built machine through warm-up and window, timing
/// only those (construction is set-up).
pub fn live_job<W: Model>(m: &mut Machine<W>, effort: Effort) -> (JobOutcome, WindowReport) {
    let started = Instant::now();
    let warm_refs = run_window(m, effort);
    let wall_s = started.elapsed().as_secs_f64();
    let report = m.window_report();
    let stats = m.memory().stats();
    let outcome = JobOutcome {
        wall_s,
        refs: warm_refs + stats.total_accesses(),
        proc_mcycles: (m.time() * PSET as u64) as f64 / 1e6,
        fingerprint: live_fingerprint(&report, stats),
        failure: check_window(&report).err(),
    };
    (outcome, report)
}

/// What the observed ECperf job produced beyond its outcome.
#[derive(Debug)]
pub struct ObservedJob {
    /// The job's outcome (timed: attach, run, RunLog write and check).
    pub outcome: JobOutcome,
    /// The window report, for the non-perturbation oracle.
    pub report: WindowReport,
    /// Host seconds of attach + warm-up + window alone.
    pub run_s: f64,
    /// Host seconds of `RunLog::write_to`.
    pub write_s: f64,
    /// Host seconds of `probes::report::check`.
    pub check_s: f64,
    /// Serialized RunLog size.
    pub runlog_bytes: usize,
    /// Records (lines) in the RunLog.
    pub records: usize,
    /// Attribution stacks the profiler folded.
    pub attrib_stacks: usize,
    /// Timeline events plus sampled intervals the observers produced.
    pub events: usize,
}

/// The observed ECperf job: the telemetry stack `figures attrib` and
/// `figures 10` attach, a measured window, and the job's RunLog
/// serialized and checked with `probes::report::check`.
pub fn observed_job(m: &mut Machine<Ecperf>, effort: Effort, prov: &Provenance) -> ObservedJob {
    let started = Instant::now();
    let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
    let prof = m.attach_observer(AttribProfiler::new(m.workload().region_map(), base_cpi));
    let sampler = m.attach_observer(IntervalSampler::new(INTERVAL_CYCLES));
    let timeline = m.attach_observer(TimelineCollector::new());
    let warm_refs = run_window(m, effort);
    let run_s = started.elapsed().as_secs_f64();

    let report = m.window_report();
    let stats = m.memory().stats();
    let mut failure = check_window(&report).err();
    let log = RunLog::new();
    let run = log.begin_run(RunMeta {
        tag: "ecperf_observed".into(),
        effort: effort.name().into(),
        threads: 1,
        jobs: 1,
    });
    let profiler = m.observer(prof);
    let mut counters = m.counters();
    counters.record(profiler);
    let attribs = profiler.to_records(run, 0);
    let intervals = m.observer(sampler).to_records(run, 0);
    let events = m.observer(timeline).to_records(run, 0);
    let (attrib_stacks, interval_count, event_count) =
        (attribs.len(), intervals.len(), events.len());
    log.record_span(JobSpan {
        run,
        id: 0,
        label: Some(format!("ecperf p{PSET}")),
        worker: 0,
        claim: 0,
        cost_hint: None,
        wall_secs: run_s,
        counters: Some(counters),
    });
    log.record_intervals(intervals);
    log.record_events(events);
    log.record_attribs(attribs);

    let t = Instant::now();
    let mut bytes = Vec::new();
    log.write_to(&mut bytes, prov)
        .expect("writing a RunLog to memory cannot fail");
    let write_s = t.elapsed().as_secs_f64();
    let text = String::from_utf8(bytes).expect("RunLog is UTF-8");
    let t = Instant::now();
    let parsed = probes::report::check(&text);
    let check_s = t.elapsed().as_secs_f64();
    match parsed {
        Err(e) => failure = failure.or(Some(format!("RunLog check failed: {e}"))),
        Ok(p) => {
            let got = (
                p.jobs.len(),
                p.attribs.len(),
                p.intervals.len(),
                p.events.len(),
            );
            let want = (1, attrib_stacks, interval_count, event_count);
            if got != want {
                failure = failure.or(Some(format!(
                    "RunLog round trip lost records: (jobs, attribs, intervals, events) {got:?} != {want:?}"
                )));
            } else if attrib_stacks == 0 || interval_count == 0 {
                failure = failure.or(Some("the observers recorded nothing".into()));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    ObservedJob {
        outcome: JobOutcome {
            wall_s,
            refs: warm_refs + stats.total_accesses(),
            proc_mcycles: (m.time() * PSET as u64) as f64 / 1e6,
            fingerprint: live_fingerprint(&report, stats),
            failure,
        },
        report,
        run_s,
        write_s,
        check_s,
        runlog_bytes: text.len(),
        records: text.lines().count(),
        attrib_stacks,
        events: event_count + interval_count,
    }
}

/// A captured live run: the whole-machine reference stream plus what
/// the live machine measured over its window.
pub struct Stream {
    /// The capture (warm-up, window boundary, window).
    pub trace: SystemTrace,
    /// The live memory system's window statistics.
    pub stats: SystemStats,
    /// The live bus counters over the window.
    pub bus: BusStats,
    /// The live window report.
    pub report: WindowReport,
    /// Virtual time at the end of the run.
    pub end_time: u64,
    /// Host seconds of the captured warm-up and window.
    pub wall_s: f64,
}

/// Attaches a `TraceObserver` to a freshly built machine and runs
/// warm-up plus window; the timing covers the run.
pub fn capture<W: Model>(mut m: Machine<W>, effort: Effort) -> Stream {
    let handle = m.attach_observer(TraceObserver::new());
    let started = Instant::now();
    run_window(&mut m, effort);
    let wall_s = started.elapsed().as_secs_f64();
    let trace = std::mem::take(m.observer_mut(handle)).into_trace();
    Stream {
        trace,
        stats: m.memory().stats().clone(),
        bus: *m.memory().bus_stats(),
        report: m.window_report(),
        end_time: m.time(),
        wall_s,
    }
}

/// The replay job: the captured stream into the private-L2 hierarchy
/// and into the shared-L2 hierarchy. The private replay must reproduce
/// the live capture's statistics exactly.
pub fn replay_job(stream: &Stream) -> JobOutcome {
    let (private, shared) = (private_hierarchy(), shared_hierarchy());
    let started = Instant::now();
    let p = replay_trace(&stream.trace, &private);
    let s = replay_trace(&stream.trace, &shared);
    let wall_s = started.elapsed().as_secs_f64();
    let failure = (p.stats != stream.stats).then(|| {
        format!(
            "private-L2 replay diverged from the live capture: {} vs {} L2 misses",
            p.stats.total_l2_misses(),
            stream.stats.total_l2_misses()
        )
    });
    let mut fingerprint = live_fingerprint(&stream.report, &p.stats);
    fingerprint.extend([
        ("shared_refs", s.stats.total_accesses()),
        ("shared_l2_misses", s.stats.total_l2_misses()),
        ("shared_c2c", s.stats.total_c2c()),
    ]);
    JobOutcome {
        wall_s,
        refs: 2 * stream.trace.refs(),
        proc_mcycles: 2.0 * (stream.end_time * PSET as u64) as f64 / 1e6,
        fingerprint,
        failure,
    }
}

/// The jobs of one timed phase.
#[derive(Debug)]
pub struct Phase {
    /// Completed jobs, in claim-index order.
    pub jobs: Vec<JobOutcome>,
    /// Worker threads the plan ran.
    pub workers: usize,
    /// Host seconds from the first claim to the last job's end.
    pub wall_s: f64,
}

impl Phase {
    /// Worker-seconds spent inside jobs.
    pub fn busy_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_s).sum()
    }

    /// Worker-seconds the pool held but no job used.
    pub fn idle_s(&self) -> f64 {
        (self.workers as f64 * self.wall_s - self.busy_s()).max(0.0)
    }

    /// Failed jobs, with reasons. Every job of a phase runs the same
    /// seed, so a job whose fingerprint differs from the first job's
    /// failed too (the simulator must be deterministic).
    pub fn failures(&self) -> Vec<String> {
        let reference = &self.jobs[0].fingerprint;
        self.jobs
            .iter()
            .enumerate()
            .filter_map(|(i, j)| {
                let reason = j.failure.clone().or_else(|| {
                    (j.fingerprint != *reference).then(|| {
                        format!(
                            "fingerprint differs from job 0's: {}",
                            show_fingerprint(&j.fingerprint)
                        )
                    })
                });
                reason.map(|r| format!("job {i}: {r}"))
            })
            .collect()
    }
}

/// The plan the timed phase fans jobs over: one worker per core, at
/// most [`MAX_WORKERS`].
pub fn plan(effort: Effort) -> ExperimentPlan {
    let plan = ExperimentPlan::new(effort);
    let workers = plan.threads().min(MAX_WORKERS);
    plan.with_threads(workers)
}

/// Runs `job` on every worker of `plan` until `seconds` have passed
/// (each worker runs at least one job; a job started before the
/// deadline finishes).
pub fn timed_phase(
    plan: &ExperimentPlan,
    seconds: f64,
    job: impl Fn() -> JobOutcome + Sync,
) -> Phase {
    let workers = plan.threads();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let slots: Vec<usize> = (0..MAX_JOBS).collect();
    let jobs = plan
        .run(&slots, |&i| {
            (i < workers || started.elapsed() < deadline).then(&job)
        })
        .into_iter()
        .flatten()
        .collect();
    Phase {
        jobs,
        workers,
        wall_s: started.elapsed().as_secs_f64(),
    }
}
