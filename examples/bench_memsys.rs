//! Offline raw-throughput benchmark for `MemorySystem::access`, written
//! to `BENCH_memsys.json` as refs/sec per row. Two kinds of row:
//!
//! - **Captured streams** (`"kind": "captured"`): quick-effort SPECjbb
//!   and ECperf runs on 8 processors, captured in-process with a
//!   `TraceObserver` (deterministic, no download) and replayed with
//!   `SystemTrace::replay_into` into the private-L2 E6000 hierarchy
//!   they ran on (16 processors, 8 of them running the workload) and
//!   into the same machine with 4 processors per L2.
//!   These are the workload's own reference streams, the input the
//!   figures' runtime actually depends on. The private-L2 replay must
//!   reproduce the live run's statistics exactly.
//! - **A synthetic microbenchmark** (`"kind": "microbenchmark"`): a
//!   seeded reference mix through 1/4/16-CPU systems (plus the shared-L2
//!   Figure 16 shape). It isolates `access` from capture noise, but a
//!   mechanism that only speeds up this stream has not sped up the
//!   simulator.
//!
//! The synthetic mix is miss-heavy at line granularity (per-CPU working
//! sets 4x the L2, plus a small hot shared region) but bursty *within*
//! lines: instruction fetch walks each code line in four sequential
//! fetches, a load touches two or three fields of its object, and a
//! store pair dirties adjacent words. Burst followers hit the L1; burst
//! leaders walk the full hierarchy. The stream is a pure function of the
//! seed, so pre/post-change numbers are directly comparable.
//!
//! References are generated in 4096-record chunks and each chunk is
//! timed as a plain loop of [`MemorySystem::access`] calls, so the
//! generator's RNG cost stays outside the measurement.
//!
//! The effort argument sizes the synthetic stream only; the captured
//! streams are always the quick-effort windows, so their rows stay
//! comparable across efforts.
//!
//! Run with: `cargo run --release --example bench_memsys [quick|standard|full]`

use std::time::Instant;

use memsys::{AccessKind, Addr, HierarchyConfig, MemorySystem, SystemStats, SystemTrace};
use middlesim::{ecperf_machine, jbb_machine, Effort, Machine, TraceObserver};
use prng::SimRng;
use workloads::model::Workload;

/// Per-CPU private heap: 4 MB (4x the 1 MB L2 -> miss-heavy).
const PRIVATE_LINES: u64 = (4 << 20) / 64;
/// Per-CPU code region: 64 KB (4x the 16 KB L1I).
const CODE_LINES: u64 = (64 << 10) / 64;
/// Hot shared region: 64 KB of lines every CPU loads and stores.
const SHARED_LINES: u64 = (64 << 10) / 64;

/// References generated per timed chunk.
const CHUNK: usize = 4096;

/// Generates the seeded reference stream: a pure function of the seed,
/// identical for every memory-system implementation and every driver
/// structure fed the same seed.
///
/// Each RNG draw produces a burst leader plus its within-line followers
/// (queued in `pending`, drained before the next draw): 4 sequential
/// ifetches through a code line, 2-3 load touches of an object's
/// fields, or a 2-store pair.
struct Stream {
    rng: SimRng,
    cpus: u64,
    pending: [(usize, AccessKind, u64); 3],
    npending: usize,
}

impl Stream {
    fn new(seed: u64, cpus: usize) -> Self {
        // All bench shapes have power-of-two CPU counts, so masking
        // picks the same CPU `r % cpus` would — without a hardware
        // divide per record.
        assert!(cpus.is_power_of_two());
        Stream {
            rng: SimRng::seed_from_u64(seed),
            cpus: cpus as u64,
            pending: [(0, AccessKind::Load, 0); 3],
            npending: 0,
        }
    }

    #[inline]
    fn next(&mut self) -> (usize, AccessKind, Addr) {
        if self.npending > 0 {
            self.npending -= 1;
            let (cpu, kind, addr) = self.pending[self.npending];
            return (cpu, kind, Addr(addr));
        }
        let r = self.rng.next_u64();
        let a = self.rng.next_u64();
        let cpu = (r & (self.cpus - 1)) as usize;
        let roll = (r >> 8) % 100;
        if roll < 40 {
            // Ifetch burst: fall through a code line in 16-byte steps.
            let base = 0x0800_0000 + (cpu as u64) * 0x1_0000 + (a % CODE_LINES) * 64;
            self.pending = [
                (cpu, AccessKind::Ifetch, base + 48),
                (cpu, AccessKind::Ifetch, base + 32),
                (cpu, AccessKind::Ifetch, base + 16),
            ];
            self.npending = 3;
            (cpu, AccessKind::Ifetch, Addr(base))
        } else {
            let shared = (r >> 40) % 100 < 10;
            let base = if shared {
                0x0000_2000 + (a % SHARED_LINES) * 64
            } else {
                0x1000_0000 + (cpu as u64) * 0x40_0000 + (a % PRIVATE_LINES) * 64
            };
            if roll < 80 {
                // Load burst: two or three fields of the same object.
                let touches = if r >> 60 & 1 == 0 { 2 } else { 1 };
                self.pending[0] = (cpu, AccessKind::Load, base + 16);
                self.pending[1] = (cpu, AccessKind::Load, base + 8);
                self.npending = touches;
                (cpu, AccessKind::Load, Addr(base))
            } else {
                // Store pair: adjacent words of a dirtied line.
                self.pending[0] = (cpu, AccessKind::Store, base + 8);
                self.npending = 1;
                (cpu, AccessKind::Store, Addr(base))
            }
        }
    }

    /// Fills `chunk` with up to `budget` references.
    fn fill(&mut self, chunk: &mut Vec<(usize, AccessKind, Addr)>, budget: u64) {
        chunk.clear();
        for _ in 0..(CHUNK as u64).min(budget) {
            chunk.push(self.next());
        }
    }
}

struct ShapeResult {
    name: String,
    /// `"captured"` or `"microbenchmark"`.
    kind: &'static str,
    cpus: usize,
    cpus_per_l2: usize,
    refs: u64,
    refs_per_sec: f64,
    snoop_filter_rate: f64,
}

/// Streams `refs` references (after a warming prefix of `refs / 4`)
/// through `sys` and returns the timed throughput.
fn run_stream(sys: &mut MemorySystem, cpus: usize, refs: u64, seed: u64) -> f64 {
    let mut stream = Stream::new(seed, cpus);
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut left = refs / 4;
    while left > 0 {
        stream.fill(&mut chunk, left);
        for &(cpu, kind, addr) in &chunk {
            sys.access(cpu, kind, addr);
        }
        left -= chunk.len() as u64;
    }
    sys.reset_stats();
    // Time only the access loops: the generator's RNG cost is driver
    // overhead, identical for every implementation, and leaving it
    // inside the window would dilute real simulator differences. At
    // 4096 records per chunk the timer calls amortize to well under a
    // nanosecond per reference.
    let mut busy = std::time::Duration::ZERO;
    let mut left = refs;
    while left > 0 {
        stream.fill(&mut chunk, left);
        let t0 = Instant::now();
        for &(cpu, kind, addr) in &chunk {
            sys.access(cpu, kind, addr);
        }
        busy += t0.elapsed();
        left -= chunk.len() as u64;
    }
    let secs = busy.as_secs_f64();
    assert_eq!(sys.stats().total_accesses(), refs);
    refs as f64 / secs.max(1e-9)
}

/// Timing passes per shape; the best pass is reported. The benchmark
/// often shares a core with the rest of the host, and a preemption can
/// only make a pass *slower*, so max-of-N is the noise-robust estimate
/// of what the simulator sustains. The stream is deterministic, so
/// every pass does identical work.
const PASSES: usize = 3;

fn bench_shape(cpus: usize, cpus_per_l2: usize, refs: u64, seed: u64) -> ShapeResult {
    let mut b = HierarchyConfig::builder(cpus);
    b.cpus_per_l2(cpus_per_l2);
    let cfg = b.build().expect("bench shape");
    let mut refs_per_sec = 0.0f64;
    let mut sys = MemorySystem::new(cfg);
    for pass in 0..PASSES {
        if pass > 0 {
            sys = MemorySystem::new(cfg);
        }
        refs_per_sec = refs_per_sec.max(run_stream(&mut sys, cpus, refs, seed));
    }
    let snoop_filter_rate = sys.bus_stats().snoop_filter_rate();
    let stats = sys.stats();
    let name = if cpus_per_l2 == 1 {
        format!("{cpus}cpu")
    } else {
        format!("{cpus}cpu_shared{cpus_per_l2}")
    };
    println!(
        "{name:>16}: {refs_per_sec:>12.0} refs/s  ({} L2 misses, {:.1}% snoops filtered)",
        stats.total_l2_misses(),
        snoop_filter_rate * 100.0,
    );
    ShapeResult {
        name,
        kind: "microbenchmark",
        cpus,
        cpus_per_l2,
        refs,
        refs_per_sec,
        snoop_filter_rate,
    }
}

/// Processors and seed of the captured runs, and the shared-L2 shape's
/// group size.
const CAPTURE_PSET: usize = 8;
const CAPTURE_SEED: u64 = 1;
const SHARED_PER_L2: usize = 4;

/// A live run's captured stream and the statistics it produced.
struct Capture {
    name: &'static str,
    trace: SystemTrace,
    hierarchy: HierarchyConfig,
    live: SystemStats,
}

/// Runs a quick-effort warm-up and window with a `TraceObserver`
/// attached and returns what it captured.
fn capture<W: Workload>(name: &'static str, mut m: Machine<W>) -> Capture {
    let effort = Effort::Quick;
    let handle = m.attach_observer(TraceObserver::new());
    m.run_until(effort.warmup());
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + effort.window());
    Capture {
        name,
        trace: std::mem::take(m.observer_mut(handle)).into_trace(),
        hierarchy: *m.memory().config(),
        live: m.memory().stats().clone(),
    }
}

/// Replays a capture into its machine with `cpus_per_l2` processors per
/// L2, [`PASSES`] times, each into a fresh system, and reports the
/// fastest replay.
fn bench_capture(cap: &Capture, cpus_per_l2: usize) -> ShapeResult {
    let mut b = HierarchyConfig::builder(cap.hierarchy.cpus);
    b.cpus_per_l2(cpus_per_l2);
    let cfg = b.build().expect("captured shape");
    let mut best = f64::INFINITY;
    let mut sys = MemorySystem::new(cfg);
    for pass in 0..PASSES {
        if pass > 0 {
            sys = MemorySystem::new(cfg);
        }
        let t0 = Instant::now();
        cap.trace.replay_into(&mut sys);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    if cfg == cap.hierarchy {
        assert_eq!(
            sys.stats(),
            &cap.live,
            "{}: replay diverged from the live run",
            cap.name
        );
    }
    let refs = cap.trace.refs();
    let refs_per_sec = refs as f64 / best.max(1e-9);
    let snoop_filter_rate = sys.bus_stats().snoop_filter_rate();
    let name = if cpus_per_l2 == 1 {
        format!("{}_private", cap.name)
    } else {
        format!("{}_shared{cpus_per_l2}", cap.name)
    };
    println!(
        "{name:>16}: {refs_per_sec:>12.0} refs/s  ({refs} refs, {} L2 misses, {:.1}% snoops filtered)",
        sys.stats().total_l2_misses(),
        snoop_filter_rate * 100.0,
    );
    ShapeResult {
        name,
        kind: "captured",
        cpus: cfg.cpus,
        cpus_per_l2,
        refs,
        refs_per_sec,
        snoop_filter_rate,
    }
}

fn main() {
    let effort = std::env::args().nth(1).unwrap_or_else(|| "standard".into());
    let refs: u64 = match effort.as_str() {
        "quick" => 2_000_000,
        "full" => 40_000_000,
        _ => 10_000_000,
    };
    println!("capturing quick-effort SPECjbb and ECperf streams on {CAPTURE_PSET} processors...");
    let captures: [fn() -> Capture; 2] = [
        || {
            let m = jbb_machine(CAPTURE_PSET, 2 * CAPTURE_PSET, CAPTURE_SEED, Effort::Quick);
            capture("jbb8", m)
        },
        || {
            capture(
                "ecperf8",
                ecperf_machine(CAPTURE_PSET, CAPTURE_SEED, Effort::Quick),
            )
        },
    ];
    let mut results = Vec::new();
    // One capture alive at a time keeps peak memory at one trace.
    for make in captures {
        let cap = make();
        for per in [1, SHARED_PER_L2] {
            results.push(bench_capture(&cap, per));
        }
    }
    println!("streaming {refs} seeded references per synthetic shape (microbenchmark)...");
    let shapes = [(1usize, 1usize), (4, 1), (16, 1), (16, 4)];
    results.extend(
        shapes
            .iter()
            .map(|&(cpus, per)| bench_shape(cpus, per, refs, 0xB5EED)),
    );

    let mut json = String::from("{\n  \"bench\": \"memsys_access\",\n");
    json.push_str(&format!(
        "  \"provenance\": {},\n",
        probes::Provenance::capture()
            .with_workers(1)
            .with_effort(effort)
            .to_json()
    ));
    json.push_str("  \"shapes\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"cpus\": {}, \"cpus_per_l2\": {}, ",
                "\"refs\": {}, \"refs_per_sec\": {:.0}, \"snoop_filter_rate\": {:.4}}}{}\n"
            ),
            r.name,
            r.kind,
            r.cpus,
            r.cpus_per_l2,
            r.refs,
            r.refs_per_sec,
            r.snoop_filter_rate,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_memsys.json", &json).expect("write BENCH_memsys.json");
    println!("wrote BENCH_memsys.json");
}
