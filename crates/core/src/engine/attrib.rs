//! The cycle-attribution profiler: phase × component × cause × region
//! CPI stacks.
//!
//! [`AttribProfiler`] stands on the [`SimObserver`] seam and folds every
//! stall cycle the CPU timers charge into a four-frame stack,
//! `phase;component;cause;region`:
//!
//! - **phase** — who was executing: `mutator` (workload steps), `gc`
//!   (collector steps), `kernel` (clock ticks). Stop-the-world
//!   collection makes the source tag and the GC driver's pause
//!   choreography agree by construction; the profiler still listens to
//!   [`SimObserver::on_gc_interval`] and keeps the driver's pause
//!   totals as counters, so the two accountings can be cross-checked.
//! - **component** — which CPI-stack slice the paper's Figure 7 draws:
//!   `instr_stall`, `data_stall`, or `other` (base execution).
//! - **cause** — why the pipeline stalled: `l1`, `l2_hit`, `memory`
//!   (DRAM, including upgrades, which the timer folds into the same
//!   slice), `c2c` (dirty cache-to-cache transfer), and for data stalls
//!   also `store_buffer` and `raw_hazard`; base rows carry `base`.
//! - **region** — where the reference landed in the JVM's address
//!   space, classified through the workload's [`RegionMap`] (`eden`,
//!   `survivor`, `old_gen`, `code`, `lock`, `stack`, `kernel`, or
//!   `other`).
//!
//! The profiler is an observer: it reads the [`StallCharge`](simcpu::StallCharge) the timer
//! already computed, so attaching it perturbs nothing — runs with and
//! without it stay bit-identical in every pre-existing counter and
//! record. Base ("other") cycles are reconstructed at fold time from
//! per-phase retired-instruction counts and the configured base CPI,
//! mirroring what [`CpuTimer::retire`](simcpu::CpuTimer) charges.
//!
//! Stall cycles accumulate in a dense table indexed phase × `(component,
//! cause)` slot × region id, so a charged reference costs one region
//! lookup and two adds, and an uncharged one (most L1 hits, every
//! kernel tick) returns at once. Frame names are formatted only by
//! [`AttribProfiler::folded`].
//!
//! [`AttribProfiler::to_records`] is called on the worker thread after
//! the job body, off the input-order merge, so attribution rides the
//! RunLog's bit-identity discipline at any worker count.

use memsys::{AccessKind, HitLevel, RegionMap};
use probes::registry::{CounterDesc, CounterKind, CounterSet};
use probes::runlog::AttribRecord;

use super::observer::{AccessEvent, AccessSource, SimObserver};

const fn count(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Count)
}

const fn cycles(name: &'static str) -> CounterDesc {
    CounterDesc::new(name, CounterKind::Cycles)
}

static ATTRIB_DESCS: [CounterDesc; 7] = [
    cycles("attrib.cycles"),
    count("attrib.stacks"),
    cycles("attrib.mutator_cycles"),
    cycles("attrib.gc_cycles"),
    cycles("attrib.kernel_cycles"),
    count("attrib.gc_pauses"),
    cycles("attrib.gc_pause_cycles"),
];

/// The phases attribution distinguishes, in fold order.
const PHASES: [&str; 3] = ["mutator", "gc", "kernel"];

/// The `(component, cause)` stall slots, indexed by [`slot_of`]: the
/// instruction-stall causes, then the data-stall causes.
const SLOTS: [(&str, &str); 10] = [
    ("instr_stall", "l1"),
    ("instr_stall", "l2_hit"),
    ("instr_stall", "memory"),
    ("instr_stall", "c2c"),
    ("data_stall", "l1"),
    ("data_stall", "l2_hit"),
    ("data_stall", "memory"),
    ("data_stall", "c2c"),
    ("data_stall", "store_buffer"),
    ("data_stall", "raw_hazard"),
];

/// The first data-stall slot; hit-level causes follow in
/// [`cause_of_level`] order.
const DATA_SLOTS: usize = 4;
const STORE_BUFFER_SLOT: usize = 8;
const RAW_HAZARD_SLOT: usize = 9;

/// Stack frame used for base-execution rows, which have no single
/// memory region.
const ALL_REGIONS: &str = "all";

fn phase_of(source: AccessSource) -> usize {
    match source {
        AccessSource::Workload => 0,
        AccessSource::Collector => 1,
        AccessSource::KernelTick => 2,
    }
}

/// Attributes every charged stall cycle to a
/// `phase;component;cause;region` stack. Attach with
/// `Machine::attach_observer`, redeem after the run, and convert with
/// [`AttribProfiler::to_records`].
#[derive(Debug, Clone)]
pub struct AttribProfiler {
    regions: RegionMap,
    base_cpi: f64,
    /// Charged stall cycles, indexed
    /// `(phase * SLOTS.len() + slot) * regions + region_id`: one
    /// contiguous slice per phase.
    stalls: Vec<u64>,
    /// Retired instructions per phase, for the base ("other") slice.
    instructions: [u64; 3],
    gc_pauses: u64,
    gc_pause_cycles: u64,
}

impl AttribProfiler {
    /// Creates a profiler classifying through `regions` and charging
    /// base execution at `base_cpi` cycles per instruction (pass the
    /// machine's `MachineConfig::pipeline.base_cpi`).
    pub fn new(regions: RegionMap, base_cpi: f64) -> Self {
        let cells = PHASES.len() * SLOTS.len() * regions.names().len();
        AttribProfiler {
            regions,
            base_cpi,
            stalls: vec![0; cells],
            instructions: [0; 3],
            gc_pauses: 0,
            gc_pause_cycles: 0,
        }
    }

    /// Retired instructions in `phase` (`"mutator"`, `"gc"`,
    /// `"kernel"`).
    pub fn phase_instructions(&self, phase: &str) -> u64 {
        phase_index(phase).map_or(0, |i| self.instructions[i])
    }

    /// The folded stacks with their cycle weights, phase-major, base
    /// rows included: the in-memory form of the folded-stack export.
    /// Stall rows come in `(phase, component, cause, region)` order,
    /// then one base row per phase.
    pub fn folded(&self) -> Vec<(String, u64)> {
        let names = self.regions.names();
        let mut cells: Vec<(usize, usize, usize, u64)> = self
            .stalls
            .iter()
            .enumerate()
            .filter(|&(_, &cyc)| cyc > 0)
            .map(|(i, &cyc)| {
                let (row, region) = (i / names.len(), i % names.len());
                (row / SLOTS.len(), row % SLOTS.len(), region, cyc)
            })
            .collect();
        cells.sort_unstable_by_key(|&(phase, slot, region, _)| {
            (phase, SLOTS[slot].0, SLOTS[slot].1, names[region])
        });
        let mut out: Vec<(String, u64)> = cells
            .into_iter()
            .map(|(phase, slot, region, cyc)| {
                let (component, cause) = SLOTS[slot];
                let stack = format!("{};{component};{cause};{}", PHASES[phase], names[region]);
                (stack, cyc)
            })
            .collect();
        for (i, phase) in PHASES.iter().enumerate() {
            let base = self.base_cycles(i);
            if base > 0 {
                out.push((format!("{phase};other;base;{ALL_REGIONS}"), base));
            }
        }
        out
    }

    /// Total cycles attributed across every stack, base included.
    pub fn total_cycles(&self) -> u64 {
        (0..PHASES.len()).map(|i| self.cycles_in(i)).sum()
    }

    /// Cycles attributed to one phase across its stacks.
    pub fn phase_cycles(&self, phase: &str) -> u64 {
        phase_index(phase).map_or(0, |i| self.cycles_in(i))
    }

    /// Converts the fold into RunLog `attrib` records for job
    /// `(run, id)`.
    pub fn to_records(&self, run: usize, id: usize) -> Vec<AttribRecord> {
        self.folded()
            .into_iter()
            .map(|(stack, cycles)| AttribRecord {
                run,
                id,
                stack,
                cycles,
            })
            .collect()
    }

    /// Base-execution cycles of phase `i`, as `CpuTimer::retire`
    /// charges them.
    fn base_cycles(&self, i: usize) -> u64 {
        (self.instructions[i] as f64 * self.base_cpi) as u64
    }

    /// Phase `i`'s slice of the stall table.
    fn phase_stalls(&self, i: usize) -> &[u64] {
        let len = self.stalls.len() / PHASES.len();
        &self.stalls[i * len..(i + 1) * len]
    }

    /// Every cycle attributed to phase `i`, base included.
    fn cycles_in(&self, i: usize) -> u64 {
        self.phase_stalls(i).iter().sum::<u64>() + self.base_cycles(i)
    }

    /// Non-empty stacks of phase `i`, its base row included.
    fn stacks_in(&self, i: usize) -> u64 {
        let stalls = self.phase_stalls(i).iter().filter(|&&c| c > 0).count();
        stalls as u64 + u64::from(self.base_cycles(i) > 0)
    }

    fn charge(&mut self, event: &AccessEvent<'_>) {
        let charge = event.charge;
        if charge.cycles == 0 && charge.raw_cycles == 0 {
            return;
        }
        let regions = self.regions.names().len();
        let row = phase_of(event.source) * SLOTS.len();
        let region = self.regions.region_id(event.addr);
        let slot = slot_of(event.kind, event.outcome.level);
        self.stalls[(row + slot) * regions + region] += charge.cycles;
        self.stalls[(row + RAW_HAZARD_SLOT) * regions + region] += charge.raw_cycles;
    }
}

fn phase_index(phase: &str) -> Option<usize> {
    PHASES.iter().position(|p| *p == phase)
}

/// The [`SLOTS`] index a charged access of `kind` that hit at `level`
/// folds into.
fn slot_of(kind: AccessKind, level: HitLevel) -> usize {
    match kind {
        AccessKind::Ifetch => cause_of_level(level),
        AccessKind::Load => DATA_SLOTS + cause_of_level(level),
        AccessKind::Store => STORE_BUFFER_SLOT,
    }
}

/// Maps a hit level to the paper's stall-cause vocabulary (`l1`,
/// `l2_hit`, `memory`, `c2c`, as offsets into a component's slots).
/// The timer folds upgrade latency into the memory slice, so the fold
/// does too.
fn cause_of_level(level: HitLevel) -> usize {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::Upgrade | HitLevel::Memory => 2,
        HitLevel::CacheToCache => 3,
    }
}

impl SimObserver for AttribProfiler {
    fn on_access(&mut self, event: &AccessEvent<'_>) {
        self.charge(event);
    }

    fn on_instructions(&mut self, _cpu: usize, n: u64, source: AccessSource) {
        self.instructions[phase_of(source)] += n;
    }

    fn on_gc_interval(&mut self, start: u64, end: u64) {
        self.gc_pauses += 1;
        self.gc_pause_cycles += end - start;
    }

    fn on_window_reset(&mut self, _now: u64) {
        self.stalls.fill(0);
        self.instructions = [0; 3];
        self.gc_pauses = 0;
        self.gc_pause_cycles = 0;
    }
}

impl CounterSet for AttribProfiler {
    fn descriptors(&self) -> &'static [CounterDesc] {
        &ATTRIB_DESCS
    }

    fn values(&self, out: &mut Vec<u64>) {
        out.extend([
            self.total_cycles(),
            (0..PHASES.len()).map(|i| self.stacks_in(i)).sum(),
            self.cycles_in(0),
            self.cycles_in(1),
            self.cycles_in(2),
            self.gc_pauses,
            self.gc_pause_cycles,
        ]);
    }
}

/// The attribution counter descriptors, for the drift-policy assembly
/// in [`super::probe::descriptor_tables`].
pub(crate) fn descriptor_table() -> &'static [CounterDesc] {
    &ATTRIB_DESCS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use memsys::{AccessOutcome, Addr, AddrRange};
    use probes::Snapshot;
    use simcpu::StallCharge;

    fn regions() -> RegionMap {
        let mut map = RegionMap::new();
        map.insert(AddrRange::new(Addr(0x1000), 0x1000), "eden");
        map.insert(AddrRange::new(Addr(0x2000), 0x1000), "old_gen");
        map
    }

    fn outcome(level: HitLevel) -> AccessOutcome {
        AccessOutcome {
            level,
            c2c: level == HitLevel::CacheToCache,
            writeback: false,
            mem_cycles: None,
        }
    }

    fn event<'a>(
        kind: AccessKind,
        addr: u64,
        outcome: &'a AccessOutcome,
        source: AccessSource,
        charge: StallCharge,
    ) -> AccessEvent<'a> {
        AccessEvent {
            cpu: 0,
            kind,
            addr: Addr(addr),
            outcome: outcome,
            now: 0,
            source,
            charge,
        }
    }

    #[test]
    fn charges_fold_into_four_frame_stacks() {
        let mut p = AttribProfiler::new(regions(), 1.5);
        let mem = outcome(HitLevel::Memory);
        let c2c = outcome(HitLevel::CacheToCache);
        let charge = |cycles| StallCharge {
            cycles,
            raw_cycles: 0,
        };
        p.on_access(&event(
            AccessKind::Load,
            0x1000,
            &mem,
            AccessSource::Workload,
            charge(75),
        ));
        p.on_access(&event(
            AccessKind::Load,
            0x2000,
            &c2c,
            AccessSource::Workload,
            charge(105),
        ));
        p.on_access(&event(
            AccessKind::Ifetch,
            0x5000,
            &mem,
            AccessSource::Collector,
            charge(75),
        ));
        p.on_access(&event(
            AccessKind::Store,
            0x1040,
            &mem,
            AccessSource::Workload,
            charge(12),
        ));
        // A RAW hazard rides on an otherwise free access.
        p.on_access(&event(
            AccessKind::Load,
            0x1080,
            &outcome(HitLevel::L1),
            AccessSource::Workload,
            StallCharge {
                cycles: 0,
                raw_cycles: 4,
            },
        ));
        let folded = p.folded();
        let get = |stack: &str| folded.iter().find(|(s, _)| s == stack).map(|&(_, c)| c);
        assert_eq!(get("mutator;data_stall;memory;eden"), Some(75));
        assert_eq!(get("mutator;data_stall;c2c;old_gen"), Some(105));
        assert_eq!(get("gc;instr_stall;memory;other"), Some(75));
        assert_eq!(get("mutator;data_stall;store_buffer;eden"), Some(12));
        assert_eq!(get("mutator;data_stall;raw_hazard;eden"), Some(4));
        assert_eq!(p.total_cycles(), 75 + 105 + 75 + 12 + 4);
    }

    #[test]
    fn base_rows_reconstruct_retirement_per_phase() {
        let mut p = AttribProfiler::new(RegionMap::new(), 1.3);
        p.on_instructions(0, 1000, AccessSource::Workload);
        p.on_instructions(1, 200, AccessSource::Collector);
        let folded = p.folded();
        assert_eq!(folded.len(), 2);
        assert!(folded.contains(&("mutator;other;base;all".into(), 1300)));
        assert!(folded.contains(&("gc;other;base;all".into(), 260)));
        assert_eq!(p.phase_instructions("mutator"), 1000);
        assert_eq!(p.phase_cycles("gc"), 260);
    }

    #[test]
    fn counters_match_the_fold_and_reset_with_the_window() {
        let mut p = AttribProfiler::new(regions(), 1.0);
        p.on_instructions(0, 100, AccessSource::Workload);
        let mem = outcome(HitLevel::Memory);
        p.on_access(&event(
            AccessKind::Load,
            0x1000,
            &mem,
            AccessSource::Workload,
            StallCharge {
                cycles: 75,
                raw_cycles: 0,
            },
        ));
        p.on_gc_interval(500, 900);
        let snap = Snapshot::of(&p);
        assert!(snap.names_unique());
        assert_eq!(snap.get("attrib.cycles"), Some(175));
        assert_eq!(snap.get("attrib.stacks"), Some(2));
        assert_eq!(snap.get("attrib.mutator_cycles"), Some(175));
        assert_eq!(snap.get("attrib.gc_cycles"), Some(0));
        assert_eq!(snap.get("attrib.gc_pauses"), Some(1));
        assert_eq!(snap.get("attrib.gc_pause_cycles"), Some(400));
        // The span counter equals the record sum by construction — the
        // invariant `simreport --check` cross-validates.
        let records = p.to_records(0, 0);
        assert_eq!(
            records.iter().map(|r| r.cycles).sum::<u64>(),
            snap.get("attrib.cycles").unwrap()
        );

        p.on_window_reset(1000);
        assert!(p.folded().is_empty());
        assert_eq!(Snapshot::of(&p).get("attrib.gc_pause_cycles"), Some(0));
    }

    /// The reference fold: string-keyed stacks in a `BTreeMap`,
    /// classified by a linear scan of the map's ranges, with every
    /// derived view computed from the formatted stacks. The dense
    /// profiler must agree with it on every output.
    #[derive(Default)]
    struct ReferenceFold {
        regions: Vec<(AddrRange, &'static str)>,
        base_cpi: f64,
        stalls: BTreeMap<(usize, &'static str, &'static str, &'static str), u64>,
        instructions: [u64; 3],
        gc_pauses: u64,
        gc_pause_cycles: u64,
    }

    impl ReferenceFold {
        fn new(regions: &RegionMap, base_cpi: f64) -> Self {
            ReferenceFold {
                regions: regions.entries().collect(),
                base_cpi,
                ..ReferenceFold::default()
            }
        }

        fn classify(&self, addr: Addr) -> &'static str {
            self.regions
                .iter()
                .find(|(r, _)| r.contains(addr))
                .map_or(memsys::OTHER_REGION, |&(_, name)| name)
        }

        fn folded(&self) -> Vec<(String, u64)> {
            let mut out: Vec<(String, u64)> = self
                .stalls
                .iter()
                .map(|(&(phase, component, cause, region), &cyc)| {
                    (
                        format!("{};{component};{cause};{region}", PHASES[phase]),
                        cyc,
                    )
                })
                .collect();
            for (i, phase) in PHASES.iter().enumerate() {
                let base = (self.instructions[i] as f64 * self.base_cpi) as u64;
                if base > 0 {
                    out.push((format!("{phase};other;base;{ALL_REGIONS}"), base));
                }
            }
            out
        }

        fn to_records(&self, run: usize, id: usize) -> Vec<AttribRecord> {
            self.folded()
                .into_iter()
                .map(|(stack, cycles)| AttribRecord {
                    run,
                    id,
                    stack,
                    cycles,
                })
                .collect()
        }
    }

    impl SimObserver for ReferenceFold {
        fn on_access(&mut self, event: &AccessEvent<'_>) {
            let phase = phase_of(event.source);
            let region = self.classify(event.addr);
            let level = match event.outcome.level {
                HitLevel::L1 => "l1",
                HitLevel::L2 => "l2_hit",
                HitLevel::Upgrade | HitLevel::Memory => "memory",
                HitLevel::CacheToCache => "c2c",
            };
            if event.charge.cycles > 0 {
                let (component, cause) = match event.kind {
                    AccessKind::Ifetch => ("instr_stall", level),
                    AccessKind::Load => ("data_stall", level),
                    AccessKind::Store => ("data_stall", "store_buffer"),
                };
                *self
                    .stalls
                    .entry((phase, component, cause, region))
                    .or_insert(0) += event.charge.cycles;
            }
            if event.charge.raw_cycles > 0 {
                *self
                    .stalls
                    .entry((phase, "data_stall", "raw_hazard", region))
                    .or_insert(0) += event.charge.raw_cycles;
            }
        }

        fn on_instructions(&mut self, _cpu: usize, n: u64, source: AccessSource) {
            self.instructions[phase_of(source)] += n;
        }

        fn on_gc_interval(&mut self, start: u64, end: u64) {
            self.gc_pauses += 1;
            self.gc_pause_cycles += end - start;
        }

        fn on_window_reset(&mut self, _now: u64) {
            self.stalls.clear();
            self.instructions = [0; 3];
            self.gc_pauses = 0;
            self.gc_pause_cycles = 0;
        }
    }

    impl CounterSet for ReferenceFold {
        fn descriptors(&self) -> &'static [CounterDesc] {
            &ATTRIB_DESCS
        }

        fn values(&self, out: &mut Vec<u64>) {
            let folded = self.folded();
            let phase_sum = |phase: &str| {
                let prefix = format!("{phase};");
                folded
                    .iter()
                    .filter(|(s, _)| s.starts_with(&prefix))
                    .map(|&(_, c)| c)
                    .sum::<u64>()
            };
            out.extend([
                folded.iter().map(|&(_, c)| c).sum(),
                folded.len() as u64,
                phase_sum("mutator"),
                phase_sum("gc"),
                phase_sum("kernel"),
                self.gc_pauses,
                self.gc_pause_cycles,
            ]);
        }
    }

    fn assert_agrees(dense: &AttribProfiler, oracle: &ReferenceFold) {
        assert_eq!(dense.folded(), oracle.folded());
        assert_eq!(dense.to_records(3, 7), oracle.to_records(3, 7));
        assert_eq!(Snapshot::of(dense), Snapshot::of(oracle));
        let folded = oracle.folded();
        assert_eq!(dense.total_cycles(), folded.iter().map(|&(_, c)| c).sum());
        for phase in PHASES {
            let prefix = format!("{phase};");
            let want: u64 = folded
                .iter()
                .filter(|(s, _)| s.starts_with(&prefix))
                .map(|&(_, c)| c)
                .sum();
            assert_eq!(dense.phase_cycles(phase), want, "{phase}");
        }
    }

    /// Regions whose insertion (id) order differs from their name
    /// order, with one name split over two ranges and one range
    /// registered under the fallback name itself.
    fn scrambled_regions() -> RegionMap {
        let mut map = RegionMap::new();
        map.insert(AddrRange::new(Addr(0x6000), 0x1000), "survivor");
        map.insert(AddrRange::new(Addr(0x1000), 0x1000), "old_gen");
        map.insert(AddrRange::new(Addr(0x3000), 0x1000), memsys::OTHER_REGION);
        map.insert(AddrRange::new(Addr(0x4000), 0x800), "eden");
        map.insert(AddrRange::new(Addr(0x9000), 0x1000), "code");
        map.insert(AddrRange::new(Addr(0xb000), 0x1000), "eden");
        map.insert(AddrRange::new(Addr(0xd000), 0x100), "lock");
        map
    }

    #[test]
    fn dense_fold_matches_the_reference_on_every_event_shape() {
        let regions = scrambled_regions();
        // Every region's first and last byte, the gaps between and
        // around them, and the extremes of the address space.
        let mut addrs: Vec<u64> = vec![0, 0x2800, 0x5000, 0xa000, 0xd100, u64::MAX];
        for (r, _) in regions.entries() {
            addrs.extend([r.start().0, r.end().0 - 1]);
        }
        let kinds = [AccessKind::Ifetch, AccessKind::Load, AccessKind::Store];
        let levels = [
            HitLevel::L1,
            HitLevel::L2,
            HitLevel::Upgrade,
            HitLevel::Memory,
            HitLevel::CacheToCache,
        ];
        let sources = [
            AccessSource::Workload,
            AccessSource::Collector,
            AccessSource::KernelTick,
        ];
        let charges = [
            StallCharge {
                cycles: 75,
                raw_cycles: 0,
            },
            StallCharge {
                cycles: 0,
                raw_cycles: 4,
            },
            StallCharge {
                cycles: 12,
                raw_cycles: 3,
            },
            StallCharge::default(),
        ];
        let mut dense = AttribProfiler::new(regions.clone(), 1.37);
        let mut oracle = ReferenceFold::new(&regions, 1.37);
        let feed = |dense: &mut AttribProfiler, oracle: &mut ReferenceFold, skip: usize| {
            let mut n = 0;
            for &kind in &kinds {
                for &level in &levels {
                    let out = outcome(level);
                    for &source in &sources {
                        for &addr in &addrs {
                            n += 1;
                            if n % skip != 0 {
                                continue;
                            }
                            let charge = charges[n % charges.len()];
                            let ev = event(kind, addr, &out, source, charge);
                            dense.on_access(&ev);
                            oracle.on_access(&ev);
                        }
                    }
                }
            }
        };
        feed(&mut dense, &mut oracle, 1);
        for (cpu, source) in sources.iter().enumerate() {
            dense.on_instructions(cpu, 1000 + cpu as u64, *source);
            oracle.on_instructions(cpu, 1000 + cpu as u64, *source);
        }
        dense.on_gc_interval(100, 350);
        oracle.on_gc_interval(100, 350);
        assert_agrees(&dense, &oracle);
        let stacks = dense.folded().len();
        assert!(stacks > 100, "only {stacks} stacks exercised");

        // A window reset empties both; a sparser second window refills.
        dense.on_window_reset(0);
        oracle.on_window_reset(0);
        assert_agrees(&dense, &oracle);
        feed(&mut dense, &mut oracle, 7);
        assert_agrees(&dense, &oracle);
    }

    #[test]
    fn zero_charges_leave_the_table_all_zero() {
        let mut p = AttribProfiler::new(scrambled_regions(), 1.0);
        for level in [HitLevel::L1, HitLevel::Memory, HitLevel::CacheToCache] {
            let out = outcome(level);
            for kind in [AccessKind::Ifetch, AccessKind::Load, AccessKind::Store] {
                for addr in [0, 0x1000, 0x3000, 0xb000, u64::MAX] {
                    p.on_access(&event(
                        kind,
                        addr,
                        &out,
                        AccessSource::Collector,
                        StallCharge::default(),
                    ));
                }
            }
        }
        assert!(p.stalls.iter().all(|&c| c == 0));
        assert!(p.folded().is_empty());
    }

    #[test]
    fn dense_fold_matches_the_reference_on_a_live_ecperf_run() {
        use crate::experiment::{ecperf_machine, measure, Effort};
        use crate::MachineConfig;
        use workloads::model::Workload;
        let mut m = ecperf_machine(2, 1, Effort::Quick);
        let regions = m.workload().region_map();
        let base_cpi = MachineConfig::e6000(1).pipeline.base_cpi;
        let dense = m.attach_observer(AttribProfiler::new(regions.clone(), base_cpi));
        let oracle = m.attach_observer(ReferenceFold::new(&regions, base_cpi));
        let report = measure(&mut m, Effort::Quick);
        assert!(report.transactions > 0);
        let (dense, oracle) = (m.observer(dense), m.observer(oracle));
        assert!(dense.phase_cycles("gc") > 0, "the window saw no collection");
        assert_agrees(dense, oracle);
    }

    #[test]
    fn zero_charge_l1_hits_attribute_nothing() {
        let mut p = AttribProfiler::new(regions(), 1.0);
        let l1 = outcome(HitLevel::L1);
        p.on_access(&event(
            AccessKind::Load,
            0x1000,
            &l1,
            AccessSource::Workload,
            StallCharge::default(),
        ));
        assert!(p.folded().is_empty());
        assert_eq!(p.total_cycles(), 0);
    }
}
