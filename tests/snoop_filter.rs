//! Differential oracle for the sharer-directory snoop filter.
//!
//! [`MemorySystem::new`] snoops only the L2 groups the exact directory
//! lists as sharers; [`MemorySystem::new_broadcast`] probes every remote
//! group, the textbook behavior. The filter's exactness claim — skipping
//! a cache that does not hold the line cannot change any MOESI outcome —
//! is checked here end-to-end: both systems consume identical seeded
//! streams of mixed loads/stores/ifetches across several `cpus` ×
//! `cpus_per_l2` shapes, with small caches so evictions, upgrades and
//! invalidations churn constantly, and must agree on every per-access
//! outcome, every final statistic, and the coherence state of every
//! touched line. Protocol invariants (single writer, L1 inclusion) and a
//! ground-truth directory audit run along the way. Every reference is
//! stamped with the same advancing requester clock on both systems, so a
//! banked-DRAM shape holds the clocked backend to the same exactness:
//! latency histograms and DRAM row/queue counters must match too.
//!
//! The same seeded stream, captured as a [`SystemTrace`] with a window
//! boundary in the middle, also pins [`SystemTrace::replay_into`] to the
//! hand-written `access`/`reset_stats` loop it stands for.

use java_middleware_memsim::memsys::{
    AccessKind, AccessSource, Addr, BusStats, CacheConfig, Directory, DramConfig, HierarchyConfig,
    HitLevel, LatencyCosts, LineState, MemoryConfig, MemorySystem, SystemTrace,
};
use prng::SimRng;

/// Small hierarchy so the working set below overflows everything: L2s a
/// few hundred lines, L1s a couple dozen.
fn tiny(cpus: usize, cpus_per_l2: usize) -> HierarchyConfig {
    let mut b = HierarchyConfig::builder(cpus);
    b.l1i(CacheConfig::new(1 << 10, 2, 64).unwrap());
    b.l1d(CacheConfig::new(1 << 10, 2, 64).unwrap());
    b.l2(CacheConfig::new(8 << 10, 4, 64).unwrap());
    b.cpus_per_l2(cpus_per_l2);
    b.build().unwrap()
}

const COSTS: LatencyCosts = LatencyCosts {
    l1: 1,
    l2: 10,
    upgrade: 20,
    c2c: 105,
    memory: 75,
};

/// One seeded reference: 35% ifetch, 40% load, 25% store, drawn from a
/// shared region (heavy cross-L2 contention), a per-cpu private region
/// (upgrade/eviction churn), and a hot ping-pong line.
fn next_ref(rng: &mut SimRng, cpus: usize) -> (usize, AccessKind, Addr) {
    let r = rng.next_u64();
    let cpu = (r % cpus as u64) as usize;
    let roll = (r >> 8) % 100;
    let kind = if roll < 35 {
        AccessKind::Ifetch
    } else if roll < 75 {
        AccessKind::Load
    } else {
        AccessKind::Store
    };
    let pick = (r >> 16) % 100;
    let line = (r >> 32) % 192; // > 128-line L2: conflict misses guaranteed
    let addr = if pick < 50 {
        0x1000 + line * 64 // shared region
    } else if pick < 90 {
        0x10_0000 + (cpu as u64) * 0x1_0000 + line * 64 // private region
    } else {
        0x9000 // one hot contended line
    };
    (cpu, kind, Addr(addr))
}

/// Protocol invariants on one line: at most one dirty (M/O) copy, and an
/// M or E copy excludes every other valid copy.
fn check_single_writer(states: &[LineState], addr: Addr) {
    let valid = states.iter().filter(|s| s.is_valid()).count();
    let dirty = states.iter().filter(|s| s.is_dirty()).count();
    let exclusive = states
        .iter()
        .any(|s| matches!(s, LineState::Modified | LineState::Exclusive));
    assert!(dirty <= 1, "two dirty copies of {addr:?}: {states:?}");
    assert!(
        !exclusive || valid == 1,
        "M/E copy of {addr:?} coexists with another valid copy: {states:?}"
    );
}

/// L1 inclusion: a line valid in any of cpu's L1s must be valid in its
/// group's L2.
fn check_inclusion(sys: &MemorySystem, addr: Addr) {
    let states = sys.l2_states(addr);
    for cpu in 0..sys.cpus() {
        if sys.l1_holds(cpu, addr) {
            let group = sys.config().l2_group(cpu);
            assert!(
                states[group].is_valid(),
                "cpu {cpu} holds {addr:?} in L1 but its L2 group {group} does not"
            );
        }
    }
}

fn drive_shape(cpus: usize, cpus_per_l2: usize, steps: u64, seed: u64) {
    drive(tiny(cpus, cpus_per_l2), steps, seed);
}

fn drive(cfg: HierarchyConfig, steps: u64, seed: u64) {
    let cpus = cfg.cpus;
    let mut filtered = MemorySystem::new(cfg);
    let mut broadcast = MemorySystem::new_broadcast(cfg);
    assert_eq!(
        filtered.snoop_filter_enabled(),
        cfg.l2_count() > 1 && cfg.l2_count() <= Directory::MAX_GROUPS
    );
    assert!(!broadcast.snoop_filter_enabled());
    filtered.enable_latency_hist(COSTS);
    broadcast.enable_latency_hist(COSTS);

    let mut rng = SimRng::seed_from_u64(seed);
    // A separate stream for the clock keeps the reference stream of
    // every shape independent of whether its backend reads the clock.
    let mut clock = SimRng::seed_from_u64(!seed);
    let mut now = 0u64;
    let mut touched = std::collections::BTreeSet::new();
    for step in 0..steps {
        let (cpu, kind, addr) = next_ref(&mut rng, cpus);
        touched.insert(addr.0);
        now += clock.next_u64() % 40 + 1;
        filtered.set_now(now);
        broadcast.set_now(now);
        let a = filtered.access(cpu, kind, addr);
        let b = broadcast.access(cpu, kind, addr);
        assert_eq!(
            a, b,
            "outcome diverged at step {step} ({cpu} {kind} {addr:?})"
        );
        check_single_writer(&filtered.l2_states(addr), addr);
        check_inclusion(&filtered, addr);
        if step % 4096 == 0 {
            filtered.audit_directory();
        }
    }
    filtered.audit_directory();

    // Every statistic the protocol produces must match. The snoop fan-out
    // diagnostics are the one legitimate difference — the filter's whole
    // point — so compare the protocol fields individually and check the
    // diagnostic totals cover the same transactions.
    assert_eq!(filtered.stats(), broadcast.stats(), "SystemStats diverged");
    assert_eq!(
        filtered.latency_hist(),
        broadcast.latency_hist(),
        "latency histograms diverged"
    );
    assert_eq!(
        filtered.dram_stats(),
        broadcast.dram_stats(),
        "DRAM row/queue counters diverged"
    );
    let (fb, bb) = (filtered.bus_stats(), broadcast.bus_stats());
    assert_eq!(fb.gets, bb.gets);
    assert_eq!(fb.getx, bb.getx);
    assert_eq!(fb.upgrades, bb.upgrades);
    assert_eq!(fb.snoop_copybacks, bb.snoop_copybacks);
    assert_eq!(fb.writebacks, bb.writebacks);
    assert_eq!(
        fb.snoops_sent + fb.snoops_filtered,
        bb.snoops_sent,
        "filtered and broadcast saw different snoop opportunities"
    );
    if cfg.l2_count() > 1 && cfg.l2_count() <= Directory::MAX_GROUPS {
        assert!(
            fb.snoops_filtered > 0,
            "a contended run at {cpus} cpus should filter something"
        );
    }

    // Final coherence state of every line either system ever touched.
    for &raw in &touched {
        let addr = Addr(raw);
        assert_eq!(
            filtered.l2_states(addr),
            broadcast.l2_states(addr),
            "final L2 states diverged for {addr:?}"
        );
        for cpu in 0..cpus {
            assert_eq!(
                filtered.l1_holds(cpu, addr),
                broadcast.l1_holds(cpu, addr),
                "final L1 residency diverged for cpu {cpu}, {addr:?}"
            );
        }
    }
}

#[test]
fn filtered_matches_broadcast_1_cpu() {
    drive_shape(1, 1, 30_000, 0xD1F);
}

#[test]
fn filtered_matches_broadcast_2_cpus() {
    drive_shape(2, 1, 30_000, 0xD2F);
}

#[test]
fn filtered_matches_broadcast_4_cpus() {
    drive_shape(4, 1, 30_000, 0xD4F);
}

#[test]
fn filtered_matches_broadcast_16_cpus() {
    drive_shape(16, 1, 40_000, 0xD16F);
}

#[test]
fn filtered_matches_broadcast_16_cpus_shared_l2() {
    drive_shape(16, 4, 40_000, 0xD164);
}

#[test]
fn filtered_matches_broadcast_32_l2_groups() {
    // Past the 16-bit sharer field: 32 private-L2 groups run on the
    // broadcast path (drive_shape asserts the filter is off here), which
    // must still match the reference system exactly.
    assert!(32 > Directory::MAX_GROUPS);
    drive_shape(32, 1, 40_000, 0xD32F);
}

#[test]
fn filtered_matches_broadcast_at_exactly_max_groups() {
    // 16 private-L2 groups is the last shape the one-word entry's
    // sharer field tracks, so the filter must still be enabled
    // (drive_shape asserts it) and exact there.
    assert_eq!(Directory::MAX_GROUPS, 16);
    drive_shape(16, 1, 30_000, 0xD16B);
}

#[test]
fn one_past_max_groups_falls_back_to_broadcast() {
    // 17 groups exceeds the bitset: the directory must disengage and the
    // "filtered" system become a plain broadcast one — still exact, and
    // filtering nothing.
    let cfg = tiny(17, 1);
    assert!(cfg.l2_count() > Directory::MAX_GROUPS);
    let filtered = MemorySystem::new(cfg);
    assert!(
        !filtered.snoop_filter_enabled(),
        "past MAX_GROUPS the directory must fall back to broadcast"
    );
    drive_shape(17, 1, 15_000, 0xD17F);
    // drive_shape's snoops_filtered > 0 expectation is gated on the
    // filter being on, so also pin the fallback's observable here.
    let mut sys = MemorySystem::new(tiny(17, 1));
    let mut rng = SimRng::seed_from_u64(0xB17);
    for _ in 0..5_000 {
        let (cpu, kind, addr) = next_ref(&mut rng, 17);
        sys.access(cpu, kind, addr);
    }
    assert_eq!(sys.bus_stats().snoops_filtered, 0);
    assert!(sys.bus_stats().snoops_sent > 0);
}

#[test]
fn filtered_matches_broadcast_4_cpus_one_shared_l2() {
    // Degenerate topology: a single L2 group, nothing to snoop, filter
    // disabled — the fast path must still match broadcast exactly.
    drive_shape(4, 4, 20_000, 0xD44);
}

#[test]
fn filtered_matches_broadcast_4_cpus_banked_dram() {
    // Clock-dependent memory timing: the directory must not perturb the
    // order or stamps of the DRAM requests either.
    let mut cfg = tiny(4, 1);
    cfg.memory = MemoryConfig::BankedDram(DramConfig::default());
    assert!(MemorySystem::new(cfg).needs_clock());
    drive(cfg, 30_000, 0xD3A);
}

/// Drives one L2 set of every group at its residency bound: each group
/// first fills the set with `ways` lines no other group holds, so the
/// set's directory block carries `groups × ways` live entries, then a
/// seeded stream keeps missing into that set — read misses and write
/// misses on private lines (each evicting a victim from a full set)
/// and reads, writes and upgrades on a few lines every group shares.
/// The directory must never overflow its block, must stay exact after
/// every transaction, and the run must match broadcast snooping.
fn drive_full_set(groups: usize, cpus_per_l2: usize, steps: u64, seed: u64) {
    let cfg = tiny(groups * cpus_per_l2, cpus_per_l2);
    let ways = cfg.l2.ways as u64;
    let sets = cfg.l2.sets();
    assert!(cfg.l2_count() <= Directory::MAX_GROUPS);
    const SET: u64 = 5;
    // The `tag`-th line of the target set.
    let line = |tag: u64| Addr((tag * sets + SET) * 64);
    // Private tags: group g owns 2·ways of them. Shared tags follow.
    let private = |g: u64, k: u64| line(g * 2 * ways + k);
    let shared = |k: u64| line(groups as u64 * 2 * ways + k);

    // Valid copies of the target set's lines across all groups: the
    // set's live directory entries once the audit has passed.
    let held = |sys: &MemorySystem| -> usize {
        (0..groups as u64)
            .flat_map(|g| (0..2 * ways).map(move |k| private(g, k)))
            .chain((0..2).map(shared))
            .map(|addr| sys.l2_states(addr).iter().filter(|s| s.is_valid()).count())
            .sum()
    };
    let bound = groups * ways as usize;

    let mut filtered = MemorySystem::new(cfg);
    let mut broadcast = MemorySystem::new_broadcast(cfg);
    assert!(filtered.snoop_filter_enabled());
    let mut refs = Vec::new();
    for g in 0..groups {
        for k in 0..ways {
            refs.push((g * cpus_per_l2, AccessKind::Load, private(g as u64, k)));
        }
    }
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..steps {
        let r = rng.next_u64();
        let cpu = (r % cfg.cpus as u64) as usize;
        let g = (cpu / cpus_per_l2) as u64;
        let kind = if (r >> 8) % 2 == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        let addr = if (r >> 16) % 8 == 0 {
            shared((r >> 24) % 2)
        } else {
            private(g, (r >> 24) % (2 * ways))
        };
        refs.push((cpu, kind, addr));
    }
    let mut misses_at_bound = 0;
    for (i, &(cpu, kind, addr)) in refs.iter().enumerate() {
        let a = filtered.access(cpu, kind, addr);
        let b = broadcast.access(cpu, kind, addr);
        assert_eq!(a, b, "outcome diverged at {i} ({cpu} {kind} {addr:?})");
        if !matches!(a.level, HitLevel::L1 | HitLevel::L2) {
            filtered.audit_directory();
            let live = held(&filtered);
            assert!(live <= bound);
            if live == bound {
                misses_at_bound += 1;
            }
        }
        if i + 1 == groups * ways as usize {
            assert_eq!(held(&filtered), bound, "fill phase left the set short");
        }
    }
    // Shared-line invalidations leave holes, but private misses refill
    // them: the block must have sat at its bound for many transactions.
    assert!(
        misses_at_bound > steps / 20,
        "only {misses_at_bound} misses ran at the residency bound"
    );
    filtered.audit_directory();
    assert_eq!(filtered.stats(), broadcast.stats(), "SystemStats diverged");
    let protocol = |b: &BusStats| [b.gets, b.getx, b.upgrades, b.snoop_copybacks, b.writebacks];
    let fb = filtered.bus_stats();
    assert_eq!(
        protocol(fb),
        protocol(broadcast.bus_stats()),
        "bus transactions diverged"
    );
    assert!(fb.upgrades > 0 && fb.snoop_copybacks > 0, "stream too tame");
}

/// 16 groups × 4 ways = 64 live entries: the block (sized to the next
/// power of two) runs completely full.
#[test]
fn directory_block_holds_a_full_set_at_16_groups() {
    drive_full_set(16, 1, 20_000, 0xF16);
}

/// 12 groups × 4 ways = 48 live entries in a 64-slot block, with two
/// processors per L2 so presence-guided L1 invalidations run too.
#[test]
fn directory_block_holds_a_full_set_at_12_groups() {
    drive_full_set(12, 2, 20_000, 0xF12);
}

/// Captures a seeded stream of `steps` references on `cfg` as a
/// [`SystemTrace`], with a window boundary after reference `reset_after`
/// if given, while running the same stream through the hand-written
/// scalar loop (`access` per reference, `reset_stats` at the marker) on
/// a system with a latency histogram. Returns the trace and that system.
fn capture_with_scalar(
    cfg: HierarchyConfig,
    steps: u64,
    reset_after: Option<u64>,
    seed: u64,
) -> (SystemTrace, MemorySystem) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = SystemTrace::new();
    let mut scalar = MemorySystem::new(cfg);
    scalar.enable_latency_hist(COSTS);
    for i in 0..steps {
        let (cpu, kind, addr) = next_ref(&mut rng, cfg.cpus);
        trace.record_ref(cpu, AccessSource::Workload, kind, addr);
        scalar.access(cpu, kind, addr);
        if Some(i) == reset_after {
            trace.record_window_reset();
            scalar.reset_stats();
        }
    }
    (trace, scalar)
}

/// `trace` replayed into a fresh system with a latency histogram.
fn replayed(cfg: HierarchyConfig, trace: &SystemTrace) -> MemorySystem {
    let mut sys = MemorySystem::new(cfg);
    sys.enable_latency_hist(COSTS);
    trace.replay_into(&mut sys);
    sys
}

fn assert_same_system(a: &MemorySystem, b: &MemorySystem, what: &str) {
    assert_eq!(a.stats(), b.stats(), "{what}: SystemStats diverged");
    assert_eq!(a.bus_stats(), b.bus_stats(), "{what}: BusStats diverged");
    assert_eq!(
        a.latency_hist(),
        b.latency_hist(),
        "{what}: latency histograms diverged"
    );
}

/// Replaying a captured stream is the scalar loop: `replay_into` across
/// a window boundary leaves exactly the statistics, bus counters and
/// latency histogram of `access` per reference plus `reset_stats` at the
/// marker.
#[test]
fn replay_into_matches_the_scalar_loop_across_a_window_reset() {
    let cfg = tiny(4, 1);
    let (trace, scalar) = capture_with_scalar(cfg, 20_000, Some(9_999), 0x7C);
    let replayed = replayed(cfg, &trace);
    assert_same_system(&replayed, &scalar, "4x1 across a window reset");
    assert_eq!(
        replayed.stats().total_accesses(),
        10_000,
        "window reset lost"
    );
}

/// The same contract without a window boundary, across the flat-backend
/// shapes from a uniprocessor to four-way shared L2s.
#[test]
fn replay_into_matches_the_scalar_loop_on_flat_shapes() {
    for (cpus, per, seed) in [(1usize, 1usize, 0xB1u64), (4, 1, 0xB4), (16, 4, 0xB164)] {
        let cfg = tiny(cpus, per);
        let (trace, scalar) = capture_with_scalar(cfg, 25_000, None, seed);
        let replayed = replayed(cfg, &trace);
        assert_same_system(&replayed, &scalar, &format!("{cpus}x{per}"));
        assert_eq!(replayed.stats().total_accesses(), 25_000);
    }
}

/// A capture with a window boundary survives its on-disk bytes: a
/// write/read/write loop reproduces the bytes, and the reloaded trace
/// replays to exactly the original's statistics.
#[test]
fn trace_replay_and_recapture_bytes_are_identical() {
    let cfg = tiny(4, 1);
    let (trace, _) = capture_with_scalar(cfg, 20_000, Some(9_999), 0x7C);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).unwrap();
    let back = SystemTrace::read_from(&bytes[..]).unwrap();
    let mut bytes2 = Vec::new();
    back.write_to(&mut bytes2).unwrap();
    assert_eq!(bytes, bytes2);
    assert_same_system(
        &replayed(cfg, &back),
        &replayed(cfg, &trace),
        "reloaded trace",
    );
}

/// The filter-rate invariant through the counter registry: on every
/// differential shape, `bus.snoops_sent + bus.snoops_filtered` of the
/// filtered system equals the broadcast system's probe count (its
/// `bus.snoops_sent`; nothing is ever filtered there), and the
/// registered `bus.snoop_filter_ppm` ratio reproduces
/// [`java_middleware_memsim::memsys::BusStats::snoop_filter_rate`].
#[test]
fn snapshot_reports_the_filter_invariant() {
    for (cpus, cpus_per_l2, seed) in [(2usize, 1usize, 0xA2u64), (4, 1, 0xA4), (16, 4, 0xA16)] {
        let cfg = tiny(cpus, cpus_per_l2);
        let mut filtered = MemorySystem::new(cfg);
        let mut broadcast = MemorySystem::new_broadcast(cfg);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..20_000 {
            let (cpu, kind, addr) = next_ref(&mut rng, cpus);
            filtered.access(cpu, kind, addr);
            broadcast.access(cpu, kind, addr);
        }
        let fs = filtered.counters();
        let bs = broadcast.counters();
        let sent = fs.get("bus.snoops_sent").unwrap();
        let skipped = fs.get("bus.snoops_filtered").unwrap();
        assert_eq!(
            sent + skipped,
            bs.get("bus.snoops_sent").unwrap(),
            "{cpus}x{cpus_per_l2}: filtered + sent must equal the broadcast probe count"
        );
        assert_eq!(
            bs.get("bus.snoops_filtered"),
            Some(0),
            "a broadcast system never filters"
        );
        let total = sent + skipped;
        let expect_ppm = if total == 0 {
            0
        } else {
            (skipped as f64 / total as f64 * 1e6).round() as u64
        };
        assert_eq!(
            fs.get("bus.snoop_filter_ppm"),
            Some(expect_ppm),
            "registered ratio must match the raw counters"
        );
    }
}

#[test]
fn default_shape_filters_most_snoops() {
    // E6000 geometry, mostly-private traffic: the directory should absorb
    // nearly all broadcast probes, which is the performance story.
    let mut sys = MemorySystem::e6000(16).unwrap();
    let mut rng = SimRng::seed_from_u64(7);
    for _ in 0..200_000 {
        let r = rng.next_u64();
        let cpu = (r % 16) as usize;
        let kind = if (r >> 8) % 4 == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        // 1/16 of traffic shared, the rest private.
        let addr = if (r >> 16) % 16 == 0 {
            0x2000 + ((r >> 32) % 512) * 64
        } else {
            0x100_0000 + (cpu as u64) * 0x10_0000 + ((r >> 32) % 8192) * 64
        };
        sys.access(cpu, kind, Addr(addr));
    }
    let rate = sys.bus_stats().snoop_filter_rate();
    assert!(rate > 0.8, "filter rate {rate:.3} unexpectedly low");
    sys.audit_directory();
}
