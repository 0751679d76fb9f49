//! The coherent multiprocessor memory system.
//!
//! Models the paper's hardware: per-processor split L1 I/D caches backed by
//! unified L2 caches kept coherent with a MOESI write-invalidate snooping
//! protocol over a shared bus. L1 data caches are write-through and
//! no-write-allocate (as on the UltraSPARC II), so coherence state lives
//! entirely in the L2s; L1s hold clean copies and are kept inclusive by
//! invalidation on L2 eviction and remote ownership requests.
//!
//! The same type models the Figure 16 chip-multiprocessor topologies by
//! letting several processors share each L2 ([`HierarchyConfig::cpus_per_l2`]).
//!
//! ## Hot path
//!
//! [`MemorySystem::access`] is the only way a reference enters the
//! system — live runs, trace replay and the sampled fast-forward all
//! call it once per reference — and it is the simulator's throughput
//! ceiling. Its cost is host memory latency more than instructions, so
//! it is built around three structural optimizations that change no
//! statistic:
//!
//! - **Single-lookup accesses.** Each address is decomposed into its
//!   `(set, tag)` key once per cache level ([`Cache::locate`]) and the key
//!   is threaded through every protocol step, so multi-step actions (touch
//!   then upgrade, miss then fill) never walk a set twice. Because every
//!   L2 shares one geometry, the *same* key drives all snoop probes.
//! - **An exact sharer directory** ([`Directory`], the duplicate-tag snoop
//!   filter). Instead of broadcasting every miss to every L2 group, the
//!   system consults a per-line bitset of groups holding a valid copy and
//!   probes only those. Broadcast probes of non-holders are no-ops, so the
//!   filter is bit-identical to broadcast MOESI; [`BusStats::snoops_sent`]
//!   and [`BusStats::snoops_filtered`] record its effectiveness, and
//!   [`MemorySystem::new_broadcast`] builds the unfiltered reference
//!   implementation the differential oracle checks against. Per-line L1
//!   presence masks play the same role one level up: inclusion
//!   invalidations skip processors that never held the line.
//! - **A short L1-hit path and small host footprint.** A load or ifetch
//!   that hits its L1 touches only the L1 set: the processor's L2 group
//!   is a table lookup, and the two long fetches of an L2-bound reference
//!   (the L2 set's way words and the line's directory slot) are issued
//!   only once the L1 has missed, or at entry for stores, which always
//!   reach the L2. The directory packs each entry into one word and
//!   retires a fill's victim before the snoop registers the incoming
//!   line, which bounds each set's block at `groups × ways` entries and
//!   keeps the whole table a size the host's caches can hold (2 MB on
//!   the E6000).

use probes::Histogram;

use crate::addr::Addr;
use crate::backend::{Backend, DramStats, MemoryBackend};
use crate::bus::BusStats;
use crate::cache::Cache;
use crate::config::{ConfigError, HierarchyConfig};
use crate::directory::Directory;
use crate::linestats::LineStats;
use crate::protocol::{BusOp, LineState};
use crate::stats::{AccessKind, AccessOutcome, HitLevel, SystemStats};

/// Caller-supplied per-outcome access costs for latency histogramming.
///
/// The memory system models *what happened* to each reference; how many
/// cycles that costs is the CPU model's business (`simcpu::LatencyTable`),
/// so the costs arrive from outside and this crate stays latency-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyCosts {
    /// Cycles for an L1 hit.
    pub l1: u64,
    /// Cycles for an L2 hit.
    pub l2: u64,
    /// Cycles for a bus upgrade (invalidate-only transaction).
    pub upgrade: u64,
    /// Cycles for a cache-to-cache transfer (snoop copyback).
    pub c2c: u64,
    /// Cycles for a memory fetch.
    pub memory: u64,
}

impl LatencyCosts {
    /// The cost of one outcome level.
    pub fn cost(&self, level: HitLevel) -> u64 {
        match level {
            HitLevel::L1 => self.l1,
            HitLevel::L2 => self.l2,
            HitLevel::Upgrade => self.upgrade,
            HitLevel::CacheToCache => self.c2c,
            HitLevel::Memory => self.memory,
        }
    }
}

/// A full multiprocessor cache hierarchy with snooping coherence.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    /// Each processor's L2 group (`cpu / cpus_per_l2`), precomputed so
    /// the access path does no division.
    group_of: Box<[usize]>,
    /// Exact sharer directory; `None` on broadcast systems, trivial
    /// topologies (a single L2 group has nobody to snoop) and systems
    /// with more groups than [`Directory::MAX_GROUPS`].
    dir: Option<Directory>,
    /// Precomputed L2 geometry for directory keys (`tag << index_bits | set`
    /// is the raw line index every group agrees on).
    l2_index_bits: u32,
    l2_block_bits: u32,
    stats: SystemStats,
    bus: BusStats,
    linestats: Option<LineStats>,
    /// Access-latency histogram (costs supplied by the caller); `None`
    /// until [`MemorySystem::enable_latency_hist`].
    lat_hist: Option<(LatencyCosts, Histogram)>,
    /// The main-memory timing model consulted on every memory fill.
    backend: Backend,
    /// The requesting side's current cycle, fed by [`Self::set_now`] when
    /// the backend's timing depends on it ([`Self::needs_clock`]).
    now: u64,
}

impl MemorySystem {
    /// Builds an empty memory system from a validated configuration, with
    /// the sharer-directory snoop filter and L1 presence tracking enabled
    /// where the topology permits.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemorySystem::build(cfg, /* filtered: */ true)
    }

    /// Builds the broadcast reference implementation: every bus
    /// transaction probes every remote L2, and inclusion invalidations
    /// visit every processor of a group — the pre-filter behavior, kept as
    /// the differential oracle for the snoop filter's exactness claim.
    pub fn new_broadcast(cfg: HierarchyConfig) -> Self {
        MemorySystem::build(cfg, false)
    }

    fn build(cfg: HierarchyConfig, filtered: bool) -> Self {
        let l2_count = cfg.l2_count();
        // Presence masks index CPUs within a group by bit; the directory
        // indexes groups by bit. Either falls back to exhaustive loops
        // (broadcast) where it cannot help — presence for private L2s
        // (the loop is one cpu) or more sharers than a u64 tracks —
        // without affecting results.
        let track_presence = filtered && cfg.cpus_per_l2 > 1 && cfg.cpus_per_l2 <= 64;
        let dir = (filtered && l2_count > 1 && l2_count <= Directory::MAX_GROUPS)
            .then(|| Directory::new(l2_count, cfg.l2.sets() as usize, cfg.l2.ways as usize));
        MemorySystem {
            cfg,
            l1i: (0..cfg.cpus).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..cfg.cpus).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: (0..l2_count)
                .map(|_| {
                    if track_presence {
                        Cache::with_presence(cfg.l2)
                    } else {
                        Cache::new(cfg.l2)
                    }
                })
                .collect(),
            group_of: (0..cfg.cpus).map(|cpu| cfg.l2_group(cpu)).collect(),
            dir,
            l2_index_bits: cfg.l2.sets().trailing_zeros(),
            l2_block_bits: cfg.l2.block_bits(),
            stats: SystemStats::new(cfg.cpus),
            bus: BusStats::new(),
            linestats: None,
            lat_hist: None,
            backend: Backend::from_config(&cfg.memory),
            now: 0,
        }
    }

    /// Convenience constructor: an E6000-like system with `cpus` processors.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cpus` is zero.
    pub fn e6000(cpus: usize) -> Result<Self, ConfigError> {
        Ok(MemorySystem::new(HierarchyConfig::e6000(cpus)?))
    }

    /// The system's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Whether the sharer-directory snoop filter is active.
    pub fn snoop_filter_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Bus transaction statistics.
    pub fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    /// Enables per-line communication tracking (Figures 14/15). Costs one
    /// hash update per reference.
    pub fn enable_line_stats(&mut self) {
        if self.linestats.is_none() {
            self.linestats = Some(LineStats::new());
        }
    }

    /// The per-line tracker, if enabled.
    pub fn line_stats(&self) -> Option<&LineStats> {
        self.linestats.as_ref()
    }

    /// Enables access-latency histogramming: every reference records the
    /// supplied cost of its hit level into a log2-bucketed histogram.
    /// Costs one array increment per reference.
    pub fn enable_latency_hist(&mut self, costs: LatencyCosts) {
        self.lat_hist = Some((costs, Histogram::new()));
    }

    /// The access-latency histogram, if enabled.
    pub fn latency_hist(&self) -> Option<&Histogram> {
        self.lat_hist.as_ref().map(|(_, h)| h)
    }

    /// Whether the memory backend's timing depends on request arrival
    /// times. When `true`, drive [`Self::set_now`] with the requesting
    /// processor's cycle before each [`Self::access`]; when `false`
    /// (flat backends) the clock plumbing can be skipped entirely.
    pub fn needs_clock(&self) -> bool {
        self.backend.needs_clock()
    }

    /// Advances the memory backend's notion of the requester-side clock.
    /// Non-monotonic values are fine (interleaved processor clocks):
    /// backends only ever move forward.
    #[inline]
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// The DRAM backend's event counters, if that backend is configured.
    pub fn dram_stats(&self) -> Option<&DramStats> {
        self.backend.dram_stats()
    }

    /// The DRAM backend's per-fill latency histogram, if kept.
    pub fn dram_queue_hist(&self) -> Option<&Histogram> {
        self.backend.queue_hist()
    }

    /// Drains the memory backend's buffered queue-stall episodes
    /// `(start, end)` for the run-observatory timeline. Empty for
    /// backends without a request queue.
    pub fn take_dram_stall_episodes(&mut self) -> Vec<(u64, u64)> {
        self.backend.take_stall_episodes()
    }

    /// Resets all statistics (caches keep their contents — use this to end
    /// a warm-up phase and start a measurement window).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.bus = BusStats::new();
        if let Some(ls) = &mut self.linestats {
            ls.reset();
        }
        if let Some((_, h)) = &mut self.lat_hist {
            *h = Histogram::new();
        }
        self.backend.reset_stats();
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.cfg.cpus
    }

    /// The directory key for an L2 `(set, tag)` pair: the raw line index,
    /// identical across groups because all L2s share one geometry.
    #[inline]
    fn l2_line_key(&self, set: usize, tag: u64) -> u64 {
        (tag << self.l2_index_bits) | set as u64
    }

    /// Performs one memory reference by processor `cpu` and returns its
    /// outcome. This is the simulator's hot path.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access(&mut self, cpu: usize, kind: AccessKind, addr: Addr) -> AccessOutcome {
        assert!(cpu < self.cfg.cpus, "cpu {cpu} out of range");
        if let Some(ls) = &mut self.linestats {
            ls.record_touch(addr.line());
        }
        let outcome = match kind {
            AccessKind::Ifetch => self.access_through(cpu, addr, /* store: */ false, true),
            AccessKind::Load => self.access_through(cpu, addr, false, false),
            AccessKind::Store => self.access_through(cpu, addr, true, false),
        };
        self.stats.record(cpu, kind, &outcome);
        if let Some((costs, h)) = &mut self.lat_hist {
            h.record(
                outcome
                    .mem_cycles
                    .unwrap_or_else(|| costs.cost(outcome.level)),
            );
        }
        if outcome.c2c {
            if let Some(ls) = &mut self.linestats {
                ls.record_c2c(addr.line());
            }
        }
        outcome
    }

    fn access_through(
        &mut self,
        cpu: usize,
        addr: Addr,
        store: bool,
        ifetch: bool,
    ) -> AccessOutcome {
        let group = self.group_of[cpu];
        if !store {
            let l1 = if ifetch {
                &mut self.l1i[cpu]
            } else {
                &mut self.l1d[cpu]
            };
            let (l1_set, l1_tag) = l1.locate(addr);
            if l1.touch_at(l1_set, l1_tag).is_some() {
                return AccessOutcome::hit(HitLevel::L1);
            }
            let (set, tag) = self.l2[group].locate(addr);
            self.prefetch_l2_side(group, set, addr);
            let outcome = self.read_l2(group, addr, set, tag);
            // The line is now MRU in the group's L2 (hit-promoted or just
            // filled). Fill the L1 — the touch above proved it absent, so
            // insert directly, no probe — and mark this cpu present.
            let l1 = if ifetch {
                &mut self.l1i[cpu]
            } else {
                &mut self.l1d[cpu]
            };
            let _ = l1.insert_at(l1_set, l1_tag, LineState::Shared);
            let bit = 1u64 << (cpu - group * self.cfg.cpus_per_l2);
            self.l2[group].or_presence_mru(set, tag, bit);
            return outcome;
        }

        // Stores: every one reaches the L2, so its fetches start before
        // the write-through L1 update (update only if present, no
        // allocate). Then act on the L2 line's coherence state. A touch
        // hit leaves the line MRU, so the E→M and S/O→M rewrites are O(1).
        let (set, tag) = self.l2[group].locate(addr);
        self.prefetch_l2_side(group, set, addr);
        let l1_hit = self.l1d[cpu].touch(addr).is_some();
        match self.l2[group].touch_at(set, tag) {
            Some(LineState::Modified) => {
                if l1_hit {
                    AccessOutcome::hit(HitLevel::L1)
                } else {
                    AccessOutcome::hit(HitLevel::L2)
                }
            }
            Some(LineState::Exclusive) => {
                // Silent E -> M upgrade, no bus traffic.
                self.l2[group].set_state_mru(set, tag, LineState::Modified);
                if self.dir.is_some() {
                    let key = self.l2_line_key(set, tag);
                    self.dir.as_mut().expect("filtered").set_owner(key, group);
                }
                if l1_hit {
                    AccessOutcome::hit(HitLevel::L1)
                } else {
                    AccessOutcome::hit(HitLevel::L2)
                }
            }
            Some(LineState::Shared) | Some(LineState::Owned) => {
                // Bus upgrade: invalidate all other copies. The snoop
                // updates the directory too (requester becomes sole
                // sharer and owner).
                self.invalidate_remote(group, addr, set, tag);
                self.l2[group].set_state_mru(set, tag, LineState::Modified);
                self.bus.record(BusOp::Upgrade, false);
                AccessOutcome::hit(HitLevel::Upgrade)
            }
            Some(LineState::Invalid) | None => self.write_miss(group, addr, set, tag),
        }
    }

    /// Starts the two long fetches of an access that reaches the L2 —
    /// the group's L2 set words and (on filtered systems) the line's
    /// directory slot — so they overlap the L2 probe instead of
    /// following it. Loads and ifetches issue this only once their L1
    /// has missed: on an L1 hit (most references) both fetches would be
    /// wasted host memory traffic. Hints only; no architectural effect.
    #[inline]
    fn prefetch_l2_side(&self, group: usize, set: usize, addr: Addr) {
        self.l2[group].prefetch_set(set);
        if let Some(dir) = &self.dir {
            dir.prefetch(addr.0 >> self.l2_block_bits);
        }
    }

    fn read_l2(&mut self, group: usize, addr: Addr, set: usize, tag: u64) -> AccessOutcome {
        if self.l2[group].touch_at(set, tag).is_some() {
            return AccessOutcome::hit(HitLevel::L2);
        }
        // L2 read miss: GetS on the bus.
        self.retire_victim_dir(group, set);
        let (supplied, any_remote) = self.snoop_read(group, set, tag);
        self.bus.record(BusOp::GetS, supplied);
        let fill_state = if any_remote {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        let writeback = self.fill_l2(group, set, tag, fill_state);
        AccessOutcome {
            level: if supplied {
                HitLevel::CacheToCache
            } else {
                HitLevel::Memory
            },
            c2c: supplied,
            writeback,
            mem_cycles: if supplied {
                None
            } else {
                self.backend.fetch(addr, self.now)
            },
        }
    }

    fn write_miss(&mut self, group: usize, addr: Addr, set: usize, tag: u64) -> AccessOutcome {
        // GetX: take ownership, invalidating every other copy. A dirty
        // remote owner supplies the data (snoop copyback). No-write-allocate
        // L1: the store completes in the L2 (a stale L1 copy was already
        // updated via the write-through touch).
        self.retire_victim_dir(group, set);
        let supplied = self.snoop_write(group, addr, set, tag);
        self.bus.record(BusOp::GetX, supplied);
        let writeback = self.fill_l2(group, set, tag, LineState::Modified);
        AccessOutcome {
            level: if supplied {
                HitLevel::CacheToCache
            } else {
                HitLevel::Memory
            },
            c2c: supplied,
            writeback,
            mem_cycles: if supplied {
                None
            } else {
                self.backend.fetch(addr, self.now)
            },
        }
    }

    /// Removes the line the coming [`Self::fill_l2`] will evict from
    /// `(group, set)` from the directory, *before* the snoop registers
    /// the incoming line. The snoop only reads and rewrites remote
    /// groups' copies of the requested line, never this set of the
    /// requester's L2, so retiring the victim early changes no outcome;
    /// it is what bounds a directory block at `groups × ways` live
    /// entries (see [`Directory`]).
    #[inline]
    fn retire_victim_dir(&mut self, group: usize, set: usize) {
        if let Some(dir) = &mut self.dir {
            if let Some(victim) = self.l2[group].victim_line_index(set) {
                dir.remove_sharer(victim, group);
            }
        }
    }

    /// Snoops a read: downgrade remote holders, report whether a dirty
    /// remote cache supplied the data and whether any remote copy exists.
    ///
    /// On filtered systems this also registers the requester's imminent
    /// fill: reading the sharer set and adding the requester is one fused
    /// directory access ([`Directory::fetch_and_add`]), since a separate
    /// update would touch the very same entry again.
    fn snoop_read(&mut self, requester: usize, set: usize, tag: u64) -> (bool, bool) {
        let remote = (self.l2.len() - 1) as u64;
        let mut supplied = false;
        if self.dir.is_some() {
            let key = self.l2_line_key(set, tag);
            let sharers = self
                .dir
                .as_mut()
                .expect("filtered")
                .fetch_and_add(key, requester);
            // The requester just missed; an exact directory cannot list
            // it as a prior sharer.
            debug_assert_eq!(sharers & (1 << requester), 0, "missed line has own bit");
            let count = u64::from(sharers.count_ones());
            self.bus.record_snoops(count, remote - count);
            let mut rest = sharers;
            while rest != 0 {
                let g = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let state = self.l2[g]
                    .update_at(set, tag, LineState::after_remote_read)
                    .expect("directory sharer must hold the line");
                if state.supplies_data() {
                    supplied = true;
                }
            }
            (supplied, sharers != 0)
        } else {
            self.bus.record_snoops(remote, 0);
            let mut any = false;
            for g in 0..self.l2.len() {
                if g == requester {
                    continue;
                }
                if let Some(state) = self.l2[g].update_at(set, tag, LineState::after_remote_read) {
                    any = true;
                    if state.supplies_data() {
                        supplied = true;
                    }
                }
            }
            (supplied, any)
        }
    }

    /// Snoops a write: invalidate all remote copies (L2 and the inclusive
    /// L1s above them); returns whether a dirty remote owner supplied data.
    ///
    /// On filtered systems the directory transition is one fused access
    /// ([`Directory::take_exclusive`]): the prior sharer set comes back
    /// for the invalidation loop and the entry is left naming the
    /// requester as sole sharer and owner — no per-remote removals, no
    /// separate fill-side update.
    fn snoop_write(&mut self, requester: usize, addr: Addr, set: usize, tag: u64) -> bool {
        let remote = (self.l2.len() - 1) as u64;
        let mut supplied = false;
        if self.dir.is_some() {
            let key = self.l2_line_key(set, tag);
            let sharers = self
                .dir
                .as_mut()
                .expect("filtered")
                .take_exclusive(key, requester);
            debug_assert_eq!(sharers & (1 << requester), 0, "missed line has own bit");
            let count = u64::from(sharers.count_ones());
            self.bus.record_snoops(count, remote - count);
            let mut rest = sharers;
            while rest != 0 {
                let g = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (state, presence) = self.l2[g]
                    .invalidate_at(set, tag)
                    .expect("directory sharer must hold the line");
                if state.supplies_data() {
                    supplied = true;
                }
                self.invalidate_l1s_of_group(g, addr, presence);
            }
        } else {
            self.bus.record_snoops(remote, 0);
            for g in 0..self.l2.len() {
                if g == requester {
                    continue;
                }
                if let Some((state, _)) = self.l2[g].invalidate_at(set, tag) {
                    if state.supplies_data() {
                        supplied = true;
                    }
                    self.invalidate_l1s_of_group(g, addr, u64::MAX);
                }
            }
        }
        supplied
    }

    /// Invalidates remote L2 + L1 copies (upgrade path). Unlike the miss
    /// snoops, the requester holds the line here, so its directory bit is
    /// legitimately set and masked off the invalidation set; the same
    /// fused [`Directory::take_exclusive`] access leaves the entry
    /// correct (requester sole sharer, now the owner).
    fn invalidate_remote(&mut self, requester: usize, addr: Addr, set: usize, tag: u64) {
        let remote = (self.l2.len() - 1) as u64;
        if self.dir.is_some() {
            let key = self.l2_line_key(set, tag);
            let prior = self
                .dir
                .as_mut()
                .expect("filtered")
                .take_exclusive(key, requester);
            debug_assert_ne!(prior & (1 << requester), 0, "upgrading holder not a sharer");
            let sharers = prior & !(1 << requester);
            let count = u64::from(sharers.count_ones());
            self.bus.record_snoops(count, remote - count);
            let mut rest = sharers;
            while rest != 0 {
                let g = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (_, presence) = self.l2[g]
                    .invalidate_at(set, tag)
                    .expect("directory sharer must hold the line");
                self.invalidate_l1s_of_group(g, addr, presence);
            }
        } else {
            self.bus.record_snoops(remote, 0);
            for g in 0..self.l2.len() {
                if g == requester {
                    continue;
                }
                if self.l2[g].invalidate_at(set, tag).is_some() {
                    self.invalidate_l1s_of_group(g, addr, u64::MAX);
                }
            }
        }
    }

    /// Invalidates `addr` in the L1s of one group's processors, guided by
    /// the L2 line's presence mask: only CPUs whose bit is set are
    /// visited (`u64::MAX` — tracking disabled — visits all of them, the
    /// broadcast behavior). The mask may over-approximate (bits survive
    /// silent L1 evictions); it never under-approximates, which is what
    /// inclusion needs.
    fn invalidate_l1s_of_group(&mut self, group: usize, addr: Addr, mask: u64) {
        if mask == 0 {
            return;
        }
        let per = self.cfg.cpus_per_l2;
        let first = group * per;
        let (si, ti) = self.l1i[first].locate(addr);
        let (sd, td) = self.l1d[first].locate(addr);
        if mask == u64::MAX {
            for cpu in first..first + per {
                let _ = self.l1i[cpu].invalidate_at(si, ti);
                let _ = self.l1d[cpu].invalidate_at(sd, td);
            }
        } else {
            debug_assert_eq!(mask >> (per - 1) >> 1, 0, "presence bit beyond the group");
            let mut rest = mask;
            while rest != 0 {
                let cpu = first + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let _ = self.l1i[cpu].invalidate_at(si, ti);
                let _ = self.l1d[cpu].invalidate_at(sd, td);
            }
        }
    }

    /// Fills the group's L2, handling the victim: dirty victims write back
    /// to memory; all victims are invalidated in the group's L1s to keep
    /// inclusion. Returns whether a writeback occurred.
    ///
    /// Both directory updates already happened: the victim left in
    /// [`Self::retire_victim_dir`] and the fill registered inside the
    /// snoop's fused access.
    fn fill_l2(&mut self, group: usize, set: usize, tag: u64, state: LineState) -> bool {
        let evicted = self.l2[group].insert_at(set, tag, state);
        match evicted {
            Some(victim) => {
                self.invalidate_l1s_of_group(group, victim.line.base(), victim.presence);
                if victim.state.is_dirty() {
                    self.bus.record_writeback();
                    self.backend.writeback(victim.line.base(), self.now);
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// Total bytes of L2 capacity in the system (for reporting).
    pub fn total_l2_capacity(&self) -> u64 {
        self.cfg.l2.capacity * self.l2.len() as u64
    }

    /// The coherence state of `addr` in every L2, by group — diagnostics
    /// and invariant checking (e.g. the single-writer property).
    pub fn l2_states(&self, addr: Addr) -> Vec<LineState> {
        self.l2
            .iter()
            .map(|c| c.probe(addr).unwrap_or(LineState::Invalid))
            .collect()
    }

    /// Whether `addr` is valid in the given processor's L1s (I or D).
    pub fn l1_holds(&self, cpu: usize, addr: Addr) -> bool {
        self.l1i[cpu].probe(addr).is_some() || self.l1d[cpu].probe(addr).is_some()
    }

    /// Audits the sharer directory against the ground truth of the L2
    /// contents: every tracked line's sharer bitset must equal the set of
    /// groups actually holding it valid, and the owner hint must name the
    /// group holding it dirty. O(total L2 capacity) — tests and
    /// diagnostics only. No-op on broadcast systems.
    ///
    /// # Panics
    ///
    /// Panics if the directory and the caches disagree.
    pub fn audit_directory(&self) {
        let Some(dir) = &self.dir else { return };
        let mut expected: std::collections::HashMap<u64, (u64, Option<usize>)> =
            std::collections::HashMap::new();
        for (g, l2) in self.l2.iter().enumerate() {
            for (line, state) in l2.resident() {
                let key = line.base().0 >> self.l2_block_bits;
                let e = expected.entry(key).or_insert((0, None));
                e.0 |= 1 << g;
                if state.is_dirty() {
                    assert!(e.1.is_none(), "two dirty copies of line {key:#x}");
                    e.1 = Some(g);
                }
            }
        }
        assert_eq!(
            dir.lines(),
            expected.len(),
            "directory tracks a different line population than the caches hold"
        );
        for (line, sharers, owner) in dir.iter() {
            let (want_sharers, want_owner) = expected.get(&line).copied().unwrap_or((0, None));
            assert_eq!(sharers, want_sharers, "sharer bitset wrong for {line:#x}");
            assert_eq!(owner, want_owner, "owner hint wrong for {line:#x}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn sys(cpus: usize) -> MemorySystem {
        MemorySystem::e6000(cpus).unwrap()
    }

    #[test]
    fn cold_read_misses_to_memory_then_hits_l1() {
        let mut m = sys(2);
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Memory);
        assert!(!o.c2c);
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::L1);
    }

    #[test]
    fn second_cpu_read_of_clean_line_comes_from_memory() {
        // First reader holds E (clean): no snoop copyback, memory supplies.
        let mut m = sys(2);
        m.access(0, AccessKind::Load, Addr(0x1000));
        let o = m.access(1, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Memory);
        assert!(!o.c2c);
    }

    #[test]
    fn read_of_remotely_dirty_line_is_cache_to_cache() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0x1000)); // cpu0: M
        let o = m.access(1, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::CacheToCache);
        assert!(o.c2c);
        assert_eq!(m.bus_stats().snoop_copybacks, 1);
    }

    #[test]
    fn write_to_shared_line_is_upgrade_and_invalidates_reader() {
        let mut m = sys(2);
        m.access(0, AccessKind::Load, Addr(0x40)); // cpu0: E
        m.access(1, AccessKind::Load, Addr(0x40)); // both S
        let o = m.access(0, AccessKind::Store, Addr(0x40));
        assert_eq!(o.level, HitLevel::Upgrade);
        assert_eq!(m.bus_stats().upgrades, 1);
        // cpu1 must now miss (its copy was invalidated) and receive the
        // dirty data cache-to-cache.
        let o = m.access(1, AccessKind::Load, Addr(0x40));
        assert!(o.c2c, "invalidated reader re-fetches from dirty owner");
    }

    #[test]
    fn store_to_owned_line_is_upgrade_and_invalidates_reader() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0x1000)); // cpu0: M
        m.access(0, AccessKind::Store, Addr(0x1000)); // M hit, no bus
        assert_eq!(m.bus_stats().upgrades, 0);
        m.access(1, AccessKind::Load, Addr(0x1000)); // remote read: M -> O
        assert_eq!(m.l2_states(Addr(0x1000))[0], LineState::Owned);
        let o = m.access(0, AccessKind::Store, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Upgrade, "O -> M needs the bus");
        assert_eq!(m.bus_stats().upgrades, 1);
        // The upgrade invalidated cpu1's copy: it refetches from the
        // dirty owner.
        let o = m.access(1, AccessKind::Load, Addr(0x1000));
        assert!(o.c2c, "invalidated reader re-fetches from dirty owner");
    }

    #[test]
    fn silent_e_to_m_upgrade_costs_no_bus_transaction() {
        let mut m = sys(2);
        m.access(0, AccessKind::Load, Addr(0x40)); // E
        let before = m.bus_stats().total_transactions();
        let o = m.access(0, AccessKind::Store, Addr(0x40));
        assert_ne!(o.level, HitLevel::Upgrade);
        assert_eq!(m.bus_stats().total_transactions(), before);
    }

    #[test]
    fn write_miss_of_remote_dirty_line_transfers_and_invalidates() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0x80)); // cpu0: M
        let o = m.access(1, AccessKind::Store, Addr(0x80)); // GetX
        assert_eq!(o.level, HitLevel::CacheToCache);
        // cpu0's copy is gone: reading it back must go c2c from cpu1.
        let o = m.access(0, AccessKind::Load, Addr(0x80));
        assert!(o.c2c);
    }

    #[test]
    fn ping_pong_write_sharing_counts_c2c_per_bounce() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, Addr(0xc0));
        for i in 0..10 {
            let cpu = 1 - (i % 2);
            let o = m.access(cpu, AccessKind::Store, Addr(0xc0));
            assert!(o.c2c, "bounce {i} should be a cache-to-cache transfer");
        }
        assert_eq!(m.stats().total_c2c(), 10);
    }

    #[test]
    fn shared_l2_eliminates_coherence_traffic_within_group() {
        let mut b = HierarchyConfig::builder(2);
        let cfg = b.cpus_per_l2(2).build().unwrap();
        let mut m = MemorySystem::new(cfg);
        m.access(0, AccessKind::Store, Addr(0x100));
        let o = m.access(1, AccessKind::Load, Addr(0x100));
        assert_eq!(o.level, HitLevel::L2, "same-L2 neighbor hits shared cache");
        assert_eq!(m.stats().total_c2c(), 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        // Tiny L2 to force evictions quickly.
        let mut b = HierarchyConfig::builder(1);
        b.l2(CacheConfig::new(512, 2, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut m = MemorySystem::new(b.build().unwrap());
        // Dirty a line, then stream conflicting lines through its set.
        m.access(0, AccessKind::Store, Addr(0));
        let sets = 512 / (2 * 64);
        let stride = (sets * 64) as u64;
        for i in 1..=3u64 {
            m.access(0, AccessKind::Load, Addr(i * stride));
        }
        assert!(
            m.bus_stats().writebacks >= 1,
            "dirty victim must write back"
        );
    }

    #[test]
    fn l1_inclusion_after_l2_eviction() {
        let mut b = HierarchyConfig::builder(1);
        b.l2(CacheConfig::new(512, 2, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut m = MemorySystem::new(b.build().unwrap());
        m.access(0, AccessKind::Load, Addr(0));
        let sets = 512 / (2 * 64);
        let stride = (sets * 64) as u64;
        // Evict line 0 from L2 via conflicting fills.
        for i in 1..=2u64 {
            m.access(0, AccessKind::Load, Addr(i * stride));
        }
        // The L1 copy must have been invalidated with it: this access
        // cannot be an L1 hit.
        let o = m.access(0, AccessKind::Load, Addr(0));
        assert_ne!(o.level, HitLevel::L1, "inclusion violated");
    }

    #[test]
    fn line_stats_track_touches_and_c2c() {
        let mut m = sys(2);
        m.enable_line_stats();
        m.access(0, AccessKind::Store, Addr(0x1000));
        m.access(1, AccessKind::Load, Addr(0x1000));
        m.access(0, AccessKind::Load, Addr(0x2000));
        let ls = m.line_stats().unwrap();
        assert_eq!(ls.touched_lines(), 2);
        assert_eq!(ls.total_c2c(), 1);
    }

    #[test]
    fn latency_hist_records_caller_supplied_costs() {
        let costs = LatencyCosts {
            l1: 1,
            l2: 10,
            upgrade: 20,
            c2c: 105,
            memory: 75,
        };
        let mut m = sys(2);
        m.enable_latency_hist(costs);
        m.access(0, AccessKind::Store, Addr(0x1000)); // memory (GetX miss)
        m.access(1, AccessKind::Load, Addr(0x1000)); // c2c
        m.access(1, AccessKind::Load, Addr(0x1000)); // L1 hit
        let h = m.latency_hist().unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 75 + 105 + 1);
        assert!(h.p99() >= 105, "slowest access dominates the tail");
        // A stats reset clears the histogram but keeps it enabled.
        m.reset_stats();
        let h = m.latency_hist().unwrap();
        assert!(h.is_empty());
        m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(m.latency_hist().unwrap().count(), 1);
    }

    #[test]
    fn reset_stats_keeps_cache_contents() {
        let mut m = sys(1);
        m.access(0, AccessKind::Load, Addr(0x40));
        m.reset_stats();
        assert_eq!(m.stats().total_accesses(), 0);
        let o = m.access(0, AccessKind::Load, Addr(0x40));
        assert_eq!(o.level, HitLevel::L1, "warm cache survives stats reset");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cpu_panics() {
        let mut m = sys(1);
        m.access(1, AccessKind::Load, Addr(0));
    }

    #[test]
    fn filter_skips_uncontended_misses() {
        let mut m = sys(16);
        assert!(m.snoop_filter_enabled());
        // Nobody holds this line: the GetS probes zero remote L2s and the
        // filter absorbs all 15 would-be snoops.
        m.access(0, AccessKind::Load, Addr(0x4000));
        assert_eq!(m.bus_stats().snoops_sent, 0);
        assert_eq!(m.bus_stats().snoops_filtered, 15);
        // One actual sharer: exactly one probe goes out.
        m.access(1, AccessKind::Load, Addr(0x4000));
        assert_eq!(m.bus_stats().snoops_sent, 1);
        assert_eq!(m.bus_stats().snoops_filtered, 29);
        assert!(m.bus_stats().snoop_filter_rate() > 0.9);
        m.audit_directory();
    }

    #[test]
    fn broadcast_system_filters_nothing() {
        let mut m = MemorySystem::new_broadcast(HierarchyConfig::e6000(4).unwrap());
        assert!(!m.snoop_filter_enabled());
        m.access(0, AccessKind::Load, Addr(0x4000));
        m.access(1, AccessKind::Store, Addr(0x4000));
        assert_eq!(m.bus_stats().snoops_filtered, 0);
        assert_eq!(m.bus_stats().snoops_sent, 6);
        m.audit_directory(); // no-op, must not panic
    }

    #[test]
    fn directory_stays_exact_through_upgrades_and_evictions() {
        let mut b = HierarchyConfig::builder(4);
        b.l2(CacheConfig::new(512, 2, 64).unwrap());
        b.l1i(CacheConfig::new(256, 2, 64).unwrap());
        b.l1d(CacheConfig::new(256, 2, 64).unwrap());
        let mut m = MemorySystem::new(b.build().unwrap());
        // Share a line everywhere, upgrade it, then churn the set to force
        // evictions; the directory must match the caches at every stage.
        for cpu in 0..4 {
            m.access(cpu, AccessKind::Load, Addr(0x40));
        }
        m.audit_directory();
        m.access(2, AccessKind::Store, Addr(0x40));
        m.audit_directory();
        for i in 1..=6u64 {
            m.access(0, AccessKind::Load, Addr(0x40 + i * 256));
        }
        m.audit_directory();
    }

    #[test]
    fn flat_backend_defers_memory_cost() {
        let mut m = sys(1);
        assert!(!m.needs_clock());
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.mem_cycles, None, "default backend defers to the table");
        assert!(m.dram_stats().is_none());
    }

    #[test]
    fn fixed_backend_stamps_memory_fills_only() {
        use crate::config::MemoryConfig;
        let mut b = HierarchyConfig::builder(2);
        b.memory(MemoryConfig::FlatFixed(75));
        let mut m = MemorySystem::new(b.build().unwrap());
        let o = m.access(0, AccessKind::Load, Addr(0x1000));
        assert_eq!(o.mem_cycles, Some(75));
        let o = m.access(0, AccessKind::Load, Addr(0x1000)); // L1 hit
        assert_eq!(o.mem_cycles, None);
        m.access(0, AccessKind::Store, Addr(0x2000)); // dirty it
        let o = m.access(1, AccessKind::Load, Addr(0x2000)); // c2c
        assert_eq!(o.level, HitLevel::CacheToCache);
        assert_eq!(o.mem_cycles, None, "cache-supplied data skips memory");
    }

    #[test]
    fn dram_backend_stamps_load_dependent_costs_and_counts() {
        use crate::config::{DramConfig, MemoryConfig};
        let mut b = HierarchyConfig::builder(1);
        b.memory(MemoryConfig::BankedDram(DramConfig::default()));
        let mut m = MemorySystem::new(b.build().unwrap());
        assert!(m.needs_clock());
        let mut now = 0;
        for i in 0..64u64 {
            m.set_now(now);
            let o = m.access(0, AccessKind::Load, Addr(0x10_0000 + i * 64));
            assert_eq!(o.level, HitLevel::Memory);
            assert!(o.mem_cycles.is_some(), "DRAM stamps every memory fill");
            now += 200;
        }
        let d = m.dram_stats().unwrap();
        assert_eq!(d.reads, 64);
        assert!(d.row_hits > 0, "sequential lines share rows");
        assert_eq!(m.dram_queue_hist().unwrap().count(), 64);
        // reset_stats clears the DRAM panel with everything else.
        m.reset_stats();
        assert_eq!(m.dram_stats().unwrap().reads, 0);
        assert!(m.dram_queue_hist().unwrap().is_empty());
    }

    #[test]
    fn presence_mask_limits_inclusion_invalidations() {
        // Shared L2 among 4 cpus: only cpu 3 reads the line, so only its
        // L1 may hold it; a remote write must still invalidate it.
        let mut b = HierarchyConfig::builder(8);
        b.cpus_per_l2(4);
        let mut m = MemorySystem::new(b.build().unwrap());
        m.access(3, AccessKind::Load, Addr(0x2000));
        assert!(m.l1_holds(3, Addr(0x2000)));
        m.access(4, AccessKind::Store, Addr(0x2000)); // remote group GetX
        assert!(!m.l1_holds(3, Addr(0x2000)), "inclusion invalidation lost");
        m.audit_directory();
    }
}
