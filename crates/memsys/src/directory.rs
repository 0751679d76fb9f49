//! An exact sharer directory: the snoop filter.
//!
//! Snooping buses broadcast every miss to every cache, but most probes
//! find nothing — in SPECjbb's warehouse-local phase the overwhelming
//! majority of misses are to lines no other L2 holds. Real snoop filters
//! (duplicate-tag or JETTY-style) sit beside the bus and answer "who
//! could hold this line?" so only actual sharers are probed. This module
//! is the simulator's equivalent: a per-line map from coherence-unit
//! line index to a bitset of L2 groups holding a *valid* copy, plus an
//! owner hint (the group whose copy is dirty — Modified or Owned).
//!
//! The directory is **exact**, not conservative: a bit is set if and
//! only if that group's L2 holds the line in a valid state. Exactness is
//! cheap because residency changes at only three points — fills, their
//! evictions, and invalidations — and the memory system already executes
//! code at each. It is also what makes filtering *trivially*
//! bit-identical to broadcast: a broadcast probe of a cache that does
//! not hold the line is a no-op (no state change, no data supplied), so
//! skipping exactly those probes cannot change any MOESI outcome. The
//! differential oracle in `tests/snoop_filter.rs` checks this claim
//! end-to-end against
//! [`MemorySystem::new_broadcast`](crate::system::MemorySystem::new_broadcast).
//!
//! ## Shape of the structure
//!
//! A directory entry is touched on every L2 miss, so its constant factor
//! *is* the optimization; two tempting shapes lose to memory behavior:
//!
//! - A general hash map (boxed pages or SipHash buckets) costs a chain
//!   of *dependent* loads per operation — hash, bucket, entry — and a
//!   miss performs several operations. Dependent random loads serialize
//!   at full memory latency each.
//! - Duplicate tag arrays (one scan block per set, hardware style) make
//!   every operation land in one place, but the block is `groups × ways`
//!   slots scanned in full: at 16 groups a single sharer query streams
//!   half a kilobyte, and line-fetch bandwidth — not latency — becomes
//!   the wall.
//!
//! The layout here takes the *addressing* of the first and the
//! *placement* of the second. Every L2 has the same geometry, so a line
//! maps to the same set index in each of them; the directory therefore
//! keeps one small open-addressed block per set (linear probing over
//! one-word entries, backward-shift deletion, Fibonacci-hashed by tag),
//! sized to the set's residency bound `groups × ways`. A lookup is one
//! multiplicative hash and typically one cache-line touch with no
//! pointer chase.
//!
//! Placement by set is what makes the *miss path* cheap. A fill and its
//! eviction touch two directory entries — the incoming line's and the
//! victim's — and the victim, by definition, maps to the same set. In a
//! set-blocked table both entries sit in the same few-hundred-byte
//! block: one page translation covers both (with a flat global table
//! each touch was a separate TLB-missing page walk, and page-walk
//! throughput — not line latency — was the measured wall at 16 CPUs),
//! and the access path's entry prefetch ([`Directory::prefetch`]) pulls
//! the block's home line into cache while the L2 probe runs.
//!
//! ## Entry format and block sizing
//!
//! Each entry is one `u64`: a 43-bit line tag, a 5-bit owner group
//! (`31` = no dirty copy) and a 16-bit sharer bitset, tag highest. A free
//! slot is the all-ones word (tag field `KEY_LIMIT`, which no live line
//! carries). One word per entry keeps the table small enough for the
//! host's caches — the E6000's 4096 L2 sets × 64 slots × 8 B is 2 MB —
//! and the access path's cost is dominated by host load latency, which
//! grows several-fold once a randomly touched working set outgrows the
//! host's last-level cache. The price is the 16-bit sharer field:
//! systems with more than [`Directory::MAX_GROUPS`] L2 groups use exact
//! broadcast snooping.
//!
//! A block holds the set's residency bound, `groups × ways`, rounded up
//! to a power of two. The memory system retires a fill's victim
//! ([`Directory::remove_sharer`]) *before* the snoop registers the
//! incoming line, so a set's entries never exceed that bound, not even
//! for the length of one miss. (The snoop touches only remote groups'
//! copies of the requested line, never the requester's set, so the early
//! retirement changes no protocol outcome.) A block can be full; probes
//! are bounded by the block size, so lookups of absent lines still
//! terminate, and an insert always finds a slot because it only happens
//! once the requester's own lines of the set number fewer than `ways`.
//!
//! The protocol paths use fused read-modify operations so an entire miss
//! costs about two entry touches: [`Directory::fetch_and_add`] answers
//! the read-snoop query and records the requester's imminent fill in one
//! access; [`Directory::take_exclusive`] does the same for write misses
//! and upgrades (returning the sharers to invalidate while installing
//! the requester as sole owner); retiring the fill's victim
//! ([`Directory::remove_sharer`]) is the one extra touch — in the same
//! block.

/// Bits of an entry holding the sharer bitset (the lowest bits).
const SHARER_BITS: u32 = 16;
const SHARER_MASK: u64 = (1 << SHARER_BITS) - 1;
/// Bits of the owner field, just above the sharers.
const OWNER_BITS: u32 = 5;
const OWNER_SHIFT: u32 = SHARER_BITS;
/// Owner-field value meaning "no dirty copy anywhere".
const NO_OWNER: u64 = (1 << OWNER_BITS) - 1;
const OWNER_MASK: u64 = NO_OWNER << OWNER_SHIFT;
/// Where the line tag starts.
const KEY_SHIFT: u32 = OWNER_SHIFT + OWNER_BITS;

/// Largest representable tag; reserved as the free-slot sentinel (a free
/// slot is the all-ones word). Tags must stay below this — 43 tag bits
/// above the set index and block offset cover far more physical address
/// space than anything the simulated machines touch.
const KEY_LIMIT: u64 = (1 << (64 - KEY_SHIFT)) - 1;

/// Free-slot word: all ones (tag field [`KEY_LIMIT`], which no live
/// entry can carry).
const EMPTY: u64 = u64::MAX;

/// High-entropy odd multiplier (2^64 / phi): Fibonacci hashing mixes the
/// sequential tags simulators produce into uniform top bits.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn word_key(w: u64) -> u64 {
    w >> KEY_SHIFT
}

#[inline]
fn word_owner(w: u64) -> u64 {
    (w & OWNER_MASK) >> OWNER_SHIFT
}

#[inline]
fn pack(key: u64, owner: u64, sharers: u64) -> u64 {
    debug_assert!(key < KEY_LIMIT && owner <= NO_OWNER && sharers <= SHARER_MASK);
    (key << KEY_SHIFT) | (owner << OWNER_SHIFT) | sharers
}

/// Exact per-line sharer tracking for up to [`Directory::MAX_GROUPS`] L2
/// groups, blocked by cache set.
#[derive(Debug, Clone)]
pub struct Directory {
    /// One packed `tag | owner | sharers` word per entry.
    slots: Vec<u64>,
    /// Entries per set block minus one; the block size is a power of two.
    bmask: usize,
    /// `64 - log2(block size)`: multiplicative hashing indexes with the
    /// top bits, where the mixing is strongest.
    shift: u32,
    /// `sets - 1` (set count is a power of two), for line → set.
    set_mask: u64,
    /// `log2(sets)`, for line → tag and back.
    index_bits: u32,
    live: usize,
}

impl Directory {
    /// Largest group count an entry's sharer field can track. Systems
    /// with more L2 groups use broadcast snooping (see `MemorySystem`).
    pub const MAX_GROUPS: usize = SHARER_BITS as usize;

    /// Creates an empty directory for `groups` L2 groups whose caches
    /// all have `sets` sets of `ways` ways — identical geometry is what
    /// lets entries be blocked by set.
    ///
    /// # Panics
    ///
    /// Panics if `groups` exceeds [`Directory::MAX_GROUPS`], `sets` is
    /// not a power of two, or `ways` is zero.
    pub fn new(groups: usize, sets: usize, ways: usize) -> Self {
        assert!(
            groups <= Directory::MAX_GROUPS,
            "sharer bitset holds at most {} groups",
            Directory::MAX_GROUPS
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "caches need at least one way");
        // At most `groups * ways` lines of one set are resident at once,
        // and victims retire before fills register (module docs), so
        // that bound sizes the block. The floor of two keeps `shift`
        // below 64, where `wrapping_shr` would shift by zero.
        let block = (groups * ways).next_power_of_two().max(2);
        let cap = sets * block;
        // The table is touched at random; huge pages keep those touches
        // from also missing the TLB (which would drop the access path's
        // prefetches — see `crate::mem`).
        let slots = crate::mem::huge_vec(cap, EMPTY);
        Directory {
            slots,
            bmask: block - 1,
            shift: 64 - block.trailing_zeros(),
            set_mask: sets as u64 - 1,
            index_bits: sets.trailing_zeros(),
            live: 0,
        }
    }

    /// Home entry of a line: its set's block, at the tag's hash.
    #[inline]
    fn home(&self, line: u64) -> usize {
        let base = (line & self.set_mask) as usize * (self.bmask + 1);
        base + (line >> self.index_bits)
            .wrapping_mul(HASH_MUL)
            .wrapping_shr(self.shift) as usize
    }

    /// Hints the CPU to pull `line`'s home slot toward L1, in writable
    /// state (directory touches nearly always write). The directory is
    /// consulted only after the local L1/L2 probes have concluded a bus
    /// transaction is needed; issuing this once the L1 has missed
    /// overlaps the table's random (latency-bound) line fetch with the L2
    /// probe, so the eventual [`Self::fetch_and_add`] /
    /// [`Self::take_exclusive`] finds its slot already resident. Purely a
    /// hint — correctness and statistics are unaffected.
    #[inline]
    pub fn prefetch(&self, line: u64) {
        // A discarded volatile load rather than a prefetch instruction:
        // hardware drops software prefetches whose page translation
        // misses the TLB, and a multi-megabyte randomly-indexed table is
        // exactly where that happens. A real load cannot be dropped, its
        // result gates nothing, and the out-of-order core performs the
        // page walk and line fetch in the shadow of the L2 probe.
        // The PREFETCHW that follows (now translation-warm, so it will
        // not be dropped) upgrades the fetch to ownership.
        unsafe {
            let p = self.slots.as_ptr().add(self.home(line));
            std::ptr::read_volatile(p.cast::<u8>());
            crate::mem::prefetch_write(p.cast());
        }
    }

    /// Finds `line`'s entry index, or the free entry where it would go
    /// (`None` if its block is full of other lines).
    ///
    /// # Panics
    ///
    /// Panics if `line`'s tag exceeds the 43-bit key space — silently
    /// aliasing two lines would corrupt statistics, so the bound is
    /// enforced even in release builds.
    #[inline]
    fn probe(&self, line: u64) -> (Option<usize>, bool) {
        let tag = line >> self.index_bits;
        assert!(tag < KEY_LIMIT, "line tag exceeds the 43-bit key space");
        let base = (line & self.set_mask) as usize * (self.bmask + 1);
        let mut o = tag.wrapping_mul(HASH_MUL).wrapping_shr(self.shift) as usize;
        for _ in 0..=self.bmask {
            let k = word_key(self.slots[base + o]);
            if k == tag {
                return (Some(base + o), true);
            }
            if k == KEY_LIMIT {
                return (Some(base + o), false);
            }
            o = (o + 1) & self.bmask;
        }
        (None, false)
    }

    /// Bitset of groups holding a valid copy of `line` (bit `g` ⇔ group
    /// `g` is a sharer). Zero for untracked lines.
    #[inline]
    pub fn sharers(&self, line: u64) -> u64 {
        match self.probe(line) {
            (Some(i), true) => self.slots[i] & SHARER_MASK,
            _ => 0,
        }
    }

    /// The group holding `line` dirty (Modified or Owned), if any.
    pub fn owner(&self, line: u64) -> Option<usize> {
        match self.probe(line) {
            (Some(i), true) => {
                let owner = word_owner(self.slots[i]);
                (owner != NO_OWNER).then_some(owner as usize)
            }
            _ => None,
        }
    }

    /// Returns `line`'s sharer bitset and adds `group` to it — the read
    /// miss's snoop query and fill registration fused into one entry
    /// touch.
    #[inline]
    pub fn fetch_and_add(&mut self, line: u64, group: usize) -> u64 {
        let (slot, found) = self.probe(line);
        let i = slot.expect("directory set block overfull");
        if found {
            let w = self.slots[i];
            self.slots[i] = w | 1u64 << group;
            w & SHARER_MASK
        } else {
            self.slots[i] = pack(line >> self.index_bits, NO_OWNER, 1u64 << group);
            self.live += 1;
            0
        }
    }

    /// Returns `line`'s sharer bitset and makes `group` its sole sharer
    /// and owner — the write miss / upgrade fused update (the caller
    /// invalidates the other copies the returned bitset names).
    #[inline]
    pub fn take_exclusive(&mut self, line: u64, group: usize) -> u64 {
        let (slot, found) = self.probe(line);
        let i = slot.expect("directory set block overfull");
        let prior = if found {
            self.slots[i] & SHARER_MASK
        } else {
            self.live += 1;
            0
        };
        self.slots[i] = pack(line >> self.index_bits, group as u64, 1u64 << group);
        prior
    }

    /// Marks `group` as the dirty owner of `line`, which must already be
    /// tracked as a sharer (the silent E→M upgrade).
    #[inline]
    pub fn set_owner(&mut self, line: u64, group: usize) {
        let (slot, found) = self.probe(line);
        debug_assert!(found, "owner update for an untracked line");
        if let (Some(i), true) = (slot, found) {
            let w = self.slots[i];
            debug_assert_ne!(w & 1u64 << group, 0, "owner must be a sharer");
            self.slots[i] = (w & !OWNER_MASK) | (group as u64) << OWNER_SHIFT;
        }
    }

    /// Removes `group` from `line`'s sharers; the owner hint is cleared
    /// when the owner leaves and the entry is deleted (backward-shift,
    /// no tombstones) when its last sharer leaves.
    #[inline]
    pub fn remove_sharer(&mut self, line: u64, group: usize) {
        let (slot, found) = self.probe(line);
        if !found {
            debug_assert!(false, "removing a sharer of an untracked line");
            return;
        }
        let i = slot.unwrap();
        let mut w = self.slots[i] & !(1u64 << group);
        if w & SHARER_MASK == 0 {
            self.live -= 1;
            self.delete(i);
            return;
        }
        if word_owner(w) == group as u64 {
            w |= OWNER_MASK;
        }
        self.slots[i] = w;
    }

    /// Backward-shift deletion for linear probing, confined to the
    /// hole's set block: walk the cluster after the hole and pull back
    /// any entry whose home does not lie strictly inside the gap —
    /// leaving every remaining entry reachable from its home without
    /// tombstones.
    fn delete(&mut self, slot: usize) {
        let base = slot & !self.bmask;
        let mut hole = slot - base;
        let mut j = hole;
        loop {
            self.slots[base + hole] = EMPTY;
            loop {
                j = (j + 1) & self.bmask;
                let w = self.slots[base + j];
                let k = word_key(w);
                if k == KEY_LIMIT {
                    return;
                }
                let h = k.wrapping_mul(HASH_MUL).wrapping_shr(self.shift) as usize;
                // The entry at j may stay iff its home lies cyclically in
                // (hole, j]; otherwise the probe chain breaks and it
                // must move into the hole.
                let stays = if hole <= j {
                    h > hole && h <= j
                } else {
                    h > hole || h <= j
                };
                if !stays {
                    self.slots[base + hole] = w;
                    hole = j;
                    break;
                }
            }
        }
    }

    /// Number of lines currently tracked (at least one sharer).
    pub fn lines(&self) -> usize {
        self.live
    }

    /// Iterates over `(line, sharers, owner)` for every tracked line
    /// (directory audits; walks the whole table).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, Option<usize>)> + '_ {
        let block = self.bmask + 1;
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != EMPTY)
            .map(move |(e, &w)| {
                let set = (e / block) as u64;
                let owner = word_owner(w);
                (
                    word_key(w) << self.index_bits | set,
                    w & SHARER_MASK,
                    (owner != NO_OWNER).then_some(owner as usize),
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_and_add_tracks_sharers() {
        let mut d = Directory::new(8, 16, 4);
        assert_eq!(d.fetch_and_add(100, 3), 0);
        assert_eq!(d.fetch_and_add(100, 5), 0b1000);
        assert_eq!(d.sharers(100), 0b10_1000);
        assert_eq!(d.owner(100), None);
        assert_eq!(d.lines(), 1);
    }

    #[test]
    fn take_exclusive_returns_prior_and_owns() {
        let mut d = Directory::new(8, 16, 4);
        d.fetch_and_add(9, 0);
        d.fetch_and_add(9, 4);
        let prior = d.take_exclusive(9, 2);
        assert_eq!(prior, 0b1_0001);
        assert_eq!(d.sharers(9), 0b100);
        assert_eq!(d.owner(9), Some(2));
        // Untracked line: empty prior, requester installed dirty.
        assert_eq!(d.take_exclusive(77, 1), 0);
        assert_eq!(d.owner(77), Some(1));
    }

    #[test]
    fn owner_clears_when_owner_leaves() {
        let mut d = Directory::new(4, 16, 4);
        d.take_exclusive(1, 1);
        d.fetch_and_add(1, 0);
        d.remove_sharer(1, 1);
        assert_eq!(d.owner(1), None);
        assert_eq!(d.sharers(1), 0b1);
        // Removing a non-owner keeps the hint.
        d.set_owner(1, 0);
        d.fetch_and_add(1, 2);
        d.remove_sharer(1, 2);
        assert_eq!(d.owner(1), Some(0));
    }

    #[test]
    fn last_sharer_removal_deletes_the_entry() {
        let mut d = Directory::new(2, 16, 4);
        d.fetch_and_add(42, 1);
        assert_eq!(d.lines(), 1);
        d.remove_sharer(42, 1);
        assert_eq!(d.lines(), 0);
        assert_eq!(d.sharers(42), 0);
        assert_eq!(d.owner(42), None);
    }

    #[test]
    fn iter_reports_tracked_lines() {
        let mut d = Directory::new(3, 16, 4);
        d.take_exclusive(5, 2);
        d.fetch_and_add(9000, 0);
        let mut all: Vec<_> = d.iter().collect();
        all.sort();
        assert_eq!(all, vec![(5, 0b100, Some(2)), (9000, 0b1, None)]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_groups_panics() {
        Directory::new(17, 16, 4);
    }

    #[test]
    #[should_panic(expected = "43-bit")]
    fn oversized_line_tag_panics() {
        let mut d = Directory::new(2, 16, 4);
        d.fetch_and_add(KEY_LIMIT << 4, 0);
    }

    /// The top sharer bits sit right below the owner field: setting,
    /// owning and clearing them must not leak into the owner or tag.
    #[test]
    fn high_group_ids_round_trip() {
        let mut d = Directory::new(16, 16, 4);
        assert_eq!(d.fetch_and_add(3, 9), 0);
        assert_eq!(d.fetch_and_add(3, 14), 1 << 9);
        assert_eq!(d.fetch_and_add(3, 15), 1 << 9 | 1 << 14);
        assert_eq!(d.sharers(3), 1 << 9 | 1 << 14 | 1 << 15);
        assert_eq!(d.owner(3), None);
        d.set_owner(3, 14);
        assert_eq!(d.owner(3), Some(14));
        let prior = d.take_exclusive(3, 15);
        assert_eq!(prior, 1 << 9 | 1 << 14 | 1 << 15);
        assert_eq!(d.sharers(3), 1 << 15);
        assert_eq!(d.owner(3), Some(15));
        assert_eq!(d.iter().next(), Some((3, 1 << 15, Some(15))));
        d.remove_sharer(3, 15);
        assert_eq!(d.lines(), 0);
    }

    #[test]
    fn key_space_boundaries_roundtrip() {
        let mut d = Directory::new(Directory::MAX_GROUPS, 16, 4);
        let big = (KEY_LIMIT - 1) << 4 | 0b1011; // max tag, arbitrary set
        d.fetch_and_add(big, Directory::MAX_GROUPS - 1);
        d.set_owner(big, Directory::MAX_GROUPS - 1);
        assert_eq!(d.sharers(big), 1 << (Directory::MAX_GROUPS - 1));
        assert_eq!(d.owner(big), Some(Directory::MAX_GROUPS - 1));
        assert_eq!(
            d.iter().next(),
            Some((
                big,
                1 << (Directory::MAX_GROUPS - 1),
                Some(Directory::MAX_GROUPS - 1)
            ))
        );
        d.remove_sharer(big, Directory::MAX_GROUPS - 1);
        assert_eq!(d.lines(), 0);
    }

    /// A minimal one-way, two-group geometry: each set block holds two
    /// slots, so one distinct line per group fills it completely — the
    /// residency bound the block is sized to. Probes for absent lines
    /// must still terminate, and deletion must leave the survivor
    /// findable and the freed slot reusable.
    #[test]
    fn full_block_stays_sound() {
        let mut d = Directory::new(2, 4, 1);
        d.fetch_and_add(0b0010, 0);
        d.fetch_and_add(0b1_0010, 1);
        assert_eq!(d.sharers(0b0010), 0b01);
        assert_eq!(d.sharers(0b1_0010), 0b10);
        // Absent line in the full block: bounded probe, not found.
        assert_eq!(d.sharers(0b10_0010), 0);
        assert_eq!(d.owner(0b10_0010), None);
        d.remove_sharer(0b0010, 0);
        assert_eq!(d.sharers(0b1_0010), 0b10);
        assert_eq!(d.lines(), 1);
        assert_eq!(d.take_exclusive(0b10_0010, 0), 0);
        assert_eq!(d.owner(0b10_0010), Some(0));
        assert_eq!(d.lines(), 2);
    }

    /// The floor of two slots per block: a one-group, one-way directory
    /// still indexes inside its set's block.
    #[test]
    fn single_slot_residency_still_indexes_its_block() {
        let mut d = Directory::new(1, 4, 1);
        for line in [0b11u64, 0b111, 0b1011] {
            assert_eq!(d.fetch_and_add(line, 0), 0);
            assert_eq!(d.sharers(line), 1);
            d.remove_sharer(line, 0);
        }
        assert_eq!(d.lines(), 0);
    }

    /// Churn the table against a straightforward model: backward-shift
    /// deletion must keep every surviving entry findable through heavy
    /// insert/remove cycling in a deliberately tiny (collision-rich)
    /// table whose blocks run completely full.
    #[test]
    fn survives_churn_against_model() {
        use std::collections::HashMap;
        let mut d = Directory::new(4, 4, 4); // blocks of 16 slots
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut r = 0xDEAD_BEEFu64;
        for step in 0..100_000 {
            r = r
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (r >> 16) % 64; // 16 tags per set, blocks hold 16
            let g = (r >> 8) as usize % 4;
            if model.len() < 48 && r % 3 != 0 {
                d.fetch_and_add(line, g);
                *model.entry(line).or_insert(0) |= 1 << g;
            } else if let Some((&line, _)) = model.iter().next() {
                let bits = model[&line];
                let g = bits.trailing_zeros() as usize;
                d.remove_sharer(line, g);
                let left = bits & !(1 << g);
                if left == 0 {
                    model.remove(&line);
                } else {
                    model.insert(line, left);
                }
            }
            if step % 1024 == 0 {
                for (&line, &bits) in &model {
                    assert_eq!(d.sharers(line), u64::from(bits), "line {line} diverged");
                }
                assert_eq!(d.lines(), model.len());
            }
        }
        for (&line, &bits) in &model {
            assert_eq!(d.sharers(line), u64::from(bits));
        }
    }
}
