//! Address-region classification for cycle attribution.
//!
//! The paper's analysis hinges on knowing *what data* a stall was paid on
//! — lock words, the shared heap, compiled code (Sections 5.1-5.2). A
//! [`RegionMap`] is a set of named, non-overlapping address ranges (heap
//! generations, code cache, lock words, stacks, kernel structures) built
//! once at machine construction. Region names are interned: each distinct
//! name gets a dense id, with [`OTHER_REGION`] always the last, so a
//! profiler can index a table by [`RegionMap::region_id`] and print
//! [`RegionMap::names`] only when it formats its output. Classifying an
//! access is one binary search; the attribution profiler runs it only on
//! references the CPU timers charged stall cycles to.

use crate::addr::{Addr, AddrRange};

/// The label returned for addresses no registered region covers.
pub const OTHER_REGION: &str = "other";

/// A sorted set of named, disjoint address regions.
#[derive(Debug, Clone)]
pub struct RegionMap {
    /// Sorted by range start; disjoint by construction. The `usize` is
    /// the region's id into `names`.
    entries: Vec<(AddrRange, usize)>,
    /// Distinct region names by id, in first-insertion order;
    /// [`OTHER_REGION`] is always last.
    names: Vec<&'static str>,
}

impl Default for RegionMap {
    fn default() -> Self {
        RegionMap {
            entries: Vec::new(),
            names: vec![OTHER_REGION],
        }
    }
}

impl RegionMap {
    /// Creates an empty map (everything classifies as [`OTHER_REGION`]).
    pub fn new() -> Self {
        RegionMap::default()
    }

    /// Registers `range` under `name`, keeping the map sorted. Ranges
    /// registered under the same name share one id.
    ///
    /// Empty ranges are ignored (scaled configurations may shrink a
    /// region to nothing).
    ///
    /// # Panics
    ///
    /// Panics if `range` overlaps a region already in the map.
    pub fn insert(&mut self, range: AddrRange, name: &'static str) {
        if range.is_empty() {
            return;
        }
        let at = self
            .entries
            .partition_point(|(r, _)| r.start() < range.start());
        if let Some(&(prev, id)) = at.checked_sub(1).and_then(|i| self.entries.get(i)) {
            assert!(
                !prev.overlaps(&range),
                "region {name} overlaps {}",
                self.names[id]
            );
        }
        if let Some(&(next, id)) = self.entries.get(at) {
            assert!(
                !next.overlaps(&range),
                "region {name} overlaps {}",
                self.names[id]
            );
        }
        let id = self.intern(name);
        self.entries.insert(at, (range, id));
    }

    /// The id of `name`, adding it just before [`OTHER_REGION`] if new.
    fn intern(&mut self, name: &'static str) -> usize {
        if let Some(id) = self.names.iter().position(|&n| n == name) {
            return id;
        }
        let other = self.names.len() - 1;
        self.names.insert(other, name);
        // Ranges registered under OTHER_REGION itself follow it to its
        // new id.
        for (_, id) in &mut self.entries {
            if *id == other {
                *id += 1;
            }
        }
        other
    }

    /// The id of the region containing `addr`: an index into
    /// [`RegionMap::names`], or its last id ([`OTHER_REGION`]).
    #[inline]
    pub fn region_id(&self, addr: Addr) -> usize {
        let at = self.entries.partition_point(|(r, _)| r.start() <= addr);
        match at.checked_sub(1).map(|i| self.entries[i]) {
            Some((r, id)) if r.contains(addr) => id,
            _ => self.names.len() - 1,
        }
    }

    /// The distinct region names indexed by id, [`OTHER_REGION`] last.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// The region containing `addr`, or [`OTHER_REGION`].
    #[inline]
    pub fn classify(&self, addr: Addr) -> &'static str {
        self.names[self.region_id(addr)]
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered regions in address order.
    pub fn entries(&self) -> impl Iterator<Item = (AddrRange, &'static str)> + '_ {
        self.entries.iter().map(|&(r, id)| (r, self.names[id]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> RegionMap {
        let mut m = RegionMap::new();
        m.insert(AddrRange::new(Addr(0x1000), 0x1000), "code");
        m.insert(AddrRange::new(Addr(0x4000), 0x100), "lock");
        m.insert(AddrRange::new(Addr(0x2000), 0x800), "eden");
        m
    }

    #[test]
    fn classifies_interior_and_boundary_addresses() {
        let m = map();
        assert_eq!(m.classify(Addr(0x1000)), "code");
        assert_eq!(m.classify(Addr(0x1fff)), "code");
        assert_eq!(m.classify(Addr(0x2000)), "eden");
        assert_eq!(m.classify(Addr(0x40ff)), "lock");
    }

    #[test]
    fn gaps_and_extremes_fall_back_to_other() {
        let m = map();
        assert_eq!(m.classify(Addr(0)), OTHER_REGION);
        assert_eq!(m.classify(Addr(0x2800)), OTHER_REGION);
        assert_eq!(m.classify(Addr(0x4100)), OTHER_REGION);
        assert_eq!(m.classify(Addr(u64::MAX)), OTHER_REGION);
    }

    #[test]
    fn entries_are_kept_sorted() {
        let m = map();
        let starts: Vec<u64> = m.entries().map(|(r, _)| r.start().0).collect();
        assert_eq!(starts, vec![0x1000, 0x2000, 0x4000]);
    }

    #[test]
    fn names_are_interned_with_other_last() {
        let mut m = map();
        m.insert(AddrRange::new(Addr(0x8000), 0x100), "lock");
        assert_eq!(m.names(), ["code", "lock", "eden", OTHER_REGION]);
        assert_eq!(m.region_id(Addr(0x4000)), m.region_id(Addr(0x8000)));
        assert_eq!(m.region_id(Addr(0x3000)), m.names().len() - 1);
        assert_eq!(RegionMap::new().names(), [OTHER_REGION]);
    }

    #[test]
    fn ranges_named_other_stay_other_as_names_are_added() {
        let mut m = RegionMap::new();
        m.insert(AddrRange::new(Addr(0x1000), 0x100), OTHER_REGION);
        m.insert(AddrRange::new(Addr(0x2000), 0x100), "eden");
        assert_eq!(m.names(), ["eden", OTHER_REGION]);
        assert_eq!(m.classify(Addr(0x1000)), OTHER_REGION);
        assert_eq!(m.classify(Addr(0x2000)), "eden");
        let listed: Vec<&str> = m.entries().map(|(_, n)| n).collect();
        assert_eq!(listed, [OTHER_REGION, "eden"]);
    }

    #[test]
    fn empty_ranges_are_ignored() {
        let mut m = RegionMap::new();
        m.insert(AddrRange::new(Addr(0x1000), 0), "nothing");
        assert!(m.is_empty());
        assert_eq!(m.classify(Addr(0x1000)), OTHER_REGION);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_insert_panics() {
        let mut m = map();
        m.insert(AddrRange::new(Addr(0x1800), 0x1000), "bad");
    }

    #[test]
    fn empty_map_classifies_everything_as_other() {
        let m = RegionMap::new();
        assert_eq!(m.classify(Addr(0x1234)), OTHER_REGION);
    }
}
