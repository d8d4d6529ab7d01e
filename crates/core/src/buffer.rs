//! The bounded, age-purged event buffer (`events` in Figure 1).
//!
//! When the buffer overflows, the *oldest* events — those with the highest
//! age, i.e. the most widely disseminated ones — are discarded first, the
//! age-based purging heuristic of Kouznetsov et al. (SRDS 2001) that the
//! paper adopts. The ages of overflow victims are the raw material of the
//! congestion signal in the adaptive mechanism.

use agb_types::{EventId, FastHashSet, Payload};

use crate::event::Event;

/// An event purged from the buffer, with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PurgedEvent {
    /// The purged event's id.
    pub id: EventId,
    /// Its age at purge time.
    pub age: u32,
    /// Why it was purged.
    pub reason: PurgeReason,
}

/// Why an event left the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurgeReason {
    /// Evicted because the buffer exceeded its capacity — the congestion
    /// signal.
    Overflow,
    /// Removed because its age exceeded the age cap `k` — normal end of
    /// life after (presumed) full dissemination.
    AgeCap,
}

/// Bounded buffer of events with age-based eviction (highest age first,
/// FIFO among equal ages).
///
/// Capacity is dynamic: the paper's Figure 9 experiment shrinks and grows
/// node buffers at runtime, which maps to [`EventBuffer::set_capacity`].
///
/// # Layout
///
/// Events sit in insertion order in three parallel arrays: ids, ages and
/// payloads. The overflow victim is the first position holding the
/// maximum age — a scan over a dense `u32` array — and the snapshot is a
/// straight copy. A small open-addressed table maps ids to positions, so
/// an id probe stays O(1) expected at any capacity. At the shipped
/// 60–90 event capacities one node's whole buffer spans a few dozen
/// cache lines; see docs/ARCHITECTURE.md, "Per-node receive state".
///
/// # Example
///
/// ```
/// use agb_core::{Event, EventBuffer};
/// use agb_types::{EventId, NodeId, Payload};
///
/// let mut buf = EventBuffer::new(2);
/// let id = |s| EventId::new(NodeId::new(0), s);
/// buf.insert(Event::with_age(id(0), 5, Payload::new()));
/// buf.insert(Event::with_age(id(1), 1, Payload::new()));
/// let purged = buf.insert(Event::with_age(id(2), 3, Payload::new()));
/// // Overflow evicts the highest-age event (age 5).
/// assert_eq!(purged.len(), 1);
/// assert_eq!(purged[0].age, 5);
/// assert_eq!(buf.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EventBuffer {
    /// Buffered ids, oldest insertion first.
    ids: Vec<EventId>,
    /// `ages[i]` is the age of `ids[i]`.
    ages: Vec<u32>,
    /// `payloads[i]` belongs to `ids[i]`; kept apart so the probe and
    /// the victim scan never touch them.
    payloads: Vec<Payload>,
    /// Linear-probing table of positions into `ids` (`EMPTY` = free
    /// slot). Its length is 0 or a power of two at least twice `len()`.
    index: Vec<u32>,
    capacity: usize,
}

/// A free slot of [`EventBuffer::index`].
const EMPTY: u32 = u32::MAX;

/// Smallest non-empty index table.
const MIN_INDEX: usize = 8;

impl EventBuffer {
    /// Creates a buffer holding at most `capacity` events.
    ///
    /// Storage grows on demand, up to the occupancy actually reached.
    pub fn new(capacity: usize) -> Self {
        EventBuffer {
            ids: Vec::new(),
            ages: Vec::new(),
            payloads: Vec::new(),
            index: Vec::new(),
            capacity,
        }
    }

    /// Current capacity (the node's `|events|max`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the capacity at runtime. If the buffer shrinks below the
    /// current occupancy, the overflow victims are appended to `purged`
    /// in eviction order.
    pub fn set_capacity(&mut self, capacity: usize, purged: &mut Vec<PurgedEvent>) {
        self.capacity = capacity;
        self.evict_overflow(purged);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` is currently buffered.
    pub fn contains(&self, id: EventId) -> bool {
        self.find(id).is_some()
    }

    /// The buffered ids, oldest insertion first.
    pub fn ids(&self) -> &[EventId] {
        &self.ids
    }

    /// The ages of [`EventBuffer::ids`], position for position.
    pub fn ages(&self) -> &[u32] {
        &self.ages
    }

    /// Inserts an event; if the buffer overflows, evicts the oldest
    /// (highest-age) events and returns them.
    ///
    /// Inserting an id that is already buffered max-merges the age instead
    /// (duplicate handling of Figure 1).
    pub fn insert(&mut self, event: Event) -> Vec<PurgedEvent> {
        let mut purged = Vec::new();
        if !self.merge_age(event.id(), event.age()) {
            self.insert_new(event, &mut purged);
        }
        purged
    }

    /// Inserts an event whose id the caller knows is not buffered (a
    /// miss of [`EventBuffer::merge_age`] just before); overflow victims
    /// are appended to `purged`.
    pub fn insert_new(&mut self, event: Event, purged: &mut Vec<PurgedEvent>) {
        debug_assert!(!self.contains(event.id()), "insert_new of a buffered id");
        if 2 * (self.ids.len() + 1) > self.index.len() {
            self.rebuild_index(MIN_INDEX.max((2 * (self.ids.len() + 1)).next_power_of_two()));
        }
        let id = event.id();
        let pos = self.ids.len() as u32;
        let slot = self.free_slot(id);
        self.index[slot] = pos;
        self.ids.push(id);
        self.ages.push(event.age());
        self.payloads.push(event.into_payload());
        self.evict_overflow(purged);
    }

    /// Max-merges the age of a buffered duplicate; returns whether the id
    /// was present.
    pub fn merge_age(&mut self, id: EventId, age: u32) -> bool {
        match self.find(id) {
            Some(slot) => {
                let own = &mut self.ages[self.index[slot] as usize];
                *own = (*own).max(age);
                true
            }
            None => false,
        }
    }

    /// Increments the age of every buffered event by one round.
    pub fn increment_ages(&mut self) {
        for age in &mut self.ages {
            *age = age.saturating_add(1);
        }
    }

    /// Removes all events whose age exceeds `age_cap` (Figure 1's `k`)
    /// and appends them to `purged`, sorted by id.
    pub fn purge_age_cap(&mut self, age_cap: u32, purged: &mut Vec<PurgedEvent>) {
        let start = purged.len();
        purged.extend(
            self.ids
                .iter()
                .zip(&self.ages)
                .filter(|&(_, &age)| age > age_cap)
                .map(|(&id, &age)| PurgedEvent {
                    id,
                    age,
                    reason: PurgeReason::AgeCap,
                }),
        );
        if purged.len() == start {
            return;
        }
        // Deterministic reporting order, independent of storage order.
        purged[start..].sort_unstable_by_key(|p| p.id);
        // Compact the survivors to the front, in order.
        let mut kept = 0;
        for pos in 0..self.ids.len() {
            if self.ages[pos] <= age_cap {
                self.ids.swap(kept, pos);
                self.ages.swap(kept, pos);
                self.payloads.swap(kept, pos);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.ages.truncate(kept);
        self.payloads.truncate(kept);
        self.rebuild_index(self.index.len());
    }

    fn evict_overflow(&mut self, purged: &mut Vec<PurgedEvent>) {
        while self.ids.len() > self.capacity {
            // Victim: highest age, FIFO (earliest insertion) among equal
            // ages — the age-based purging heuristic. Positions are
            // insertion order, so the first maximum is the victim.
            let mut victim = 0;
            for (pos, &age) in self.ages.iter().enumerate().skip(1) {
                if age > self.ages[victim] {
                    victim = pos;
                }
            }
            purged.push(PurgedEvent {
                id: self.ids[victim],
                age: self.ages[victim],
                reason: PurgeReason::Overflow,
            });
            self.remove_at(victim);
        }
    }

    /// The ages of the `count` events that would be evicted if the capacity
    /// were smaller — the would-drop scan of Figure 5(b). Skips ids in
    /// `already_counted`. Returns `(id, age)` pairs in eviction order.
    pub fn would_evict(
        &self,
        hypothetical_capacity: usize,
        already_counted: &FastHashSet<EventId>,
    ) -> Vec<(EventId, u32)> {
        // Fast path for the common case (nothing already counted): the
        // scan runs once per received message, so the eligibility count
        // must not probe the counted set per buffered event when that
        // set is empty.
        let eligible = if already_counted.is_empty() {
            self.ids.len()
        } else {
            self.ids
                .iter()
                .filter(|id| !already_counted.contains(id))
                .count()
        };
        if eligible <= hypothetical_capacity {
            return Vec::new();
        }
        let excess = eligible - hypothetical_capacity;
        let mut candidates: Vec<usize> = (0..self.ids.len())
            .filter(|&pos| !already_counted.contains(&self.ids[pos]))
            .collect();
        // Eviction order: highest age first, then FIFO.
        candidates.sort_unstable_by_key(|&pos| (std::cmp::Reverse(self.ages[pos]), pos));
        candidates
            .into_iter()
            .take(excess)
            .map(|pos| (self.ids[pos], self.ages[pos]))
            .collect()
    }

    /// Snapshot of the buffered events (for gossip emission), in insertion
    /// order for determinism.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events().collect()
    }

    /// The insertion-ordered snapshot as a shared [`EventList`](crate::EventList): one
    /// allocation backs every gossip copy emitted this round.
    pub fn snapshot_shared(&self) -> crate::event::EventList {
        self.events().collect()
    }

    fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.ids
            .iter()
            .zip(&self.ages)
            .zip(&self.payloads)
            .map(|((&id, &age), payload)| Event::with_age(id, age, payload.clone()))
    }

    /// The home slot of `id` in an index of the current length
    /// (Fibonacci hashing: the top bits of a multiplicative hash).
    fn home(&self, id: EventId) -> usize {
        let key = id.seq() ^ u64::from(id.origin().as_u32()).rotate_left(32);
        let shift = 64 - self.index.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The index slot holding `id`, if buffered.
    fn find(&self, id: EventId) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = self.home(id);
        loop {
            match self.index[slot] {
                EMPTY => return None,
                pos if self.ids[pos as usize] == id => return Some(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The first free slot on `id`'s probe sequence.
    fn free_slot(&self, id: EventId) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = self.home(id);
        while self.index[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn rebuild_index(&mut self, len: usize) {
        self.index.clear();
        self.index.resize(len, EMPTY);
        for pos in 0..self.ids.len() {
            let slot = self.free_slot(self.ids[pos]);
            self.index[slot] = pos as u32;
        }
    }

    /// Removes the event at `pos`, keeping the others in insertion order.
    fn remove_at(&mut self, pos: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.ids[pos]);
        while self.index[hole] != pos as u32 {
            hole = (hole + 1) & mask;
        }
        // Backward-shift deletion: pull later members of the probe run
        // into the hole whenever their home slot allows it, so lookups
        // never need tombstones.
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let moved = self.index[slot];
            if moved == EMPTY {
                break;
            }
            let home = self.home(self.ids[moved as usize]);
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.index[hole] = moved;
                hole = slot;
            }
        }
        self.index[hole] = EMPTY;
        self.ids.remove(pos);
        self.ages.remove(pos);
        self.payloads.remove(pos);
        let pos = pos as u32;
        for entry in &mut self.index {
            *entry -= u32::from(*entry != EMPTY && *entry > pos);
        }
    }
}

impl agb_profile::MemReport for EventBuffer {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        use std::mem::size_of;
        let arrays = self.ids.capacity() * size_of::<EventId>()
            + self.ages.capacity() * size_of::<u32>()
            + self.payloads.capacity() * size_of::<Payload>()
            + self.index.capacity() * size_of::<u32>();
        let payloads: usize = self.payloads.iter().map(Payload::len).sum();
        agb_profile::MemUsage::new((arrays + payloads) as u64, self.ids.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::{NodeId, Payload};

    fn ev(seq: u64, age: u32) -> Event {
        Event::with_age(EventId::new(NodeId::new(0), seq), age, Payload::new())
    }

    #[test]
    fn insert_within_capacity_never_purges() {
        let mut buf = EventBuffer::new(3);
        assert!(buf.insert(ev(0, 0)).is_empty());
        assert!(buf.insert(ev(1, 0)).is_empty());
        assert!(buf.insert(ev(2, 0)).is_empty());
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
    }

    #[test]
    fn overflow_evicts_highest_age_first() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 2));
        buf.insert(ev(1, 9));
        let purged = buf.insert(ev(2, 0));
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].age, 9);
        assert_eq!(purged[0].reason, PurgeReason::Overflow);
        assert!(buf.contains(EventId::new(NodeId::new(0), 0)));
        assert!(buf.contains(EventId::new(NodeId::new(0), 2)));
    }

    #[test]
    fn overflow_tie_breaks_fifo() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 5)); // inserted first
        buf.insert(ev(1, 5));
        let purged = buf.insert(ev(2, 0));
        // Equal ages: the earlier-inserted one goes first.
        assert_eq!(purged[0].id, EventId::new(NodeId::new(0), 0));
    }

    #[test]
    fn duplicate_insert_merges_age() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 1));
        let purged = buf.insert(ev(0, 6));
        assert!(purged.is_empty());
        assert_eq!(buf.len(), 1);
        let snap = buf.snapshot();
        assert_eq!(snap[0].age(), 6);
    }

    #[test]
    fn merge_age_reports_presence() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 1));
        assert!(buf.merge_age(EventId::new(NodeId::new(0), 0), 4));
        assert!(!buf.merge_age(EventId::new(NodeId::new(0), 99), 4));
        assert_eq!(buf.snapshot()[0].age(), 4);
    }

    #[test]
    fn increment_ages_touches_all() {
        let mut buf = EventBuffer::new(4);
        buf.insert(ev(0, 0));
        buf.insert(ev(1, 3));
        buf.increment_ages();
        assert_eq!(buf.ages(), &[1, 4]);
    }

    #[test]
    fn age_cap_purges_only_old_events() {
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 3));
        buf.insert(ev(1, 10));
        buf.insert(ev(2, 11));
        let mut purged = Vec::new();
        buf.purge_age_cap(10, &mut purged);
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].id, EventId::new(NodeId::new(0), 2));
        assert_eq!(purged[0].reason, PurgeReason::AgeCap);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut buf = EventBuffer::new(4);
        for (seq, age) in [(0, 1), (1, 7), (2, 3), (3, 5)] {
            buf.insert(ev(seq, age));
        }
        let mut purged = Vec::new();
        buf.set_capacity(2, &mut purged);
        assert_eq!(buf.capacity(), 2);
        let ages: Vec<u32> = purged.iter().map(|p| p.age).collect();
        assert_eq!(ages, vec![7, 5]);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn would_evict_matches_actual_eviction_order() {
        let mut buf = EventBuffer::new(10);
        for (seq, age) in [(0, 1), (1, 7), (2, 3), (3, 5)] {
            buf.insert(ev(seq, age));
        }
        let empty = FastHashSet::default();
        let would = buf.would_evict(2, &empty);
        let ages: Vec<u32> = would.iter().map(|&(_, a)| a).collect();
        assert_eq!(ages, vec![7, 5]);
        // Shrinking for real gives the same victims.
        let mut purged = Vec::new();
        buf.set_capacity(2, &mut purged);
        let actual: Vec<EventId> = purged.iter().map(|p| p.id).collect();
        let predicted: Vec<EventId> = would.iter().map(|&(id, _)| id).collect();
        assert_eq!(actual, predicted);
    }

    #[test]
    fn would_evict_skips_already_counted() {
        let mut buf = EventBuffer::new(10);
        for (seq, age) in [(0, 9), (1, 8), (2, 1)] {
            buf.insert(ev(seq, age));
        }
        let mut counted = FastHashSet::default();
        counted.insert(EventId::new(NodeId::new(0), 0));
        // Eligible = {1, 2}; capacity 1 -> one victim: age 8.
        let would = buf.would_evict(1, &counted);
        assert_eq!(would.len(), 1);
        assert_eq!(would[0].1, 8);
    }

    #[test]
    fn would_evict_none_when_under_capacity() {
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 1));
        let empty = FastHashSet::default();
        assert!(buf.would_evict(5, &empty).is_empty());
        assert!(buf.would_evict(1, &empty).is_empty());
    }

    #[test]
    fn snapshot_is_insertion_ordered() {
        let mut buf = EventBuffer::new(5);
        for seq in [3, 1, 2] {
            buf.insert(ev(seq, 0));
        }
        let ids: Vec<u64> = buf.snapshot().iter().map(|e| e.id().seq()).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn large_buffer_finds_every_id_through_growth_and_eviction() {
        let mut buf = EventBuffer::new(1_000);
        for seq in 0..3_000 {
            let purged = buf.insert(ev(seq, (seq % 7) as u32));
            assert_eq!(purged.len(), usize::from(seq >= 1_000));
        }
        assert_eq!(buf.len(), 1_000);
        let buffered: Vec<(EventId, u32)> = buf
            .ids()
            .iter()
            .copied()
            .zip(buf.ages().iter().copied())
            .collect();
        for (id, age) in buffered {
            assert!(buf.merge_age(id, age));
        }
        let absent = (0..3_000)
            .filter(|&seq| !buf.contains(EventId::new(NodeId::new(0), seq)))
            .count();
        assert_eq!(absent, 2_000);
    }

    #[test]
    fn zero_capacity_buffer_rejects_everything() {
        let mut buf = EventBuffer::new(0);
        let purged = buf.insert(ev(0, 2));
        assert_eq!(purged.len(), 1);
        assert!(buf.is_empty());
    }
}
