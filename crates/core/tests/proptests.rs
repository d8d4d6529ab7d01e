//! Property-based tests of the protocol building blocks.

use std::collections::HashSet;

use agb_core::{
    BuffAd, Event, EventBuffer, EventIdBuffer, KSmallestSet, MinBuffConfig, MinBuffEstimator,
    PurgeReason, PurgedEvent, TokenBucket,
};
use agb_types::{DurationMs, EventId, FastHashSet, NodeId, Payload, TimeMs};
use proptest::prelude::*;
use proptest::ProptestConfig;

fn ev(origin: u32, seq: u64, age: u32) -> Event {
    Event::with_age(EventId::new(NodeId::new(origin), seq), age, Payload::new())
}

/// `EventBuffer`'s contract written naively: an unordered slot list with
/// an explicit insertion counter, victims chosen by a full comparison
/// (highest age, then earliest insertion, then smallest id).
struct ModelBuffer {
    slots: Vec<(EventId, u32, u64)>,
    capacity: usize,
    next: u64,
}

impl ModelBuffer {
    fn new(capacity: usize) -> Self {
        ModelBuffer {
            slots: Vec::new(),
            capacity,
            next: 0,
        }
    }

    fn merge_age(&mut self, id: EventId, age: u32) -> bool {
        match self.slots.iter_mut().find(|s| s.0 == id) {
            Some(slot) => {
                slot.1 = slot.1.max(age);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, id: EventId, age: u32) -> Vec<PurgedEvent> {
        if self.merge_age(id, age) {
            return Vec::new();
        }
        self.slots.push((id, age, self.next));
        self.next += 1;
        self.evict()
    }

    fn evict(&mut self) -> Vec<PurgedEvent> {
        let mut purged = Vec::new();
        while self.slots.len() > self.capacity {
            let (i, _) = self
                .slots
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.1.cmp(&b.1)
                        .then_with(|| b.2.cmp(&a.2))
                        .then_with(|| b.0.cmp(&a.0))
                })
                .expect("over capacity");
            let (id, age, _) = self.slots.remove(i);
            purged.push(PurgedEvent {
                id,
                age,
                reason: PurgeReason::Overflow,
            });
        }
        purged
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<PurgedEvent> {
        self.capacity = capacity;
        self.evict()
    }

    fn increment_ages(&mut self) {
        for slot in &mut self.slots {
            slot.1 = slot.1.saturating_add(1);
        }
    }

    fn purge_age_cap(&mut self, cap: u32) -> Vec<PurgedEvent> {
        let mut purged: Vec<PurgedEvent> = self
            .slots
            .iter()
            .filter(|s| s.1 > cap)
            .map(|s| PurgedEvent {
                id: s.0,
                age: s.1,
                reason: PurgeReason::AgeCap,
            })
            .collect();
        purged.sort_by_key(|p| p.id);
        self.slots.retain(|s| s.1 <= cap);
        purged
    }

    fn would_evict(&self, capacity: usize, counted: &FastHashSet<EventId>) -> Vec<(EventId, u32)> {
        let mut candidates: Vec<_> = self
            .slots
            .iter()
            .filter(|s| !counted.contains(&s.0))
            .collect();
        let excess = candidates.len().saturating_sub(capacity);
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.2.cmp(&b.2))
                .then_with(|| a.0.cmp(&b.0))
        });
        candidates.iter().take(excess).map(|s| (s.0, s.1)).collect()
    }

    fn snapshot(&self) -> Vec<(EventId, u32)> {
        let mut slots = self.slots.clone();
        slots.sort_by_key(|s| s.2);
        slots.into_iter().map(|s| (s.0, s.1)).collect()
    }
}

proptest! {
    /// The buffer never exceeds its capacity, no matter the insert stream.
    #[test]
    fn buffer_never_exceeds_capacity(
        capacity in 1usize..40,
        inserts in proptest::collection::vec((0u32..4, 0u64..200, 0u32..12), 0..200),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (origin, seq, age) in inserts {
            buf.insert(ev(origin, seq, age));
            prop_assert!(buf.len() <= capacity);
        }
    }

    /// Overflow eviction always removes a maximal-age event.
    #[test]
    fn buffer_evicts_a_maximal_age_event(
        capacity in 1usize..20,
        inserts in proptest::collection::vec((0u64..500, 0u32..12), 1..100),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (seq, age) in inserts {
            let max_before = buf.ages().iter().copied().max().unwrap_or(0);
            let incoming = ev(0, seq, age);
            let was_new = !buf.contains(incoming.id());
            let purged = buf.insert(incoming);
            if was_new {
                for p in &purged {
                    prop_assert_eq!(p.reason, PurgeReason::Overflow);
                    prop_assert!(p.age >= max_before.min(p.age));
                    prop_assert!(p.age == max_before || p.age == age.max(max_before));
                }
            }
        }
    }

    /// `would_evict` predicts exactly what `set_capacity` then does.
    #[test]
    fn would_evict_predicts_shrink(
        capacity in 2usize..30,
        shrink_to in 0usize..30,
        inserts in proptest::collection::vec((0u64..100, 0u32..10), 0..60),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (seq, age) in inserts {
            buf.insert(ev(0, seq, age));
        }
        let predicted: Vec<EventId> = buf
            .would_evict(shrink_to, &FastHashSet::default())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let mut purged = Vec::new();
        buf.set_capacity(shrink_to, &mut purged);
        let actual: Vec<EventId> = purged.into_iter().map(|p| p.id).collect();
        prop_assert_eq!(predicted, actual);
    }

    /// Duplicate suppression remembers exactly the last `capacity`
    /// distinct ids, over several origins and the block-edge sequence
    /// numbers of the bitmap layout (0, 63, 64, `u64::MAX`, sparse).
    #[test]
    fn id_buffer_bounded_and_exact(
        capacity in 1usize..50,
        ids in proptest::collection::vec((0u32..4, 0u8..8, any::<u64>()), 0..200),
    ) {
        let mut buf = EventIdBuffer::new(capacity);
        let mut model: Vec<EventId> = Vec::new(); // insertion-ordered, unique
        for (origin, kind, raw) in ids {
            let seq = match kind {
                0 => 0,
                1 => 63,
                2 => 64,
                3 => u64::MAX,
                4 => u64::MAX - 64,
                5 => raw % 200,   // dense
                6 => raw % 4_096, // a few per block
                _ => raw,         // sparse: one block per id
            };
            let id = EventId::new(NodeId::new(origin), seq);
            let was_new = buf.insert(id);
            let model_new = !model.contains(&id);
            prop_assert_eq!(was_new, model_new);
            if model_new {
                model.push(id);
                if model.len() > capacity {
                    let expired = model.remove(0);
                    prop_assert!(!buf.contains(expired));
                }
            }
            prop_assert_eq!(buf.len(), model.len());
        }
        for &id in &model {
            prop_assert!(buf.contains(id));
        }
        // Neighbours of remembered ids in the same block stay unknown.
        for &id in &model {
            let next = EventId::new(id.origin(), id.seq() ^ 1);
            prop_assert_eq!(buf.contains(next), model.contains(&next));
        }
    }

    /// Tokens never go negative and never exceed the bucket size; total
    /// acquisitions never exceed initial + accrued tokens.
    #[test]
    fn token_bucket_conservation(
        rate in 0.0f64..100.0,
        max in 1.0f64..32.0,
        steps in proptest::collection::vec(0u64..500, 1..100),
    ) {
        let mut bucket = TokenBucket::new(rate, max, TimeMs::ZERO);
        let mut now = 0u64;
        let mut acquired = 0u64;
        for step in steps {
            now += step;
            if bucket.try_acquire(TimeMs::from_millis(now)) {
                acquired += 1;
            }
            let tokens = bucket.tokens_unrefreshed();
            prop_assert!(tokens >= 0.0, "negative tokens {tokens}");
            prop_assert!(tokens <= max + 1e-9, "over-full {tokens} > {max}");
        }
        let accrued = max + rate * now as f64 / 1000.0;
        prop_assert!(
            (acquired as f64) <= accrued + 1e-6,
            "acquired {acquired} > accrued {accrued}"
        );
    }

    /// The k-smallest set is sorted, bounded, and node-deduplicated.
    #[test]
    fn k_smallest_invariants(
        track in 1usize..6,
        ads in proptest::collection::vec((0u32..10, 1u32..200), 0..100),
    ) {
        let mut set = KSmallestSet::new(track);
        for (node, capacity) in &ads {
            set.merge(BuffAd { node: NodeId::new(*node), capacity: *capacity });
        }
        let entries = set.entries();
        prop_assert!(entries.len() <= track);
        for w in entries.windows(2) {
            prop_assert!((w[0].capacity, w[0].node) <= (w[1].capacity, w[1].node));
        }
        let nodes: HashSet<NodeId> = entries.iter().map(|e| e.node).collect();
        prop_assert_eq!(nodes.len(), entries.len(), "duplicate node in set");
        // The smallest entry equals the global per-node minimum.
        if let Some(first) = entries.first() {
            let global_min = ads
                .iter()
                .map(|&(_, c)| c)
                .min()
                .expect("entries nonempty implies ads nonempty");
            prop_assert_eq!(first.capacity, global_min);
        }
    }

    /// The windowed estimate never exceeds own capacity and never drops
    /// below the smallest value ever ingested.
    #[test]
    fn minbuff_estimate_bounds(
        own in 10u32..100,
        events in proptest::collection::vec((0u64..6, 0u32..8, 1u32..150), 0..80),
    ) {
        let config = MinBuffConfig {
            sample_period: DurationMs::from_secs(5),
            window: 3,
            track: 1,
            floor: None,
        };
        let mut est = MinBuffEstimator::new(NodeId::new(0), own, config);
        let mut smallest_seen = own;
        for (period, node, capacity) in events {
            est.on_receive(period, &[BuffAd {
                node: NodeId::new(node + 1),
                capacity,
            }]);
            smallest_seen = smallest_seen.min(capacity);
            let e = est.estimate();
            prop_assert!(e <= own, "estimate {e} above own {own}");
            prop_assert!(e >= smallest_seen, "estimate {e} below floor {smallest_seen}");
        }
    }

    /// Ages only move up under merges and increments.
    #[test]
    fn event_age_is_monotone(
        start in 0u32..100,
        ops in proptest::collection::vec(proptest::option::of(0u32..150), 0..50),
    ) {
        let mut e = ev(0, 0, start);
        let mut last = e.age();
        for op in ops {
            match op {
                Some(other) => e.merge_age(other),
                None => e.increment_age(),
            }
            prop_assert!(e.age() >= last);
            last = e.age();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `EventBuffer` agrees with the naive model on every operation:
    /// the same victims in the same order, the same dedup answers, the
    /// same would-drop predictions and the same snapshot order. Capacities
    /// reach 99 so the position index grows several times, and ids
    /// cluster on a few origins so index probe runs collide and wrap.
    #[test]
    fn event_buffer_matches_reference_model(
        capacity in 0usize..100,
        ops in proptest::collection::vec((0u8..16, 0u32..3, 0u64..150, 0u32..14), 0..300),
    ) {
        let mut buf = EventBuffer::new(capacity);
        let mut model = ModelBuffer::new(capacity);
        let mut counted = FastHashSet::default();
        for (op, origin, seq, arg) in ops {
            let id = EventId::new(NodeId::new(origin), seq);
            match op {
                0..=5 => {
                    prop_assert_eq!(buf.insert(ev(origin, seq, arg)), model.insert(id, arg));
                }
                6 | 7 => {
                    // The receive path: probe, then insert a known-absent id.
                    let hit = buf.merge_age(id, arg);
                    prop_assert_eq!(hit, model.merge_age(id, arg));
                    if !hit {
                        let mut purged = Vec::new();
                        buf.insert_new(ev(origin, seq, arg), &mut purged);
                        prop_assert_eq!(purged, model.insert(id, arg));
                    }
                }
                8 | 9 => {
                    buf.increment_ages();
                    model.increment_ages();
                }
                10 => {
                    let mut purged = Vec::new();
                    buf.purge_age_cap(arg, &mut purged);
                    prop_assert_eq!(purged, model.purge_age_cap(arg));
                }
                11 => {
                    let capacity = (seq % 100) as usize;
                    let mut purged = Vec::new();
                    buf.set_capacity(capacity, &mut purged);
                    prop_assert_eq!(purged, model.set_capacity(capacity));
                }
                12 => {
                    if counted.contains(&id) {
                        counted.remove(&id);
                    } else {
                        counted.insert(id);
                    }
                }
                _ => {
                    let hypothetical = (seq % 100) as usize;
                    prop_assert_eq!(
                        buf.would_evict(hypothetical, &counted),
                        model.would_evict(hypothetical, &counted)
                    );
                }
            }
            prop_assert_eq!(buf.contains(id), model.slots.iter().any(|s| s.0 == id));
            let snapshot: Vec<(EventId, u32)> =
                buf.snapshot().iter().map(|e| (e.id(), e.age())).collect();
            prop_assert_eq!(snapshot, model.snapshot());
        }
    }
}
