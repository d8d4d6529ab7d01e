//! The bounded duplicate-suppression digest (`eventIds` in Figure 1).

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use agb_types::{EventId, FastHashMap};

/// FIFO-bounded set of already-seen event identifiers.
///
/// Figure 1 garbage-collects `eventIds` by removing the *oldest* elements
/// when the bound is exceeded; ids are much cheaper than events, so this
/// buffer is typically far larger than the event buffer. Evicting an id too
/// early can cause a circulating copy to be re-delivered — the paper accepts
/// this, and so do we (the metrics layer counts deliveries once per node).
///
/// Membership is a bitmap per 64-sequence block of each origin: sequence
/// numbers are dense per origin, so a window of ~1 500 ids fits in a few
/// dozen words instead of a 1 500-slot hash set. The set stays exact for
/// every input, and hostile sequence numbers cost at worst one block per
/// remembered id, so memory stays bounded by the capacity.
///
/// # Example
///
/// ```
/// use agb_core::EventIdBuffer;
/// use agb_types::{EventId, NodeId};
///
/// let mut ids = EventIdBuffer::new(2);
/// let id = |s| EventId::new(NodeId::new(0), s);
/// assert!(ids.insert(id(0)));
/// assert!(!ids.insert(id(0))); // duplicate
/// ids.insert(id(1));
/// ids.insert(id(2)); // evicts id(0)
/// assert!(!ids.contains(id(0)));
/// assert!(ids.contains(id(2)));
/// ```
#[derive(Debug, Clone)]
pub struct EventIdBuffer {
    capacity: usize,
    /// Remembered ids, oldest first: the expiry order.
    order: VecDeque<EventId>,
    /// `(origin, seq / 64)` → bit `seq % 64` set for each remembered id.
    blocks: FastHashMap<EventId, u64>,
}

/// The block key and bit of `id` in [`EventIdBuffer::blocks`].
fn block_of(id: EventId) -> (EventId, u64) {
    (
        EventId::new(id.origin(), id.seq() >> 6),
        1 << (id.seq() & 63),
    )
}

impl EventIdBuffer {
    /// Creates a buffer remembering at most `capacity` ids.
    ///
    /// Storage grows on demand: a large-scale simulation hosts one of
    /// these per node, and eager per-node reservations of the full bound
    /// dominate resident memory long before the dedup window fills.
    pub fn new(capacity: usize) -> Self {
        EventIdBuffer {
            capacity,
            order: VecDeque::new(),
            blocks: FastHashMap::default(),
        }
    }

    /// Records `id` as seen. Returns `true` if it was new, `false` if it was
    /// already known (i.e. the incoming event is a duplicate).
    pub fn insert(&mut self, id: EventId) -> bool {
        if self.capacity == 0 {
            return true; // Degenerate: remembers nothing, everything is new.
        }
        let (key, bit) = block_of(id);
        let word = self.blocks.entry(key).or_insert(0);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.order.push_back(id);
        if self.order.len() > self.capacity {
            let old = self.order.pop_front().expect("over capacity");
            let (key, bit) = block_of(old);
            if let Entry::Occupied(mut word) = self.blocks.entry(key) {
                *word.get_mut() &= !bit;
                if *word.get() == 0 {
                    word.remove();
                }
            }
        }
        true
    }

    /// Whether `id` has been seen (and not yet evicted).
    pub fn contains(&self, id: EventId) -> bool {
        let (key, bit) = block_of(id);
        self.blocks.get(&key).is_some_and(|word| word & bit != 0)
    }

    /// Number of remembered ids.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no ids are remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl agb_profile::MemReport for EventIdBuffer {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        // The FIFO queue holds each remembered id once; the bitmap table
        // holds one key and word per live block (plus its control byte).
        use std::mem::size_of;
        let queue = self.order.capacity() * size_of::<EventId>();
        let blocks = self.blocks.capacity() * (size_of::<(EventId, u64)>() + 1);
        agb_profile::MemUsage::new((queue + blocks) as u64, self.order.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::NodeId;

    fn id(s: u64) -> EventId {
        EventId::new(NodeId::new(1), s)
    }

    #[test]
    fn detects_duplicates() {
        let mut b = EventIdBuffer::new(10);
        assert!(b.insert(id(1)));
        assert!(!b.insert(id(1)));
        assert!(b.contains(id(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evicts_fifo_when_full() {
        let mut b = EventIdBuffer::new(3);
        for s in 0..5 {
            b.insert(id(s));
        }
        assert_eq!(b.len(), 3);
        assert!(!b.contains(id(0)));
        assert!(!b.contains(id(1)));
        assert!(b.contains(id(2)));
        assert!(b.contains(id(4)));
    }

    #[test]
    fn evicted_id_reads_as_new_again() {
        let mut b = EventIdBuffer::new(1);
        b.insert(id(0));
        b.insert(id(1)); // evicts 0
        assert!(b.insert(id(0)), "evicted id must be accepted as new");
    }

    #[test]
    fn zero_capacity_never_remembers() {
        let mut b = EventIdBuffer::new(0);
        assert!(b.insert(id(0)));
        assert!(b.insert(id(0)));
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 0);
    }
}
