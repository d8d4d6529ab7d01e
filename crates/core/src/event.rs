//! Broadcast events and their ages.

use std::sync::Arc;

use agb_types::{EventId, Payload};

/// A broadcast event as buffered and gossiped by the protocol (Figure 1's
/// `e`): identifier, age, and opaque payload.
///
/// **Age** is the paper's central bookkeeping device: it counts how many
/// gossip rounds a copy of the event has lived through, which tracks how
/// many node-to-node forwarding steps the event has taken and therefore how
/// widely it has been disseminated. Ages are max-merged across duplicate
/// copies, so the age at any node lower-bounds the global dissemination
/// level.
///
/// # Example
///
/// ```
/// use agb_core::Event;
/// use agb_types::{EventId, NodeId, Payload};
///
/// let mut e = Event::new(EventId::new(NodeId::new(1), 0), Payload::from_static(b"tick"));
/// assert_eq!(e.age(), 0);
/// e.increment_age();
/// e.merge_age(5);
/// assert_eq!(e.age(), 5);
/// e.merge_age(2); // lower ages never win
/// assert_eq!(e.age(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    id: EventId,
    age: u32,
    payload: Payload,
}

impl Event {
    /// Creates a fresh event with age zero.
    pub fn new(id: EventId, payload: Payload) -> Self {
        Event {
            id,
            age: 0,
            payload,
        }
    }

    /// Creates an event with an explicit age (used when decoding from the
    /// wire).
    pub fn with_age(id: EventId, age: u32, payload: Payload) -> Self {
        Event { id, age, payload }
    }

    /// The globally unique event identifier.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Current age in gossip rounds / forwarding hops.
    pub fn age(&self) -> u32 {
        self.age
    }

    /// The opaque application payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Moves the payload out (the buffer stores ids, ages and payloads
    /// in separate arrays).
    pub(crate) fn into_payload(self) -> Payload {
        self.payload
    }

    /// Increments the age by one round (Figure 1, "update ages").
    pub fn increment_age(&mut self) {
        self.age = self.age.saturating_add(1);
    }

    /// Max-merges the age of a duplicate copy (Figure 1, receive path).
    pub fn merge_age(&mut self, other_age: u32) {
        self.age = self.age.max(other_age);
    }

    /// Approximate wire size in bytes: id (origin u32 + seq u64) + age (u32)
    /// + payload.
    pub fn wire_size(&self) -> usize {
        4 + 8 + 4 + self.payload.len()
    }
}

/// An immutable, cheaply clonable list of events — the payload of a
/// gossip message.
///
/// lpbcast forwards the *same* buffer snapshot to `F` peers every round;
/// with a plain `Vec<Event>` that meant `F` deep copies per node per
/// round, which profiling showed was the single largest cost at 10k+
/// simulated nodes. `EventList` shares one snapshot allocation across all
/// `F` outgoing messages (and across the in-flight copies in the
/// simulator's event queue); receivers iterate it by reference and clone
/// only the events they actually store.
///
/// # Example
///
/// ```
/// use agb_core::{Event, EventList};
/// use agb_types::{EventId, NodeId, Payload};
///
/// let list: EventList = vec![Event::new(
///     EventId::new(NodeId::new(1), 0),
///     Payload::from_static(b"x"),
/// )]
/// .into();
/// let shared = list.clone(); // no deep copy
/// assert_eq!(shared.len(), 1);
/// assert_eq!(shared[0].id(), list[0].id());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventList(Arc<[Event]>);

impl EventList {
    /// The empty list.
    pub fn new() -> Self {
        EventList(Arc::from(Vec::new()))
    }

    /// The events as a slice.
    pub fn as_slice(&self) -> &[Event] {
        &self.0
    }
}

impl Default for EventList {
    fn default() -> Self {
        EventList::new()
    }
}

impl From<Vec<Event>> for EventList {
    fn from(events: Vec<Event>) -> Self {
        EventList(events.into())
    }
}

impl From<&[Event]> for EventList {
    fn from(events: &[Event]) -> Self {
        EventList(events.into())
    }
}

impl FromIterator<Event> for EventList {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        EventList(iter.into_iter().collect())
    }
}

impl std::ops::Deref for EventList {
    type Target = [Event];

    fn deref(&self) -> &[Event] {
        &self.0
    }
}

impl IntoIterator for EventList {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    /// Iterates owned events (clones out of the shared slice; meant for
    /// tests and cold paths — hot paths iterate by reference).
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(&*self.0).into_iter()
    }
}

impl<'a> IntoIterator for &'a EventList {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq<Vec<Event>> for EventList {
    fn eq(&self, other: &Vec<Event>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<EventList> for Vec<Event> {
    fn eq(&self, other: &EventList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::NodeId;

    fn id(n: u32, s: u64) -> EventId {
        EventId::new(NodeId::new(n), s)
    }

    #[test]
    fn event_list_shares_storage() {
        let list: EventList = vec![Event::new(id(0, 0), Payload::new())].into();
        let shared = list.clone();
        assert_eq!(list, shared);
        assert!(std::ptr::eq(list.as_slice(), shared.as_slice()));
        assert_eq!(list.len(), 1);
        assert!(!list.is_empty());
        assert!(EventList::default().is_empty());
    }

    #[test]
    fn event_list_compares_with_vec() {
        let events = vec![Event::new(id(0, 1), Payload::new())];
        let list: EventList = events.clone().into();
        assert_eq!(list, events);
        assert_eq!(events, list);
        let collected: EventList = events.iter().cloned().collect();
        assert_eq!(collected, list);
    }

    #[test]
    fn new_event_has_age_zero() {
        let e = Event::new(id(0, 1), Payload::new());
        assert_eq!(e.age(), 0);
        assert_eq!(e.id(), id(0, 1));
        assert!(e.payload().is_empty());
    }

    #[test]
    fn age_increments_and_saturates() {
        let mut e = Event::with_age(id(0, 0), u32::MAX - 1, Payload::new());
        e.increment_age();
        assert_eq!(e.age(), u32::MAX);
        e.increment_age();
        assert_eq!(e.age(), u32::MAX);
    }

    #[test]
    fn merge_takes_maximum() {
        let mut e = Event::with_age(id(0, 0), 3, Payload::new());
        e.merge_age(7);
        assert_eq!(e.age(), 7);
        e.merge_age(1);
        assert_eq!(e.age(), 7);
    }

    #[test]
    fn wire_size_counts_payload() {
        let e = Event::new(id(0, 0), Payload::from_static(b"12345"));
        assert_eq!(e.wire_size(), 16 + 5);
    }
}
