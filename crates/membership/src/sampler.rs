//! The peer-sampling abstraction used by the gossip protocols.

use agb_profile::MemUsage;
use agb_types::{DetRng, NodeId};

/// Source of random gossip targets.
///
/// Implementations must never return the excluded node (the caller itself)
/// and must not return duplicates within one call.
///
/// # Example
///
/// Samplers compose: protocols take any `PeerSampler` (plain views,
/// locality-biased wrappers) behind the same four methods.
///
/// ```
/// use agb_membership::{FullView, PeerSampler};
/// use agb_types::{DetRng, NodeId};
/// use rand::SeedableRng;
///
/// fn fanout_targets(s: &dyn PeerSampler, rng: &mut DetRng) -> Vec<NodeId> {
///     s.sample(rng, 4, NodeId::new(0))
/// }
///
/// let view = FullView::new(12);
/// let mut rng = DetRng::seed_from_u64(2);
/// assert_eq!(fanout_targets(&view, &mut rng).len(), 4);
/// ```
pub trait PeerSampler {
    /// Draws up to `fanout` distinct peers, excluding `exclude`.
    ///
    /// Returns fewer than `fanout` peers when the view is too small.
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId>;

    /// Whether `node` is currently in the view.
    fn contains(&self, node: NodeId) -> bool;

    /// Number of nodes in the view.
    fn view_size(&self) -> usize;

    /// Snapshot of the current view (order unspecified).
    fn view(&self) -> Vec<NodeId>;

    /// Resident bytes and entries the view itself stores. The default is
    /// nothing, right for views computed from their size ([`FullView`]);
    /// a view that keeps a member list must override it.
    ///
    /// [`FullView`]: crate::FullView
    fn view_mem_usage(&self) -> MemUsage {
        MemUsage::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullView;
    use rand::SeedableRng;

    // Trait-object safety: the protocols store samplers behind `Box<dyn>`.
    #[test]
    fn peer_sampler_is_object_safe() {
        let boxed: Box<dyn PeerSampler> = Box::new(FullView::new(4));
        let mut rng = DetRng::seed_from_u64(0);
        let sample = boxed.sample(&mut rng, 2, NodeId::new(0));
        assert_eq!(sample.len(), 2);
        assert_eq!(boxed.view_size(), 4);
    }
}
