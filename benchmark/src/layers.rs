//! Timing wrappers at the layer boundaries of one simulated node, and
//! the node that hosts them.
//!
//! The traced run builds every node from the crates' public
//! constructors, with a wrapper at each boundary:
//!
//! ```text
//! TimedFrame            FrameProtocol     recovery layer (or the plain frame adaptor)
//!  └ RecoverableNode
//!     └ TimedCore       GossipProtocol    lpbcast + adaptation
//!        └ AdaptiveNode
//!           └ TimedMembership  GossipMembership  FullView sampling
//! ```
//!
//! Each wrapper forwards every trait method unchanged and times only
//! `on_round`, `on_receive` and `sample`. A wrapper's self time is its
//! call's duration minus the time its inner wrapper recorded during the
//! call. The accumulators belong to one node, so the shard threads never
//! write to the same counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use agb_core::{
    FrameProtocol, GossipFrame, GossipMessage, GossipProtocol, OfferOutcome, ProtocolEvent,
};
use agb_membership::{GossipMembership, MembershipDigest, PeerSampler};
use agb_profile::MemUsage;
use agb_sim::{SimCtx, SimNode, TimerId};
use agb_types::{DetRng, DurationMs, NodeId, Payload, TimeMs};
use agb_workload::SenderProcess;

/// What a node's layer accumulators count.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    /// `PeerSampler::sample` time, ns.
    SampleNs,
    /// `PeerSampler::sample` calls.
    SampleCalls,
    /// Timed `GossipProtocol` calls, sampling included, ns.
    CoreInclusiveNs,
    /// `GossipProtocol::on_round` time, sampling excluded, ns.
    CoreRoundSelfNs,
    /// `GossipProtocol::on_round` calls.
    CoreRoundCalls,
    /// `GossipProtocol::on_receive` time, sampling excluded, ns.
    CoreReceiveSelfNs,
    /// `GossipProtocol::on_receive` calls.
    CoreReceiveCalls,
    /// `FrameProtocol::on_round` time minus the inner protocol's, ns.
    FrameRoundSelfNs,
    /// `FrameProtocol::on_round` calls.
    FrameRoundCalls,
    /// `FrameProtocol::on_receive` time minus the inner protocol's, ns.
    FrameReceiveSelfNs,
    /// `FrameProtocol::on_receive` calls.
    FrameReceiveCalls,
    /// Events carried by the messages `GossipProtocol::on_receive` got.
    EventsReceived,
    /// First deliveries those messages caused.
    GossipDeliveries,
}

const COUNTS: usize = Count::GossipDeliveries as usize + 1;

/// One node's layer accumulators. Only the thread running the node
/// writes them; relaxed atomics keep the node `Send` and `Sync`.
#[derive(Debug, Default)]
pub struct LayerAcc([AtomicU64; COUNTS]);

impl LayerAcc {
    fn add(&self, c: Count, v: u64) {
        self.0[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    fn get(&self, c: Count) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Accumulators summed over nodes; subtract two to get a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals([u64; COUNTS]);

impl LayerTotals {
    /// Sums the accumulators of every node.
    pub fn sum<'a>(accs: impl IntoIterator<Item = &'a LayerAcc>) -> Self {
        let mut t = LayerTotals::default();
        for a in accs {
            for (total, cell) in t.0.iter_mut().zip(&a.0) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        t
    }

    /// `self - earlier`, count by count.
    pub fn since(&self, earlier: &LayerTotals) -> LayerTotals {
        LayerTotals(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

impl std::ops::Index<Count> for LayerTotals {
    type Output = u64;

    fn index(&self, c: Count) -> &u64 {
        &self.0[c as usize]
    }
}

/// Times `PeerSampler::sample` on a membership view.
pub struct TimedMembership<S> {
    inner: S,
    acc: Arc<LayerAcc>,
}

impl<S> TimedMembership<S> {
    /// Wraps `inner`, accumulating into `acc`.
    pub fn new(inner: S, acc: Arc<LayerAcc>) -> Self {
        TimedMembership { inner, acc }
    }
}

impl<S: PeerSampler> PeerSampler for TimedMembership<S> {
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId> {
        let t0 = Instant::now();
        let out = self.inner.sample(rng, fanout, exclude);
        self.acc.add(Count::SampleNs, elapsed_ns(t0));
        self.acc.add(Count::SampleCalls, 1);
        out
    }

    fn contains(&self, node: NodeId) -> bool {
        self.inner.contains(node)
    }

    fn view_size(&self) -> usize {
        self.inner.view_size()
    }

    fn view(&self) -> Vec<NodeId> {
        self.inner.view()
    }
}

impl<S: GossipMembership> GossipMembership for TimedMembership<S> {
    fn make_digest(&self, rng: &mut DetRng) -> MembershipDigest {
        self.inner.make_digest(rng)
    }

    fn observe_gossip(&mut self, sender: NodeId, digest: &MembershipDigest, rng: &mut DetRng) {
        self.inner.observe_gossip(sender, digest, rng);
    }

    fn evict(&mut self, node: NodeId, rng: &mut DetRng) {
        self.inner.evict(node, rng);
    }

    fn on_round(&mut self) {
        self.inner.on_round();
    }

    fn make_leave_digest(&self) -> MembershipDigest {
        self.inner.make_leave_digest()
    }
}

/// Times the gossip protocol's `on_round` and `on_receive`, and counts
/// the events it receives and the first deliveries they cause.
pub struct TimedCore<P> {
    inner: P,
    acc: Arc<LayerAcc>,
}

impl<P> TimedCore<P> {
    /// Wraps `inner`, accumulating into `acc`.
    pub fn new(inner: P, acc: Arc<LayerAcc>) -> Self {
        TimedCore { inner, acc }
    }

    /// Runs `f`, recording its duration minus the sampling done inside
    /// it into `self_ns`, and its full duration into the inclusive total.
    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R, self_ns: Count) -> R {
        let sampled0 = self.acc.get(Count::SampleNs);
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let ns = elapsed_ns(t0);
        let sampled = self.acc.get(Count::SampleNs) - sampled0;
        self.acc.add(self_ns, ns.saturating_sub(sampled));
        self.acc.add(Count::CoreInclusiveNs, ns);
        out
    }
}

impl<P: GossipProtocol> TimedCore<P> {
    /// Counts the first deliveries of events that arrived from a peer.
    fn count_deliveries(&self, events: &[ProtocolEvent]) {
        let me = self.inner.node_id();
        let n = events
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::Delivered { from, .. } if *from != me))
            .count();
        self.acc.add(Count::GossipDeliveries, n as u64);
    }
}

impl<P: GossipProtocol> GossipProtocol for TimedCore<P> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        self.inner.offer(payload, now)
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipMessage)> {
        self.acc.add(Count::CoreRoundCalls, 1);
        self.timed(|p| p.on_round(now), Count::CoreRoundSelfNs)
    }

    fn on_receive(&mut self, from: NodeId, msg: GossipMessage, now: TimeMs) {
        self.acc.add(Count::CoreReceiveCalls, 1);
        self.acc.add(Count::EventsReceived, msg.events.len() as u64);
        self.timed(|p| p.on_receive(from, msg, now), Count::CoreReceiveSelfNs);
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        let events = self.inner.drain_events();
        self.count_deliveries(&events);
        events
    }

    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>) {
        let start = out.len();
        self.inner.drain_events_into(out);
        self.count_deliveries(&out[start..]);
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.inner.set_buffer_capacity(capacity, now);
    }

    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        self.inner.allowed_rate()
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn gossip_period(&self) -> DurationMs {
        self.inner.gossip_period()
    }

    fn avg_age(&self) -> Option<f64> {
        self.inner.avg_age()
    }

    fn avg_tokens(&self) -> Option<f64> {
        self.inner.avg_tokens()
    }

    fn min_buff_estimate(&self) -> Option<u32> {
        self.inner.min_buff_estimate()
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.inner.membership_view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipMessage)> {
        self.inner.leave(now)
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.inner.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, MemUsage)> {
        self.inner.mem_breakdown()
    }
}

/// Times the frame-level protocol's `on_round` and `on_receive`; its self
/// time excludes the [`TimedCore`] calls made inside it.
pub struct TimedFrame<P> {
    inner: P,
    acc: Arc<LayerAcc>,
}

impl<P> TimedFrame<P> {
    /// Wraps `inner`, accumulating into `acc`.
    pub fn new(inner: P, acc: Arc<LayerAcc>) -> Self {
        TimedFrame { inner, acc }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R, self_ns: Count) -> R {
        let core0 = self.acc.get(Count::CoreInclusiveNs);
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let ns = elapsed_ns(t0);
        let core = self.acc.get(Count::CoreInclusiveNs) - core0;
        self.acc.add(self_ns, ns.saturating_sub(core));
        out
    }
}

impl<P: FrameProtocol> FrameProtocol for TimedFrame<P> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        self.inner.offer(payload, now)
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.acc.add(Count::FrameRoundCalls, 1);
        self.timed(|p| p.on_round(now), Count::FrameRoundSelfNs)
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        now: TimeMs,
    ) -> Vec<(NodeId, GossipFrame)> {
        self.acc.add(Count::FrameReceiveCalls, 1);
        self.timed(
            |p| p.on_receive(from, frame, now),
            Count::FrameReceiveSelfNs,
        )
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        self.inner.drain_events()
    }

    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>) {
        self.inner.drain_events_into(out);
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.inner.set_buffer_capacity(capacity, now);
    }

    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        self.inner.allowed_rate()
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn gossip_period(&self) -> DurationMs {
        self.inner.gossip_period()
    }

    fn avg_age(&self) -> Option<f64> {
        self.inner.avg_age()
    }

    fn avg_tokens(&self) -> Option<f64> {
        self.inner.avg_tokens()
    }

    fn min_buff_estimate(&self) -> Option<u32> {
        self.inner.min_buff_estimate()
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.inner.membership_view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.inner.leave(now)
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.inner.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, MemUsage)> {
        self.inner.mem_breakdown()
    }
}

const ROUND: TimerId = TimerId(1);
const ARRIVAL: TimerId = TimerId(2);

/// A simulated host driving a wrapped protocol stack exactly as the
/// workload crate's cluster node does on a full-membership group without
/// tracing, failure detection or churn: the same timers, sends and event
/// drains in the same order, so the engine checksum is the same.
pub struct TracedNode {
    protocol: Box<dyn FrameProtocol + Send>,
    sender: Option<SenderProcess>,
    payload: Payload,
    period: DurationMs,
    /// Protocol events since the last post-event hook.
    pub pending: Vec<ProtocolEvent>,
    /// This node's layer accumulators.
    pub acc: Arc<LayerAcc>,
}

impl TracedNode {
    /// A node whose gossip round fires every `period`, first at `period`.
    pub fn new(
        protocol: Box<dyn FrameProtocol + Send>,
        sender: Option<SenderProcess>,
        payload: Payload,
        period: DurationMs,
        acc: Arc<LayerAcc>,
    ) -> Self {
        TracedNode {
            protocol,
            sender,
            payload,
            period,
            pending: Vec::new(),
            acc,
        }
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.protocol.node_id()
    }

    /// Offers refused so far by the blocked sender application.
    pub fn refused(&self) -> u64 {
        self.sender.as_ref().map_or(0, SenderProcess::suppressed)
    }

    fn drain(&mut self) {
        self.protocol.drain_events_into(&mut self.pending);
    }
}

impl SimNode for TracedNode {
    type Msg = GossipFrame;

    fn on_start(&mut self, ctx: &mut SimCtx<'_, GossipFrame>) {
        ctx.set_periodic_timer(ROUND, self.period, self.period);
        if let Some(sender) = &self.sender {
            ctx.set_timer(ARRIVAL, sender.next_at().since(ctx.now()));
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut SimCtx<'_, GossipFrame>) {
        let now = ctx.now();
        match timer {
            ROUND => {
                for (to, msg) in self.protocol.on_round(now) {
                    ctx.send(to, msg);
                }
                if let Some(sender) = &self.sender {
                    ctx.set_timer(ARRIVAL, sender.next_at().since(now));
                }
                self.drain();
            }
            ARRIVAL => {
                if let Some(sender) = &mut self.sender {
                    let offers = sender.poll(now, self.protocol.pending_len());
                    for _ in 0..offers {
                        self.protocol.offer(self.payload.clone(), now);
                    }
                    ctx.set_timer(ARRIVAL, sender.next_at().since(now));
                }
                self.drain();
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, frame: GossipFrame, ctx: &mut SimCtx<'_, GossipFrame>) {
        for (to, reply) in self.protocol.on_receive(from, frame, ctx.now()) {
            ctx.send(to, reply);
        }
        self.drain();
    }
}
