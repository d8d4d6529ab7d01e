//! The wire legs of a traced run: the frame codec and a loopback UDP
//! socket pair, timed on their own.
//!
//! Every traced run reports them. On `udp-overload` they time the work
//! behind each datagram of the run; the simulator exchanges frames
//! without encoding them, so on the sims they only give the codec's cost
//! on frames of the workload's shape.

use std::io;
use std::time::{Duration, Instant};

use agb_core::{Event, GossipFrame, GossipMessage, IHaveDigest};
use agb_membership::MembershipDigest;
use agb_runtime::wire::{decode_frame_interned, FrameEncoder};
use agb_runtime::{Transport, UdpTransport};
use agb_types::{EventId, NodeId, Payload, PayloadInterner};

use crate::report::Report;
use crate::stats::median;

/// Payload size of every workload's broadcasts.
pub const PAYLOAD_BYTES: usize = 64;
/// Most events a frame carries (the workloads' buffer size).
const MAX_EVENTS: u64 = 60;

/// A gossip frame carrying `events` 64 B events and, when `ihave`, a
/// 32-id recovery digest, like the workloads' frames.
pub fn frame(events: u64, ihave: bool) -> GossipFrame {
    let payload = Payload::from(vec![7u8; PAYLOAD_BYTES]);
    let list: Vec<Event> = (0..events)
        .map(|s| {
            Event::with_age(
                EventId::new(NodeId::new((s % 2) as u32), s),
                (s % 11) as u32,
                payload.clone(),
            )
        })
        .collect();
    GossipFrame::Gossip {
        msg: GossipMessage {
            sender: NodeId::new(3),
            sample_period: 4,
            min_buffs: Vec::new(),
            events: list.into(),
            membership: MembershipDigest::default(),
        },
        ihave: ihave.then(|| IHaveDigest {
            ids: (0..32)
                .map(|s| EventId::new(NodeId::new((s % 2) as u32), 1_000 + s))
                .collect(),
        }),
    }
}

/// The smallest frame with a recovery digest whose encoding is at least
/// `bytes` long (at most [`MAX_EVENTS`] events).
pub fn frame_of_size(bytes: f64) -> GossipFrame {
    let mut encoder = FrameEncoder::default();
    let mut events = 0;
    while (encoder.encode(&frame(events, true)).len() as f64) < bytes && events < MAX_EVENTS {
        events += 1;
    }
    frame(events, true)
}

/// Times the codec on `f` and a loopback datagram's round trip, and
/// reports `wire.encode_ns_per_frame`, `wire.decode_ns_per_frame` and
/// `transport.send_recv_ns`, checking that both give back what went in.
pub fn report_legs(report: &mut Report, f: &GossipFrame) -> io::Result<()> {
    let (encode_ns, decode_ns, ok) = codec_leg(f);
    report.check(ok, || "a decoded frame differs from the one encoded".into());
    report.num("wire.encode_ns_per_frame", "ns", encode_ns);
    report.num("wire.decode_ns_per_frame", "ns", decode_ns);
    let (send_recv_ns, ok) = socket_leg()?;
    report.check(ok, || {
        "a loopback datagram came back different or not at all".into()
    });
    report.num("transport.send_recv_ns", "ns", send_recv_ns);
    Ok(())
}

/// Median ns per call of `f` over batches of calls.
fn time_ns(mut f: impl FnMut() -> bool) -> (f64, bool) {
    const BATCHES: usize = 21;
    const CALLS: u32 = 500;
    let mut ok = true;
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            ok &= std::hint::black_box(f());
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / f64::from(CALLS));
    }
    (median(&per_call).expect("batches"), ok)
}

/// Encode and decode cost of `f`.
fn codec_leg(f: &GossipFrame) -> (f64, f64, bool) {
    let mut encoder = FrameEncoder::default();
    let bytes = encoder.encode(f);
    let (encode_ns, _) = time_ns(|| encoder.encode(std::hint::black_box(f)).len() == bytes.len());
    let mut interner = PayloadInterner::new(1024);
    let (decode_ns, ok) = time_ns(|| {
        decode_frame_interned(std::hint::black_box(&bytes), &mut interner).as_ref() == Ok(f)
    });
    (encode_ns, decode_ns, ok)
}

/// One datagram's send plus receive through a loopback `UdpTransport`
/// pair.
fn socket_leg() -> io::Result<(f64, bool)> {
    let pair = UdpTransport::bind_cluster(2)?;
    let datagram = bytes::Bytes::copy_from_slice(&[5u8; 256]);
    Ok(time_ns(|| {
        pair[0].send(NodeId::new(1), datagram.clone()).is_ok()
            && pair[1]
                .recv_timeout(Duration::from_secs(1))
                .is_some_and(|b| b.to_vec() == datagram.to_vec())
    }))
}
