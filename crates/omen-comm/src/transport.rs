//! The [`Transport`] seam: raw message delivery beneath
//! [`Comm`](crate::mpi_sim::Comm).
//!
//! [`Comm`](crate::mpi_sim::Comm) implements the *semantics* of the
//! paper's communication layer — tag matching, collectives, byte-exact
//! [`VolumeLedger`](crate::volume::VolumeLedger) accounting — while this
//! module owns the *mechanics* of moving an [`Envelope`] from one rank to
//! another. Today the only implementation is [`ChannelTransport`]
//! (`std::sync::mpsc` channels between in-process rank threads, exactly what the
//! SC'19 artifact's laptop-scale harness needs); the trait is the seam
//! where sockets or shared-memory rings plug in without touching the
//! plans or the driver.
//!
//! A transport is deliberately dumb: unordered with respect to tags,
//! reliable, and free of any accounting. Everything the paper measures
//! (Tables 4/5 volumes, §6.1 collectives) lives one layer up in `Comm`.

use omen_linalg::C64;
use std::sync::mpsc::{channel, Receiver, Sender};

/// One in-flight message: source rank, user tag, and the complex payload.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Caller-chosen tag (matched by [`Comm::recv`](crate::Comm::recv)).
    pub tag: u64,
    /// The data. Complex f64 pairs, 16 bytes each on the wire.
    pub payload: Vec<C64>,
}

/// Raw point-to-point delivery between ranks of one world.
///
/// Implementations must deliver every sent envelope exactly once and
/// preserve per-(src → dest) ordering, but need not order across sources
/// or tags — [`Comm`](crate::Comm) buffers out-of-order envelopes in its
/// pending queue. `send` must not block on the receiver (the simulated
/// collectives post all sends before receiving); `recv_any` blocks until
/// an envelope arrives.
pub trait Transport: Send {
    /// This endpoint's rank id.
    fn rank(&self) -> usize;

    /// World size (number of ranks).
    fn size(&self) -> usize;

    /// Delivers `payload` to `dest` (sending to `self.rank()` is legal
    /// and loops back).
    fn send(&self, dest: usize, tag: u64, payload: Vec<C64>);

    /// Blocks until the next envelope addressed to this rank arrives.
    fn recv_any(&self) -> Envelope;
}

/// In-process transport: one unbounded `mpsc` channel per rank.
///
/// Built in sets via [`channel_world`]; each instance holds every rank's
/// sender plus its own receiver, so a world is just `nranks` of these
/// moved onto `nranks` threads.
pub struct ChannelTransport {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, dest: usize, tag: u64, payload: Vec<C64>) {
        self.senders[dest]
            .send(Envelope {
                src: self.rank,
                tag,
                payload,
            })
            .expect("receiver alive");
    }

    fn recv_any(&self) -> Envelope {
        self.receiver.recv().expect("sender alive")
    }
}

/// Builds a fully-connected in-process world of `nranks` endpoints,
/// returned in rank order.
pub fn channel_world(nranks: usize) -> Vec<ChannelTransport> {
    assert!(nranks >= 1, "a world needs at least one rank");
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| ChannelTransport {
            rank,
            size: nranks,
            senders: senders.clone(),
            receiver,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::c64;

    #[test]
    fn channel_world_routes_by_rank() {
        let world = channel_world(3);
        assert_eq!(world.len(), 3);
        for (r, t) in world.iter().enumerate() {
            assert_eq!(t.rank(), r);
            assert_eq!(t.size(), 3);
        }
        std::thread::scope(|s| {
            for t in world {
                s.spawn(move || {
                    let next = (t.rank() + 1) % t.size();
                    t.send(next, 40 + t.rank() as u64, vec![c64(t.rank() as f64, 0.0)]);
                    let env = t.recv_any();
                    let prev = (t.rank() + t.size() - 1) % t.size();
                    assert_eq!(env.src, prev);
                    assert_eq!(env.tag, 40 + prev as u64);
                    assert_eq!(env.payload, vec![c64(prev as f64, 0.0)]);
                });
            }
        });
    }

    #[test]
    fn self_send_loops_back() {
        let mut world = channel_world(1);
        let t = world.remove(0);
        t.send(0, 9, vec![c64(2.5, -1.0); 4]);
        let env = t.recv_any();
        assert_eq!((env.src, env.tag, env.payload.len()), (0, 9, 4));
    }

    #[test]
    fn per_pair_ordering_is_preserved() {
        let mut world = channel_world(2);
        let b = world.pop().unwrap();
        let a = world.pop().unwrap();
        for i in 0..10 {
            a.send(1, i, vec![c64(i as f64, 0.0)]);
        }
        for i in 0..10 {
            let env = b.recv_any();
            assert_eq!(env.tag, i, "FIFO per (src, dest) pair");
        }
    }
}
