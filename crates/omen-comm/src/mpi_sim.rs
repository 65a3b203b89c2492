//! In-process simulated MPI: rank threads exchanging complex payloads
//! through a pluggable [`Transport`], with every byte accounted in a
//! [`VolumeLedger`].
//!
//! The point is *not* to model network timing (`omen-perf` does) but to
//! execute the paper's two SSE communication schemes for real — same data,
//! same collectives, exact measured volumes — at laptop rank counts. This
//! is the executable counterpart of §6.1 (arXiv 1912.10024): the
//! collectives here (`bcast`, `reduce_sum`, `alltoallv`) are
//! the exact operations the Table 4/5 volume models count, and
//! [`run_world`] is the stand-in for the 10 000-node Piz Daint allocation.
//!
//! Delivery mechanics live behind the [`Transport`] trait
//! ([`ChannelTransport`](crate::transport::ChannelTransport) today);
//! `Comm` adds the MPI-shaped semantics on top: tag matching with an
//! out-of-order pending buffer, linear-fan collectives, and ledger
//! accounting where self-traffic is free.

use crate::transport::{Envelope, Transport};
use crate::volume::{OpKind, VolumeLedger};
use omen_linalg::C64;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Bytes of a complex payload.
#[inline]
fn payload_bytes(len: usize) -> u64 {
    (len * 16) as u64
}

/// A rank's communicator handle.
pub struct Comm {
    transport: Box<dyn Transport>,
    /// Out-of-order messages awaiting a matching `recv`.
    pending: RefCell<VecDeque<Envelope>>,
    ledger: VolumeLedger,
}

impl Comm {
    /// Wraps a transport endpoint in a communicator that records every
    /// off-rank byte in `ledger`.
    pub fn from_transport(transport: Box<dyn Transport>, ledger: VolumeLedger) -> Comm {
        Comm {
            transport,
            pending: RefCell::new(VecDeque::new()),
            ledger,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// The shared ledger.
    pub fn ledger(&self) -> &VolumeLedger {
        &self.ledger
    }

    /// Sends `payload` to `dest` with `tag`, recording the bytes.
    pub fn send(&self, dest: usize, tag: u64, payload: Vec<C64>) {
        self.send_kind(dest, tag, payload, OpKind::PointToPoint, true)
    }

    fn send_kind(&self, dest: usize, tag: u64, payload: Vec<C64>, kind: OpKind, new_call: bool) {
        if dest != self.rank() {
            self.ledger
                .record(kind, self.rank(), payload_bytes(payload.len()), new_call);
        }
        self.transport.send(dest, tag, payload);
    }

    /// Receives the message with `(src, tag)`, buffering mismatches.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<C64> {
        // Check the pending buffer first.
        {
            let mut pend = self.pending.borrow_mut();
            if let Some(pos) = pend.iter().position(|m| m.src == src && m.tag == tag) {
                return pend.remove(pos).unwrap().payload;
            }
        }
        loop {
            let msg = self.transport.recv_any();
            if msg.src == src && msg.tag == tag {
                return msg.payload;
            }
            self.pending.borrow_mut().push_back(msg);
        }
    }

    /// Broadcast from `root`: linear fan-out (volume `(P−1)·n`, the model
    /// §6.1.2 uses for the D^≷ distribution).
    pub fn bcast(&self, root: usize, tag: u64, data: &mut Vec<C64>) {
        if self.rank() == root {
            for r in 0..self.size() {
                if r != root {
                    self.send_kind(
                        r,
                        tag,
                        data.clone(),
                        OpKind::Bcast,
                        r == (root + 1) % self.size(),
                    );
                }
            }
        } else {
            *data = self.recv(root, tag);
        }
    }

    /// Sum-reduction to `root` (each non-root sends its buffer: volume
    /// `(P−1)·n`).
    pub fn reduce_sum(&self, root: usize, tag: u64, data: &mut [C64]) {
        if self.rank() == root {
            for r in 0..self.size() {
                if r != root {
                    let part = self.recv(r, tag);
                    assert_eq!(part.len(), data.len(), "reduce length mismatch");
                    for (d, p) in data.iter_mut().zip(part) {
                        *d += p;
                    }
                }
            }
        } else {
            self.send_kind(
                root,
                tag,
                data.to_vec(),
                OpKind::Reduce,
                self.rank() == (root + 1) % self.size(),
            );
        }
    }

    /// Personalized all-to-all: rank `r` receives `sendbufs[r]` from every
    /// rank. One logical `MPI_Alltoallv` invocation (counted at rank 0).
    pub fn alltoallv(&self, tag: u64, sendbufs: Vec<Vec<C64>>) -> Vec<Vec<C64>> {
        assert_eq!(sendbufs.len(), self.size(), "need one buffer per rank");
        let mut out: Vec<Vec<C64>> = (0..self.size()).map(|_| Vec::new()).collect();
        for (r, buf) in sendbufs.into_iter().enumerate() {
            if r == self.rank() {
                out[r] = buf;
            } else {
                self.send_kind(
                    r,
                    tag,
                    buf,
                    OpKind::Alltoall,
                    self.rank() == 0 && r == (self.rank() + 1) % self.size(),
                );
            }
        }
        for (r, slot) in out.iter_mut().enumerate() {
            if r != self.rank() {
                *slot = self.recv(r, tag);
            }
        }
        out
    }
}

/// Runs `f` on `nranks` simulated ranks (one OS thread each) and returns
/// the per-rank results in rank order. Each rank gets a
/// [`ChannelTransport`](crate::transport::ChannelTransport) endpoint of a
/// fully-connected in-process world wrapped in a [`Comm`] sharing
/// `ledger`.
pub fn run_world<R, F>(nranks: usize, ledger: VolumeLedger, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Sync,
{
    run_world_on(&mut vec![(); nranks], ledger, |comm, _| f(comm))
}

/// [`run_world`] over one persistent state per rank: rank `r` runs `f`
/// with exclusive access to `states[r]`, so buffers a plan sized on its
/// first execution stay warm for the next.
pub(crate) fn run_world_on<S, R, F>(states: &mut [S], ledger: VolumeLedger, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(Comm, &mut S) -> R + Sync,
{
    assert!(!states.is_empty(), "a world needs at least one rank");
    let world = crate::transport::channel_world(states.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = world
            .into_iter()
            .zip(states.iter_mut())
            .map(|(transport, state)| {
                let ledger = ledger.clone();
                let f = &f;
                s.spawn(move || f(Comm::from_transport(Box::new(transport), ledger), state))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::c64;

    #[test]
    fn send_recv_round_trip() {
        let ledger = VolumeLedger::new(2);
        let results = run_world(2, ledger.clone(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![c64(1.0, 2.0); 10]);
                comm.recv(1, 8)
            } else {
                let got = comm.recv(0, 7);
                comm.send(0, 8, vec![c64(3.0, 4.0); 5]);
                got
            }
        });
        assert_eq!(results[1].len(), 10);
        assert_eq!(results[0].len(), 5);
        assert_eq!(results[1][0], c64(1.0, 2.0));
        // 10 + 5 complex numbers = 240 bytes.
        assert_eq!(ledger.bytes(OpKind::PointToPoint), 240);
        assert_eq!(ledger.calls(OpKind::PointToPoint), 2);
    }

    #[test]
    fn out_of_order_tags_buffered() {
        let ledger = VolumeLedger::new(2);
        let results = run_world(2, ledger, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![c64(1.0, 0.0)]);
                comm.send(1, 2, vec![c64(2.0, 0.0)]);
                0.0
            } else {
                // Receive in reverse order.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                a[0].re * 10.0 + b[0].re
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn bcast_delivers_and_counts() {
        let p = 5;
        let ledger = VolumeLedger::new(p);
        let results = run_world(p, ledger.clone(), |comm| {
            let mut data = if comm.rank() == 2 {
                vec![c64(9.0, -1.0); 8]
            } else {
                Vec::new()
            };
            comm.bcast(2, 42, &mut data);
            data[3]
        });
        for r in results {
            assert_eq!(r, c64(9.0, -1.0));
        }
        // Linear broadcast: (P−1) · 8 complex = 4 · 128 bytes.
        assert_eq!(ledger.bytes(OpKind::Bcast), 4 * 128);
        assert_eq!(ledger.calls(OpKind::Bcast), 1);
    }

    #[test]
    fn reduce_sums() {
        let p = 4;
        let ledger = VolumeLedger::new(p);
        let results = run_world(p, ledger.clone(), |comm| {
            let mut data = vec![c64(comm.rank() as f64, 1.0); 3];
            comm.reduce_sum(0, 5, &mut data);
            data[0]
        });
        // 0+1+2+3 = 6 real, 4 imaginary.
        assert_eq!(results[0], c64(6.0, 4.0));
        assert_eq!(ledger.calls(OpKind::Reduce), 1);
        assert_eq!(ledger.bytes(OpKind::Reduce), 3 * 3 * 16);
    }

    #[test]
    fn alltoallv_exchanges() {
        let p = 4;
        let ledger = VolumeLedger::new(p);
        let results = run_world(p, ledger.clone(), |comm| {
            let bufs: Vec<Vec<C64>> = (0..p)
                .map(|dest| vec![c64(comm.rank() as f64, dest as f64); comm.rank() + 1])
                .collect();
            let got = comm.alltoallv(11, bufs);
            // got[src] came from src, with my rank as dest coordinate.
            (0..p)
                .map(|src| {
                    assert_eq!(got[src].len(), src + 1);
                    assert_eq!(got[src][0], c64(src as f64, comm.rank() as f64));
                    got[src].len()
                })
                .sum::<usize>()
        });
        assert_eq!(results, vec![10, 10, 10, 10]);
        assert_eq!(ledger.calls(OpKind::Alltoall), 1);
        // Each rank sends (rank+1) elements to 3 others: Σ 3·(r+1)·16.
        let expect: u64 = (0..4).map(|r| 3 * (r as u64 + 1) * 16).sum();
        assert_eq!(ledger.bytes(OpKind::Alltoall), expect);
    }

    #[test]
    fn single_rank_world() {
        let ledger = VolumeLedger::new(1);
        let results = run_world(1, ledger.clone(), |comm| {
            let mut d = vec![c64(1.0, 1.0)];
            comm.bcast(0, 1, &mut d);
            comm.reduce_sum(0, 2, &mut d);
            let out = comm.alltoallv(3, vec![d.clone()]);
            out[0][0]
        });
        assert_eq!(results[0], c64(1.0, 1.0));
        assert_eq!(ledger.total_bytes(), 0, "self-traffic is free");
    }

    /// A custom transport plugs straight into `Comm`: collectives and
    /// ledger accounting are transport-agnostic.
    #[test]
    fn custom_transport_behind_comm() {
        use crate::transport::channel_world;
        let p = 3;
        let ledger = VolumeLedger::new(p);
        let comms: Vec<Comm> = channel_world(p)
            .into_iter()
            .map(|t| Comm::from_transport(Box::new(t), ledger.clone()))
            .collect();
        std::thread::scope(|s| {
            for comm in comms {
                s.spawn(move || {
                    let mut data = vec![c64(comm.rank() as f64, 0.0); 2];
                    comm.reduce_sum(0, 4, &mut data);
                    if comm.rank() == 0 {
                        assert_eq!(data[0], c64(3.0, 0.0));
                    }
                });
            }
        });
        assert_eq!(ledger.calls(OpKind::Reduce), 1);
        assert_eq!(ledger.bytes(OpKind::Reduce), 2 * 2 * 16);
    }
}
