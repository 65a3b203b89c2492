//! Byte-exact communication accounting.
//!
//! Every simulated-MPI operation records the bytes each rank injects into
//! the network, broken down by collective kind. The ledger is what the
//! communication-volume experiments (Tables 4–5) read out; it is the
//! measured counterpart of the analytic model in `omen-perf`.

use std::sync::{Arc, Mutex, MutexGuard};

/// Kind of communication operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// One-to-all broadcast.
    Bcast,
    /// All-to-one reduction.
    Reduce,
    /// Point-to-point message.
    PointToPoint,
    /// Personalized all-to-all (`MPI_Alltoallv`).
    Alltoall,
}

const NKINDS: usize = 4;

impl OpKind {
    fn index(self) -> usize {
        match self {
            OpKind::Bcast => 0,
            OpKind::Reduce => 1,
            OpKind::PointToPoint => 2,
            OpKind::Alltoall => 3,
        }
    }

    /// All kinds, for iteration.
    pub const ALL: [OpKind; NKINDS] = [
        OpKind::Bcast,
        OpKind::Reduce,
        OpKind::PointToPoint,
        OpKind::Alltoall,
    ];
}

#[derive(Default)]
struct Inner {
    bytes: [u64; NKINDS],
    calls: [u64; NKINDS],
    per_rank_sent: Vec<u64>,
}

/// Thread-safe communication ledger shared by all ranks of a world.
#[derive(Clone)]
pub struct VolumeLedger {
    inner: Arc<Mutex<Inner>>,
}

impl VolumeLedger {
    /// Creates a ledger for `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        VolumeLedger {
            inner: Arc::new(Mutex::new(Inner {
                per_rank_sent: vec![0; nranks],
                ..Default::default()
            })),
        }
    }

    /// The counters; a rank that panicked mid-record poisons the ledger.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("volume ledger poisoned")
    }

    /// Records `bytes` injected by `rank` under `kind`. `new_call` marks
    /// the start of a logical operation (an `MPI_*` invocation).
    pub fn record(&self, kind: OpKind, rank: usize, bytes: u64, new_call: bool) {
        omen_trace::add2(
            omen_trace::Counter::BytesCommunicated,
            bytes,
            omen_trace::Counter::CommCalls,
            u64::from(new_call),
        );
        let mut g = self.lock();
        g.bytes[kind.index()] += bytes;
        if new_call {
            g.calls[kind.index()] += 1;
        }
        if rank < g.per_rank_sent.len() {
            g.per_rank_sent[rank] += bytes;
        }
    }

    /// Total bytes over all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.lock().bytes.iter().sum()
    }

    /// Bytes of one kind.
    pub fn bytes(&self, kind: OpKind) -> u64 {
        self.lock().bytes[kind.index()]
    }

    /// Logical operation count of one kind.
    pub fn calls(&self, kind: OpKind) -> u64 {
        self.lock().calls[kind.index()]
    }

    /// Total logical operations (≈ MPI invocation count).
    pub fn total_calls(&self) -> u64 {
        self.lock().calls.iter().sum()
    }

    /// Per-rank injected bytes (copy).
    pub fn per_rank_sent(&self) -> Vec<u64> {
        self.lock().per_rank_sent.clone()
    }

    /// Resets all counters.
    pub fn reset(&self) {
        let mut g = self.lock();
        let n = g.per_rank_sent.len();
        *g = Inner {
            per_rank_sent: vec![0; n],
            ..Default::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let l = VolumeLedger::new(4);
        l.record(OpKind::Bcast, 0, 100, true);
        l.record(OpKind::Bcast, 0, 100, false);
        l.record(OpKind::Alltoall, 2, 50, true);
        assert_eq!(l.total_bytes(), 250);
        assert_eq!(l.bytes(OpKind::Bcast), 200);
        assert_eq!(l.calls(OpKind::Bcast), 1);
        assert_eq!(l.calls(OpKind::Alltoall), 1);
        assert_eq!(l.total_calls(), 2);
        assert_eq!(l.per_rank_sent(), vec![200, 0, 50, 0]);
    }

    #[test]
    fn reset_clears() {
        let l = VolumeLedger::new(2);
        l.record(OpKind::Reduce, 1, 10, true);
        l.reset();
        assert_eq!(l.total_bytes(), 0);
        assert_eq!(l.total_calls(), 0);
        assert_eq!(l.per_rank_sent(), vec![0, 0]);
    }

    #[test]
    fn concurrent_recording() {
        let l = VolumeLedger::new(8);
        std::thread::scope(|s| {
            for r in 0..8 {
                let l = l.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        l.record(OpKind::PointToPoint, r, 3, true);
                    }
                });
            }
        });
        assert_eq!(l.total_bytes(), 8 * 3000);
        assert_eq!(l.calls(OpKind::PointToPoint), 8000);
    }
}
