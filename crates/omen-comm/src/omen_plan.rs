//! The OMEN SSE communication scheme (§6.1.2, Fig. 5 left).
//!
//! `Nqz · Nω` rounds; in each round `(qz, ω)`:
//!
//! 1. the phonon owner **broadcasts** `D^≷(qz, ω)` to all ranks;
//! 2. every rank **sends/receives point-to-point** the `G^≷(kz−qz, E∓ω)`
//!    and `G^≷(kz+qz, E+ω)` rows its local pairs require;
//! 3. partial `Π^≷(qz, ω)` contributions are **reduced** to the owner.
//!
//! Every `G` row is replicated `O(Nqz·Nω)` times over the iteration — the
//! multiplicative communication volume the data-centric variant removes.
//!
//! A round's compute is `omen-sse`'s one untransformed loop nest,
//! [`omen_round`], over the rank's points: `Σ^≷` is bitwise
//! `sse_reference`'s at every rank count, `Π^≷` at one rank and within
//! 1e-12 at more, where the reduction sums the ranks' partials. A rank
//! keeps its `Σ^≷` atom-major over its points, as `omen_round` writes it,
//! and the assembly stores each block at its `(k, e, a)` of the atom-major
//! output.

use crate::mpi_sim::{run_world, Comm};
use crate::plan_common::{deposit_rows, reset_output};
use crate::topology::OmenGrid;
use crate::volume::VolumeLedger;
use omen_linalg::{Workspace, C64};
use omen_sse::{omen_round, DBlocks, DTensor, GBlocks, GTensor, SseOutput, SseProblem, D_BSZ};

/// The `(k', e')` rows rank `rank` must fetch in round `(q, m)`, excluding
/// rows it already owns, in `(k', e')` order. Deterministic: senders
/// evaluate it for their peers.
fn needed_points(
    prob: &SseProblem,
    grid: &OmenGrid,
    rank: usize,
    q: usize,
    m: usize,
) -> Vec<(usize, usize)> {
    let ne = prob.ne;
    let steps = prob.omega_steps(m);
    let mut need = vec![false; prob.nk * ne];
    for (k, e) in grid.owned_pairs(rank) {
        let kk = prob.k_minus_q(k, q);
        if e >= steps {
            need[kk * ne + e - steps] = true;
        }
        if e + steps < ne {
            need[kk * ne + e + steps] = true;
            need[prob.k_plus_q(k, q) * ne + e + steps] = true;
        }
    }
    let points = (0..prob.nk).flat_map(|k| (0..ne).map(move |e| (k, e)));
    points
        .filter(|&(k, e)| need[k * ne + e] && grid.owner_pair(k, e) != rank)
        .collect()
}

/// Where a rank reads the `G^≷(k, e)` rows in the current round.
#[derive(Clone, Copy)]
enum Row {
    /// Neither owned nor received this round.
    Absent,
    /// Owned: in the GF phase's tensors.
    Owned,
    /// Received: the record at element `at` of message `msg`, the `G^<`
    /// row then the `G^>` row.
    Received { msg: usize, at: usize },
}

/// One `G^≷` component as a rank sees it in one round: an owned row in
/// place in the GF phase's tensor, a received row in place in its
/// source's message. Reading any other row panics.
struct RoundG<'a> {
    own: &'a GTensor,
    /// Per `(k, e)`, `[k][e]`.
    rows: &'a [Row],
    msgs: &'a [Vec<C64>],
    /// Offset of this component in a received record: 0 for `G^<`, one
    /// row (`Na · Norb²` elements) for `G^>`.
    half: usize,
}

impl GBlocks for RoundG<'_> {
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64] {
        let bsz = self.own.bsz();
        match self.rows[k * self.own.ne + e] {
            Row::Owned => self.own.block(k, e, a),
            Row::Received { msg, at } => &self.msgs[msg][at + self.half + a * bsz..][..bsz],
            Row::Absent => panic!("G block ({k},{e}) not resident on this rank"),
        }
    }
}

/// The round's broadcast `D^≷(q, m)` row, `(Npairs + Na) · 9` elements:
/// the one phonon point a round reads.
struct RoundD<'a> {
    qm: (usize, usize),
    row: &'a [C64],
}

impl DBlocks for RoundD<'_> {
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64] {
        assert_eq!((q, w), self.qm, "a round reads only its own D point");
        &self.row[entry * D_BSZ..][..D_BSZ]
    }
}

/// One rank's rows, unscaled: `Σ^≷` of the `(k, e)` points it owns,
/// atom-major over them as [`omen_round`] writes them, and the reduced
/// `Π^≷` of the `(q, m)` rounds it roots, in round order.
struct RankRows {
    owned: Vec<(usize, usize)>,
    sigma: [Vec<C64>; 2],
    rooted: Vec<(usize, usize)>,
    pi: [Vec<C64>; 2],
    flops: u64,
}

/// Executes the OMEN-decomposed SSE on `grid.nranks()` simulated ranks and
/// returns the assembled self-energies plus the byte ledger.
pub fn run_omen_plan(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    grid: &OmenGrid,
) -> (SseOutput, VolumeLedger) {
    let _phase = omen_trace::PhaseGuard::enter("comm_omen_plan");
    let nranks = grid.nranks();
    let ledger = VolumeLedger::new(nranks);
    let (na, ne) = (prob.na(), prob.ne);
    // One atom-block row, and one `(k, e)` record of a G message.
    let half = na * prob.norb() * prob.norb();
    let record = 2 * half;
    let nentries = prob.npairs() + na;

    let outputs = run_world(nranks, ledger.clone(), |comm: Comm| {
        let me = comm.rank();
        let owned = grid.owned_pairs(me);
        let mut rows = vec![Row::Absent; prob.nk * ne];
        for &(k, e) in &owned {
            rows[k * ne + e] = Row::Owned;
        }
        let mut msgs = Vec::new();
        let mut sigma = [(); 2].map(|_| vec![C64::ZERO; owned.len() * half]);
        let mut rooted = Vec::new();
        let mut pi = [Vec::new(), Vec::new()];
        let mut ws = Workspace::new();
        let mut flops = 0u64;

        for q in 0..prob.nq {
            for m in 0..prob.nw {
                let round = (q * prob.nw + m) as u64;
                let base_tag = round * 8;
                let root = grid.owner_phonon(q, m, prob.nw);

                // --- 1. broadcast D^≷(q, m) from the rank the GF phase
                // left it on ---
                let owned_row = |d: &DTensor| -> Vec<C64> {
                    let entries = if me == root { 0..nentries } else { 0..0 };
                    entries.flat_map(|en| d.block(q, m, en)).copied().collect()
                };
                let (mut row_l, mut row_g) = (owned_row(d_l), owned_row(d_g));
                comm.bcast(root, base_tag, &mut row_l);
                comm.bcast(root, base_tag + 1, &mut row_g);
                let round_d = |row| RoundD { qm: (q, m), row };

                // --- 2. point-to-point G^≷ exchange ---
                // Send phase: what do the peers need from me?
                for r in 0..comm.size() {
                    if r == me {
                        continue;
                    }
                    let to_send: Vec<(usize, usize)> = needed_points(prob, grid, r, q, m)
                        .into_iter()
                        .filter(|&(k, e)| grid.owner_pair(k, e) == me)
                        .collect();
                    if to_send.is_empty() {
                        continue;
                    }
                    let mut buf = Vec::with_capacity(to_send.len() * record);
                    for &(k, e) in &to_send {
                        for g in [g_l, g_g] {
                            for a in 0..na {
                                buf.extend_from_slice(g.block(k, e, a));
                            }
                        }
                    }
                    comm.send(r, base_tag + 2, buf);
                }
                // Receive phase: one message from each owner of a needed
                // row, in owner order, kept as it arrives.
                let need = needed_points(prob, grid, me, q, m);
                for s in 0..comm.size() {
                    let mut records = 0;
                    for &(k, e) in need.iter().filter(|&&(k, e)| grid.owner_pair(k, e) == s) {
                        let at = records * record;
                        rows[k * ne + e] = Row::Received {
                            msg: msgs.len(),
                            at,
                        };
                        records += 1;
                    }
                    if records > 0 {
                        let buf = comm.recv(s, base_tag + 2);
                        assert_eq!(buf.len(), records * record, "G message size");
                        msgs.push(buf);
                    }
                }
                let view = |own, half| RoundG {
                    own,
                    rows: &rows,
                    msgs: &msgs,
                    half,
                };

                // --- 3. compute Σ and partial Π ---
                let mut pi_partial = [(); 2].map(|_| vec![C64::ZERO; nentries * D_BSZ]);
                flops += omen_round(
                    prob,
                    (q, m),
                    owned.iter().copied(),
                    [&view(g_l, 0), &view(g_g, half)],
                    [&round_d(&row_l), &round_d(&row_g)],
                    sigma.each_mut().map(|s| &mut s[..]),
                    pi_partial.each_mut().map(|p| &mut p[..]),
                    &mut ws,
                );
                for &(k, e) in &need {
                    rows[k * ne + e] = Row::Absent;
                }
                msgs.clear();

                // --- 4. reduce Π^≷(q, m) to the owner ---
                let [pi_partial_l, pi_partial_g] = &mut pi_partial;
                comm.reduce_sum(root, base_tag + 3, pi_partial_l);
                comm.reduce_sum(root, base_tag + 4, pi_partial_g);
                if me == root {
                    rooted.push((q, m));
                    for (rows, part) in pi.iter_mut().zip(&pi_partial) {
                        rows.extend_from_slice(part);
                    }
                }
            }
        }
        RankRows {
            owned,
            sigma,
            rooted,
            pi,
            flops,
        }
    });

    let mut out = SseOutput::empty();
    reset_output(prob, &mut out);
    for rank in &outputs {
        let sigma = (&rank.owned[..], &rank.sigma);
        let pi = (&rank.rooted[..], &rank.pi);
        deposit_rows(&mut out, (prob.scale_sigma, prob.scale_pi), sigma, pi);
        out.flops += rank.flops;
    }
    (out, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::OpKind;
    use omen_sse::sse_reference;
    use omen_sse::testutil::{random_inputs, tiny_device, tiny_problem};

    fn bits(t: &GTensor) -> Vec<(u64, u64)> {
        let z = t.as_slice().iter();
        z.map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn omen_plan_matches_reference() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 17);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let grid = OmenGrid::new(2, 3, prob.nk, prob.ne);
        let (result, ledger) = run_omen_plan(&prob, &gl, &gg, &dl, &dg, &grid);

        assert_eq!(bits(&result.sigma_l), bits(&reference.sigma_l));
        assert_eq!(bits(&result.sigma_g), bits(&reference.sigma_g));
        let dp = result.pi_l.max_deviation(&reference.pi_l) / reference.pi_l.max_abs();
        assert!(dp <= 1e-12, "Π< deviation {dp}");
        let dpg = result.pi_g.max_deviation(&reference.pi_g) / reference.pi_g.max_abs();
        assert!(dpg <= 1e-12, "Π> deviation {dpg}");

        // Collective structure: 2 broadcasts + 2 reductions per round.
        let rounds = (prob.nq * prob.nw) as u64;
        assert_eq!(ledger.calls(OpKind::Bcast), 2 * rounds);
        assert_eq!(ledger.calls(OpKind::Reduce), 2 * rounds);
        assert!(
            ledger.bytes(OpKind::PointToPoint) > 0,
            "G replication traffic"
        );
    }

    #[test]
    fn single_rank_plan_matches_reference_with_zero_traffic() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 4);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let grid = OmenGrid::new(1, 1, prob.nk, prob.ne);
        let (result, ledger) = run_omen_plan(&prob, &gl, &gg, &dl, &dg, &grid);
        assert_eq!(bits(&result.sigma_l), bits(&reference.sigma_l));
        assert_eq!(bits(&result.sigma_g), bits(&reference.sigma_g));
        assert_eq!(result.pi_l.max_deviation(&reference.pi_l), 0.0);
        assert_eq!(result.flops, reference.flops);
        assert_eq!(ledger.total_bytes(), 0, "single rank: all traffic local");
    }

    #[test]
    fn round_g_reads_owned_and_received_rows() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, ..) = random_inputs(&prob, 8);
        let (ne, bsz) = (prob.ne, gl.bsz());
        let half = prob.na() * bsz;
        // (0, 1) owned; (1, 2) the second record of message 1.
        let mut rows = vec![Row::Absent; prob.nk * ne];
        rows[1] = Row::Owned;
        rows[ne + 2] = Row::Received {
            msg: 1,
            at: 2 * half,
        };
        let record: Vec<C64> = [&gl, &gg]
            .iter()
            .flat_map(|g| (0..prob.na()).flat_map(|a| g.block(1, 2, a)))
            .copied()
            .collect();
        let msgs = [Vec::new(), [vec![C64::ZERO; 2 * half], record].concat()];
        let view = |own, half| RoundG {
            own,
            rows: &rows,
            msgs: &msgs,
            half,
        };
        let (view_l, view_g) = (view(&gl, 0), view(&gg, half));
        let a = prob.na() - 1;
        assert!(std::ptr::eq(view_l.gblock(0, 1, a), gl.block(0, 1, a)));
        assert_eq!(view_l.gblock(1, 2, a), gl.block(1, 2, a));
        assert_eq!(view_g.gblock(1, 2, a), gg.block(1, 2, a));
    }

    #[test]
    fn round_d_reads_its_row_in_place() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (.., dl, _) = random_inputs(&prob, 8);
        let row: Vec<C64> = (0..prob.npairs() + prob.na())
            .flat_map(|en| dl.block(1, 0, en))
            .copied()
            .collect();
        let d = RoundD {
            qm: (1, 0),
            row: &row,
        };
        assert_eq!(d.dblock(1, 0, 2), dl.block(1, 0, 2));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn missing_g_point_panics() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, ..) = random_inputs(&prob, 1);
        let mut rows = vec![Row::Absent; prob.nk * prob.ne];
        rows[0] = Row::Owned;
        let view = RoundG {
            own: &gl,
            rows: &rows,
            msgs: &[],
            half: 0,
        };
        let _ = view.gblock(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "its own D point")]
    fn round_d_reads_only_its_point() {
        let row = vec![C64::ZERO; 9];
        let d = RoundD {
            qm: (0, 1),
            row: &row,
        };
        let _ = d.dblock(0, 0, 0);
    }

    #[test]
    fn volume_grows_with_rounds() {
        // More (q, m) rounds replicate G more: volume scales ~ Nq·Nω.
        let dev = tiny_device();
        let prob_small = omen_sse::SseProblem::new(&dev, 2, 6, 2, 1, 1.0, 1.0);
        let prob_large = omen_sse::SseProblem::new(&dev, 2, 6, 2, 2, 1.0, 1.0);
        let (gl, gg, dl1, dg1) = random_inputs(&prob_small, 2);
        let (_, _, dl2, dg2) = random_inputs(&prob_large, 2);
        let grid = OmenGrid::new(2, 2, 2, 6);
        let (_, ledger1) = run_omen_plan(&prob_small, &gl, &gg, &dl1, &dg1, &grid);
        let (_, ledger2) = run_omen_plan(&prob_large, &gl, &gg, &dl2, &dg2, &grid);
        assert!(
            ledger2.bytes(OpKind::PointToPoint) > ledger1.bytes(OpKind::PointToPoint),
            "doubling Nω must increase P2P volume: {} vs {}",
            ledger2.bytes(OpKind::PointToPoint),
            ledger1.bytes(OpKind::PointToPoint)
        );
    }
}
