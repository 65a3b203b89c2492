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
use crate::plan_common::{deposit_rows, reset_output, CombinedG, PlanResult};
use crate::sse_state::{LocalD, LocalG};
use crate::topology::OmenGrid;
use crate::volume::VolumeLedger;
use omen_linalg::{Workspace, C64};
use omen_sse::{omen_round, DTensor, GTensor, SseOutput, SseProblem, D_BSZ};
use std::collections::{BTreeMap, BTreeSet};

/// The `(k', e')` rows rank `r` must fetch in round `(q, m)`, excluding
/// rows it already owns. Deterministic: senders evaluate it for their
/// peers.
fn needed_points(
    prob: &SseProblem,
    grid: &OmenGrid,
    rank: usize,
    q: usize,
    m: usize,
) -> BTreeSet<(usize, usize)> {
    let steps = prob.omega_steps(m);
    let mut need = BTreeSet::new();
    for (k, e) in grid.owned_pairs(rank) {
        let kk = prob.k_minus_q(k, q);
        let kq = prob.k_plus_q(k, q);
        if e >= steps {
            need.insert((kk, e - steps));
        }
        if e + steps < prob.ne {
            need.insert((kk, e + steps));
            need.insert((kq, e + steps));
        }
    }
    need.retain(|&(k, e)| grid.owner_pair(k, e) != rank);
    need
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
) -> (PlanResult, VolumeLedger) {
    let _phase = omen_trace::PhaseGuard::enter("comm_omen_plan");
    let nranks = grid.nranks();
    let ledger = VolumeLedger::new(nranks);
    let bsz = prob.norb() * prob.norb();
    let na = prob.na();
    let nentries = prob.npairs() + na;

    let outputs = run_world(nranks, ledger.clone(), |comm: Comm| {
        let me = comm.rank();
        let owned = grid.owned_pairs(me);
        let mut sigma = [(); 2].map(|_| vec![C64::ZERO; owned.len() * na * bsz]);
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
                let mut round_dl = LocalD::new(nentries);
                let mut round_dg = LocalD::new(nentries);
                round_dl.insert_row(q, m, row_l);
                round_dg.insert_row(q, m, row_g);

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
                    let mut buf = Vec::with_capacity(to_send.len() * 2 * na * bsz);
                    for &(k, e) in &to_send {
                        for g in [g_l, g_g] {
                            for a in 0..na {
                                buf.extend_from_slice(g.block(k, e, a));
                            }
                        }
                    }
                    comm.send(r, base_tag + 2, buf);
                }
                // Receive phase.
                let myneed = needed_points(prob, grid, me, q, m);
                let mut extra_l = LocalG::new(na, bsz);
                let mut extra_g = LocalG::new(na, bsz);
                let mut by_owner: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
                for &(k, e) in &myneed {
                    by_owner
                        .entry(grid.owner_pair(k, e))
                        .or_default()
                        .push((k, e));
                }
                for (s, points) in &by_owner {
                    let buf = comm.recv(*s, base_tag + 2);
                    assert_eq!(buf.len(), points.len() * 2 * na * bsz, "G message size");
                    for (x, &(k, e)) in points.iter().enumerate() {
                        let off = x * 2 * na * bsz;
                        extra_l.insert_row(k, e, buf[off..off + na * bsz].to_vec());
                        extra_g.insert_row(k, e, buf[off + na * bsz..off + 2 * na * bsz].to_vec());
                    }
                }
                let view = |own, extra| CombinedG {
                    owns: |k, e| grid.owner_pair(k, e) == me,
                    own,
                    extra,
                };
                let (view_l, view_g) = (view(g_l, &extra_l), view(g_g, &extra_g));

                // --- 3. compute Σ and partial Π ---
                let mut pi_partial = [(); 2].map(|_| vec![C64::ZERO; nentries * D_BSZ]);
                flops += omen_round(
                    prob,
                    (q, m),
                    owned.iter().copied(),
                    [&view_l, &view_g],
                    [&round_dl, &round_dg],
                    sigma.each_mut().map(|s| &mut s[..]),
                    pi_partial.each_mut().map(|p| &mut p[..]),
                    &mut ws,
                );

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
