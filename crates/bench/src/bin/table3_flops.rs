//! Table 3: single-iteration computational load (Pflop), Small structure.
//! Model columns reproduce the paper; the "measured" columns run the real
//! kernels at reduced scale and compare the OMEN/DaCe flop *ratio*, whose
//! transformed side also carries the momentum-harmonic factor of stages C
//! and D.
use omen_bench::{header, row};
use omen_sse::testutil::{random_inputs, tiny_device};
use omen_sse::{sse_reference, sse_transformed, SseProblem};

fn main() {
    println!("Table 3: Single Iteration Computational Load (Pflop), Small structure\n");
    let w = [6, 12, 12, 14, 14, 12];
    header(
        &["Nkz", "BC", "RGF", "SSE(OMEN)", "SSE(DaCe)", "DaCe/OMEN"],
        &w,
    );
    for r in omen_perf::table3(&[3, 5, 7, 9, 11]) {
        row(
            &[
                r.nk.to_string(),
                format!("{:.2}", r.bc / 1e15),
                format!("{:.2}", r.rgf / 1e15),
                format!("{:.2}", r.sse_omen / 1e15),
                format!("{:.2}", r.sse_dace / 1e15),
                format!("{:.3}", r.sse_dace / r.sse_omen),
            ],
            &w,
        );
    }
    println!("\npaper:  Nkz=3: 8.45 / 52.95 / 24.41 / 12.38 … Nkz=11: 31.06 / 194.15 / 328.15 / 164.71\n");

    // Measured kernel flop counts at executable scale.
    let dev = tiny_device();
    let prob = SseProblem::new(&dev, 2, 12, 2, 2, 1.0, 1.0);
    let (gl, gg, dl, dg) = random_inputs(&prob, 1);
    let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
    let transformed = sse_transformed(&prob, &gl, &gg, &dl, &dg);
    // The paper's model keeps the `Nkz·Nqz` momentum pairs; the
    // transformed kernel runs stages C and D on momentum harmonics, one
    // product per harmonic, so their share falls by a further `Nqz`.
    println!(
        "measured kernel flops (tiny device): OMEN {} / DaCe {}  ratio {:.3} (model {:.3}; \
         stages C and D on momentum harmonics: 1/Nqz = 1/{} of their k-space share)",
        reference.flops,
        transformed.flops,
        transformed.flops as f64 / reference.flops as f64,
        (prob.nq * prob.nw + 1) as f64 / (2 * prob.nq * prob.nw) as f64,
        prob.nq
    );
}
