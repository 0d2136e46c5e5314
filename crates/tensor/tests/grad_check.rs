//! Central-difference gradient check of the path that trains.
//!
//! Every experiment's local step is `Mlp::forward_backward`: the scratch
//! forward (`forward_matmul_into` + fused bias/ReLU), the in-place backward
//! sweep (`backward_into`, `backward_in_place`) and `backward_params_only`
//! for layer 0, whose input gradient is skipped. These checks hold every
//! weight and bias gradient it leaves in [`Mlp::grads`] to central
//! differences of an independent loss: the allocating inference path
//! (`forward_inference` → `cross_entropy_loss`), which shares no buffer
//! and no fused kernel with the path under test. Tolerances are relative
//! with an absolute floor: the reference loss is an `f32`, so a central
//! difference at `EPS` carries ~2e-4 of rounding noise (measured on these
//! seeds), and ReLU is only piecewise linear, so a perturbation that
//! crosses a kink produces a legitimate mismatch — none does on the seeds
//! pinned here.

use float_tensor::loss::cross_entropy_loss;
use float_tensor::{seed_rng, Mlp, MlpConfig, Tensor};
use rand::Rng;

const EPS: f32 = 1e-3;
const REL_TOL: f32 = 0.05;
/// Gradients smaller than this are held to `REL_TOL * ABS_FLOOR`.
const ABS_FLOOR: f32 = 0.1;

const INPUT_DIM: usize = 5;
const HIDDEN: [usize; 2] = [7, 6];
const CLASSES: usize = 4;
/// The layer-0 unit [`model`] forces dead on every sample.
const DEAD_UNIT: usize = 2;

fn batch(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = seed_rng(seed);
    let data = (0..n * INPUT_DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = Tensor::from_vec(n, INPUT_DIM, data).expect("sized by construction");
    let y = (0..n).map(|_| rng.gen_range(0..CLASSES)).collect();
    (x, y)
}

/// A 5-7-6-4 model with every bias drawn from `±0.5` — `Mlp::new` starts
/// them at exactly zero, which parks a unit *on* the ReLU kink whenever the
/// layer below it is silent — and layer-0 unit [`DEAD_UNIT`] forced dead:
/// inputs lie in `[-1, 1)` and He-uniform weights in `±√(6/5)`, so a bias
/// of −10 keeps its pre-activation negative on any sample.
fn model(seed: u64) -> Mlp {
    let cfg = MlpConfig::new(INPUT_DIM, &HIDDEN, CLASSES);
    let mut m = Mlp::new(&cfg, seed);
    let mut rng = seed_rng(seed ^ 0xB1A5);
    let mut p = m.params();
    let mut off = 0;
    for w in [INPUT_DIM, HIDDEN[0], HIDDEN[1], CLASSES].windows(2) {
        off += w[0] * w[1];
        for b in &mut p[off..off + w[1]] {
            *b = rng.gen_range(-0.5f32..0.5);
        }
        off += w[1];
    }
    assert_eq!(off, cfg.num_params());
    p[INPUT_DIM * HIDDEN[0] + DEAD_UNIT] = -10.0;
    m.set_params(&p).expect("same architecture");
    m
}

/// How many of the batch's samples leave each layer-0 unit at zero, read
/// off the flat parameter layout (weights `[in, out]` row-major, then bias).
fn dead_counts(m: &Mlp, x: &Tensor) -> Vec<usize> {
    let p = m.params();
    let (w, b) = p.split_at(INPUT_DIM * HIDDEN[0]);
    (0..HIDDEN[0])
        .map(|j| {
            (0..x.rows())
                .filter(|&r| {
                    let z: f32 = (0..INPUT_DIM)
                        .map(|i| x.at(r, i) * w[i * HIDDEN[0] + j])
                        .sum();
                    z + b[j] <= 0.0
                })
                .count()
        })
        .collect()
}

fn reference_loss(m: &Mlp, x: &Tensor, y: &[usize]) -> f32 {
    let logits = m.forward_inference(x).expect("input fits");
    cross_entropy_loss(&logits, y).expect("labels in range")
}

/// `forward_backward` on `(x, y)`, then every entry of `grads()` against
/// the central difference of [`reference_loss`] in that parameter.
fn check_every_parameter(m: &mut Mlp, x: &Tensor, y: &[usize], what: &str) {
    let loss = m.forward_backward(x, y).expect("batch fits");
    let reference = reference_loss(m, x, y);
    assert!(
        (loss - reference).abs() <= 1e-5 * reference.abs().max(1.0),
        "{what}: scratch loss {loss} vs inference loss {reference}"
    );
    let analytic = m.grads();
    let base = m.params();
    assert_eq!(analytic.len(), base.len());
    let mut probe = m.clone();
    let mut p = base.clone();
    for i in 0..base.len() {
        p[i] = base[i] + EPS;
        probe.set_params(&p).expect("same architecture");
        let up = reference_loss(&probe, x, y);
        p[i] = base[i] - EPS;
        probe.set_params(&p).expect("same architecture");
        let down = reference_loss(&probe, x, y);
        p[i] = base[i];
        let numeric = (up - down) / (2.0 * EPS);
        assert!(
            (numeric - analytic[i]).abs() <= REL_TOL * numeric.abs().max(ABS_FLOOR),
            "{what}, parameter {i}: numeric {numeric} vs analytic {}",
            analytic[i]
        );
    }
}

#[test]
fn every_mlp_gradient_matches_central_differences() {
    // Seven samples: an odd batch, so the 4-row register tiles end on a
    // ragged one in every GEMM of the step.
    let (x, y) = batch(7, 23);
    let mut m = model(17);
    let dead = dead_counts(&m, &x);
    assert_eq!(dead[DEAD_UNIT], 7, "the forced unit fires");
    assert!(
        dead.iter().any(|&d| d > 0 && d < 7),
        "no unit is dead on only part of the batch: {dead:?}"
    );
    check_every_parameter(&mut m, &x, &y, "batch 7");
    // The dead unit's mask zeroes its whole column of the backward sweep:
    // its bias and incoming weights see exactly no gradient, and neither
    // do the next layer's weights that read its (zero) activation.
    let g = m.grads();
    let (w0, b0) = (INPUT_DIM * HIDDEN[0], HIDDEN[0]);
    assert_eq!(g[w0 + DEAD_UNIT], 0.0);
    assert!((0..INPUT_DIM).all(|i| g[i * HIDDEN[0] + DEAD_UNIT] == 0.0));
    let w1_row = w0 + b0 + DEAD_UNIT * HIDDEN[1];
    assert!(g[w1_row..w1_row + HIDDEN[1]].iter().all(|&v| v == 0.0));
}

#[test]
fn gradients_survive_scratch_reuse_across_batch_shapes() {
    // One model, three batches of different heights: the activation and
    // gradient ping-pong buffers are resized in place and never cleared,
    // so a step must not read what a taller batch left behind.
    let mut m = model(29);
    for (n, seed) in [(9usize, 31u64), (3, 37), (5, 41)] {
        let (x, y) = batch(n, seed);
        check_every_parameter(&mut m, &x, &y, &format!("batch {n} on reused scratch"));
    }
}
