//! A multi-layer perceptron with flat-parameter access and training hooks
//! for FLOAT's acceleration techniques (pruning masks, frozen-parameter
//! partial training).
//!
//! Masks and drift-correction vectors use the *flat layout* of
//! [`Mlp::params`] (weights then bias, layer by layer). Training never
//! materializes that layout: each minibatch step updates every layer's
//! tensors in place, addressing the flat-layout vectors by the tensor's
//! offset.

use rand::seq::SliceRandom;

use crate::layers::{Linear, Relu};
use crate::loss::{accuracy, cross_entropy_loss, softmax_cross_entropy_into, Evaluation};
use crate::optim::Sgd;
use crate::rng::{seed_rng, split_seed};
use crate::{Dataset, Tensor, TensorError};

/// Architecture of an [`Mlp`]: input width, hidden widths, output classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Width of each hidden layer, in order.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
}

impl MlpConfig {
    /// Convenience constructor.
    pub fn new(input_dim: usize, hidden: &[usize], num_classes: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden: hidden.to_vec(),
            num_classes,
        }
    }

    /// Total trainable parameter count for this architecture.
    pub fn num_params(&self) -> usize {
        let mut total = 0;
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            total += prev * h + h;
            prev = h;
        }
        total + prev * self.num_classes + self.num_classes
    }
}

/// Options controlling a single local-training pass, used by FLOAT's
/// acceleration techniques.
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// If set, parameters whose mask entry is `false` are held at zero
    /// (magnitude pruning). Length must equal [`Mlp::num_params`].
    pub prune_mask: Option<Vec<bool>>,
    /// If set, parameters whose entry is `true` are frozen (partial
    /// training). Length must equal [`Mlp::num_params`].
    pub frozen: Option<Vec<bool>>,
}

/// Client-drift corrections applied to every minibatch gradient — the
/// composable FedProx / SCAFFOLD layer. The default applies nothing and
/// leaves [`Mlp::train_epoch_corrected`] bit-identical to plain training
/// (the correction branches are skipped entirely, so the floating-point
/// op sequence is unchanged).
#[derive(Debug, Clone, Copy, Default)]
pub struct DriftOptions<'a> {
    /// FedProx proximal term: `(μ, anchor)` adds `μ·(w − anchor)` to the
    /// gradient, pulling local training toward the round's global
    /// parameters. `anchor` must have [`Mlp::num_params`] entries.
    pub prox: Option<(f32, &'a [f32])>,
    /// SCAFFOLD control-variate correction: `(c, c_i)` adds the server
    /// control variate minus the client's (`c − c_i`) to the gradient.
    /// An empty `c_i` slice stands for an all-zero client variate (a
    /// client correcting for the first time); otherwise both slices must
    /// have [`Mlp::num_params`] entries.
    pub scaffold: Option<(&'a [f32], &'a [f32])>,
}

/// Reusable buffers for the forward/backward and minibatching hot path.
/// Everything here is overwritten before use; after the first batch the
/// buffers reach steady-state capacity and training allocates nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per-layer activations; `acts[i]` is the output of layer `i` (post
    /// bias+ReLU for hidden layers, raw logits for the last).
    acts: Vec<Tensor>,
    /// Gradient ping-pong buffers for the backward sweep.
    grad: Tensor,
    grad2: Tensor,
    /// Gathered minibatch (features, labels), reused across batches.
    batch: Tensor,
    batch_labels: Vec<usize>,
    /// Shuffled sample order for one epoch.
    order: Vec<usize>,
}

/// A feed-forward classifier: `Linear → ReLU → … → Linear`.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Linear>,
    activations: Vec<Relu>,
    scratch: Scratch,
}

impl Mlp {
    /// Construct a model with deterministic per-layer initialization derived
    /// from `seed`.
    pub fn new(config: &MlpConfig, seed: u64) -> Self {
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.num_classes);
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], split_seed(seed, i as u64)))
            .collect::<Vec<_>>();
        let activations = (0..layers.len().saturating_sub(1))
            .map(|_| Relu::new())
            .collect();
        Mlp {
            config: config.clone(),
            layers,
            activations,
            scratch: Scratch::default(),
        }
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.config.num_params()
    }

    /// Flatten all parameters (weights then bias, layer by layer) into one
    /// buffer. The layout is stable and round-trips through
    /// [`Mlp::set_params`].
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.params_into(&mut out);
        out
    }

    /// Load parameters from a flat buffer produced by [`Mlp::params`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] on length mismatch.
    pub fn set_params(&mut self, flat: &[f32]) -> Result<(), TensorError> {
        if flat.len() != self.num_params() {
            return Err(TensorError::InvalidData(format!(
                "expected {} params, got {}",
                self.num_params(),
                flat.len()
            )));
        }
        let mut off = 0;
        for l in &mut self.layers {
            let w = l.weight.len();
            l.weight.data_mut().copy_from_slice(&flat[off..off + w]);
            off += w;
            let b = l.bias.len();
            l.bias.data_mut().copy_from_slice(&flat[off..off + b]);
            off += b;
        }
        Ok(())
    }

    /// Mask of parameters that pruning must never remove: every bias and
    /// the whole final (classifier) layer. Standard magnitude-pruning
    /// practice — biases are tiny but load-bearing, and pruning the output
    /// layer removes whole classes.
    pub fn protected_mask(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.num_params());
        let last = self.layers.len() - 1;
        for (i, l) in self.layers.iter().enumerate() {
            let weights_protected = i == last;
            out.extend(std::iter::repeat_n(weights_protected, l.weight.len()));
            out.extend(std::iter::repeat_n(true, l.bias.len()));
        }
        out
    }

    /// Flatten the current gradients in the same layout as [`Mlp::params`]:
    /// the raw minibatch gradient after [`Mlp::forward_backward`]; after a
    /// training epoch, the last step's gradient as the optimizer consumed
    /// it (drift corrections added, frozen entries zeroed).
    pub fn grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(l.grad_weight.data());
            out.extend_from_slice(l.grad_bias.data());
        }
        out
    }

    /// Write the flattened parameter vector into `out`, reusing its
    /// allocation. `out` is cleared first.
    pub fn params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(l.weight.data());
            out.extend_from_slice(l.bias.data());
        }
    }

    /// Forward pass for inference.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not `[*, input_dim]`.
    pub fn forward_inference(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut h = self.layers[0].forward_inference(x)?;
        for i in 1..self.layers.len() {
            h = self.activations[i - 1].forward_inference(&h);
            h = self.layers[i].forward_inference(&h)?;
        }
        Ok(h)
    }

    /// Forward pass through the scratch activation buffers: `acts[i]`
    /// receives layer `i`'s output. `record_masks` controls whether the
    /// hidden ReLUs store their masks (training) or skip them (eval).
    fn forward_scratch(&mut self, x: &Tensor, record_masks: bool) -> Result<(), TensorError> {
        let n_layers = self.layers.len();
        self.scratch.acts.resize_with(n_layers, Tensor::default);
        for i in 0..n_layers {
            let (prev, rest) = self.scratch.acts.split_at_mut(i);
            let out = &mut rest[0];
            let input = if i == 0 { x } else { &prev[i - 1] };
            self.layers[i].forward_matmul_into(input, out)?;
            if i < n_layers - 1 {
                if record_masks {
                    self.activations[i].forward_fused_bias(out, &self.layers[i].bias)?;
                } else {
                    let (rows, cols) = (out.rows(), out.cols());
                    crate::kernels::bias_relu_inference(
                        out.data_mut(),
                        rows,
                        cols,
                        self.layers[i].bias.data(),
                    );
                }
            } else {
                out.add_row_broadcast(&self.layers[i].bias)?;
            }
        }
        Ok(())
    }

    /// Forward + backward over one batch; populates per-layer gradients and
    /// returns the mean loss. Runs entirely in reusable scratch buffers —
    /// zero heap allocation once the buffers are warm.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers or the loss.
    pub fn forward_backward(&mut self, x: &Tensor, y: &[usize]) -> Result<f32, TensorError> {
        self.forward_scratch(x, true)?;
        let n_layers = self.layers.len();
        let Mlp {
            layers,
            activations,
            scratch,
            ..
        } = self;
        let loss = softmax_cross_entropy_into(&scratch.acts[n_layers - 1], y, &mut scratch.grad)?;
        for i in (1..n_layers).rev() {
            layers[i].backward_into(&scratch.acts[i - 1], &scratch.grad, &mut scratch.grad2)?;
            activations[i - 1].backward_in_place(&mut scratch.grad2)?;
            std::mem::swap(&mut scratch.grad, &mut scratch.grad2);
        }
        // The input gradient of the first layer has no consumer; skip it.
        layers[0].backward_params_only(x, &scratch.grad)?;
        Ok(loss)
    }

    /// Run one epoch of minibatch SGD over `data`, shuffled with `seed`.
    ///
    /// Returns the mean training loss over all batches. Panics are avoided:
    /// an empty dataset returns `0.0`.
    pub fn train_epoch(&mut self, data: &Dataset, batch_size: usize, opt: &Sgd, seed: u64) -> f32 {
        self.train_epoch_corrected(
            data,
            batch_size,
            opt,
            seed,
            &TrainOptions::default(),
            &DriftOptions::default(),
        )
    }

    /// [`Mlp::train_epoch`] with acceleration hooks and client-drift
    /// corrections.
    ///
    /// - `opts.frozen[i] == true` keeps parameter `i` fixed (partial
    ///   training).
    /// - `opts.prune_mask[i] == false` forces parameter `i` to zero after
    ///   every step (magnitude pruning keeps the model sparse during local
    ///   training).
    /// - `drift` is applied to each minibatch gradient *before* those
    ///   hooks: FedProx's proximal pull and/or SCAFFOLD's control-variate
    ///   correction (see [`DriftOptions`]).
    pub fn train_epoch_corrected(
        &mut self,
        data: &Dataset,
        batch_size: usize,
        opt: &Sgd,
        seed: u64,
        opts: &TrainOptions,
        drift: &DriftOptions<'_>,
    ) -> f32 {
        if data.is_empty() || batch_size == 0 {
            return 0.0;
        }
        // Move the minibatch scratch out of `self` so the gathered batch can
        // be borrowed across `forward_backward`; restored below. After the
        // first epoch every buffer is at steady-state capacity and the loop
        // performs zero heap allocation.
        let mut order = std::mem::take(&mut self.scratch.order);
        let mut batch = std::mem::take(&mut self.scratch.batch);
        let mut batch_labels = std::mem::take(&mut self.scratch.batch_labels);
        order.clear();
        order.extend(0..data.len());
        order.shuffle(&mut seed_rng(seed));
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            data.gather_into(chunk, &mut batch, &mut batch_labels);
            match self.forward_backward(&batch, &batch_labels) {
                Ok(loss) => {
                    total += loss;
                    batches += 1;
                }
                Err(_) => continue,
            }
            self.apply_step(opt, opts, drift);
        }
        self.scratch.order = order;
        self.scratch.batch = batch;
        self.scratch.batch_labels = batch_labels;
        if batches == 0 {
            0.0
        } else {
            total / batches as f32
        }
    }

    /// One optimizer step over the gradients [`Mlp::forward_backward`]
    /// left in the layers, applied tensor by tensor in place: drift
    /// corrections and the frozen mask edit the gradient, the optimizer
    /// updates the parameter, the prune mask re-zeroes it. Every
    /// flat-layout vector (masks, anchor, control variates) is read at
    /// the tensor's offset into that layout, so each parameter
    /// sees exactly the operations, in the order, that a step over the
    /// flattened model would apply to it. A vector shorter than the model
    /// covers a prefix of it: each zip below stops where its vector ends.
    fn apply_step(&mut self, opt: &Sgd, opts: &TrainOptions, drift: &DriftOptions<'_>) {
        fn from<T>(flat: &[T], off: usize) -> &[T] {
            flat.get(off..).unwrap_or(&[])
        }
        let mut off = 0;
        for l in &mut self.layers {
            for (param, grad) in [
                (&mut l.weight, &mut l.grad_weight),
                (&mut l.bias, &mut l.grad_bias),
            ] {
                let (params, grads) = (param.data_mut(), grad.data_mut());
                if let Some((mu, anchor)) = drift.prox {
                    for ((g, &p), &a) in grads.iter_mut().zip(&*params).zip(from(anchor, off)) {
                        *g += mu * (p - a);
                    }
                }
                if let Some((c, ci)) = drift.scaffold {
                    if ci.is_empty() {
                        for (g, &cj) in grads.iter_mut().zip(from(c, off)) {
                            *g += cj;
                        }
                    } else {
                        for ((g, &cj), &cij) in
                            grads.iter_mut().zip(from(c, off)).zip(from(ci, off))
                        {
                            *g += cj - cij;
                        }
                    }
                }
                if let Some(frozen) = &opts.frozen {
                    for (g, &f) in grads.iter_mut().zip(from(frozen, off)) {
                        if f {
                            *g = 0.0;
                        }
                    }
                }
                opt.step(params, grads);
                if let Some(mask) = &opts.prune_mask {
                    for (p, &keep) in params.iter_mut().zip(from(mask, off)) {
                        if !keep {
                            *p = 0.0;
                        }
                    }
                }
                off += params.len();
            }
        }
    }

    /// Evaluate loss and accuracy on a dataset.
    ///
    /// An empty dataset yields zeroed metrics.
    pub fn evaluate(&self, data: &Dataset) -> Evaluation {
        if data.is_empty() {
            return Evaluation {
                loss: 0.0,
                accuracy: 0.0,
                samples: 0,
            };
        }
        match self.forward_inference(data.features()) {
            Ok(logits) => Evaluation {
                loss: cross_entropy_loss(&logits, data.labels()).unwrap_or(f32::INFINITY),
                accuracy: accuracy(&logits, data.labels()),
                samples: data.len(),
            },
            Err(_) => Evaluation {
                loss: f32::INFINITY,
                accuracy: 0.0,
                samples: data.len(),
            },
        }
    }

    /// [`Mlp::evaluate`] through the reusable scratch activations —
    /// allocation-free once the buffers are warm, for callers that
    /// evaluate in a loop. Callers that want only the accuracy use
    /// [`Mlp::accuracy_mut`].
    pub fn evaluate_mut(&mut self, data: &Dataset) -> Evaluation {
        if data.is_empty() {
            return Evaluation {
                loss: 0.0,
                accuracy: 0.0,
                samples: 0,
            };
        }
        match self.forward_scratch(data.features(), false) {
            Ok(()) => {
                let logits = &self.scratch.acts[self.layers.len() - 1];
                Evaluation {
                    loss: cross_entropy_loss(logits, data.labels()).unwrap_or(f32::INFINITY),
                    accuracy: accuracy(logits, data.labels()),
                    samples: data.len(),
                }
            }
            Err(_) => Evaluation {
                loss: f32::INFINITY,
                accuracy: 0.0,
                samples: data.len(),
            },
        }
    }

    /// Top-1 accuracy alone, through the scratch activations: what
    /// [`Mlp::evaluate_mut`]`.accuracy` reads, without the softmax (one
    /// `exp` per class and an `ln` per sample) that only the loss needs.
    /// The round runtime calls this twice per training attempt and once
    /// per client of every evaluation sweep, and never looks at the loss.
    pub fn accuracy_mut(&mut self, data: &Dataset) -> f32 {
        if data.is_empty() || self.forward_scratch(data.features(), false).is_err() {
            return 0.0;
        }
        accuracy(&self.scratch.acts[self.layers.len() - 1], data.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Mlp {
        /// [`Mlp::train_epoch_corrected`] with the step written over the
        /// flattened model — the oracle for the in-place step: flatten the
        /// gradients, correct and mask them in a flat buffer, one flat
        /// [`Sgd::step`], prune, and load the flat parameters back into
        /// the layers.
        fn train_epoch_reference(
            &mut self,
            data: &Dataset,
            batch_size: usize,
            opt: &Sgd,
            seed: u64,
            opts: &TrainOptions,
            drift: &DriftOptions<'_>,
        ) -> f32 {
            if data.is_empty() || batch_size == 0 {
                return 0.0;
            }
            let mut order: Vec<usize> = (0..data.len()).collect();
            order.shuffle(&mut seed_rng(seed));
            let (mut batch, mut batch_labels) = (Tensor::default(), Vec::new());
            let mut params = self.params();
            let (mut total, mut batches) = (0.0, 0);
            for chunk in order.chunks(batch_size) {
                data.gather_into(chunk, &mut batch, &mut batch_labels);
                match self.forward_backward(&batch, &batch_labels) {
                    Ok(loss) => {
                        total += loss;
                        batches += 1;
                    }
                    Err(_) => continue,
                }
                let mut grads = self.grads();
                if let Some((mu, anchor)) = drift.prox {
                    for ((g, &p), &a) in grads.iter_mut().zip(&params).zip(anchor) {
                        *g += mu * (p - a);
                    }
                }
                if let Some((c, ci)) = drift.scaffold {
                    if ci.is_empty() {
                        for (g, &cj) in grads.iter_mut().zip(c) {
                            *g += cj;
                        }
                    } else {
                        for ((g, &cj), &cij) in grads.iter_mut().zip(c).zip(ci) {
                            *g += cj - cij;
                        }
                    }
                }
                if let Some(frozen) = &opts.frozen {
                    for (g, &f) in grads.iter_mut().zip(frozen) {
                        if f {
                            *g = 0.0;
                        }
                    }
                }
                opt.step(&mut params, &grads);
                if let Some(mask) = &opts.prune_mask {
                    for (p, &keep) in params.iter_mut().zip(mask) {
                        if !keep {
                            *p = 0.0;
                        }
                    }
                }
                self.set_params(&params).expect("flat buffer fits");
            }
            if batches == 0 {
                0.0
            } else {
                total / batches as f32
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `len` pseudo-random values in `[-scale, scale)` from `seed`.
    fn noise(len: usize, seed: u64, scale: f32) -> Vec<f32> {
        use rand::Rng;
        let mut rng = seed_rng(seed);
        (0..len).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    /// A flat-layout mask from `seed`: `kind` 0 is no mask, 1 a full-length
    /// one, 2 one that stops partway through the last weight matrix (the
    /// prefix-coverage case).
    fn mask(kind: u8, len: usize, seed: u64) -> Option<Vec<bool>> {
        let len = match kind {
            0 => return None,
            1 => len,
            _ => len - 9,
        };
        Some(noise(len, seed, 1.0).iter().map(|&v| v > 0.0).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place step against the flat-buffer oracle, bit for bit:
        /// every parameter, and the loss each epoch reports, over random
        /// frozen / prune masks × FedProx × SCAFFOLD (first-time client
        /// with an empty `c_i`, and a full one). Two epochs, so the second
        /// starts from the parameters the first left; 37 samples at batch
        /// 8 end each epoch on a ragged batch.
        #[test]
        fn in_place_step_matches_flat_reference_bitwise(
            seed in any::<u64>(),
            frozen_kind in 0u8..3,
            prune_kind in 0u8..3,
            prox in any::<bool>(),
            scaffold_kind in 0u8..3,
        ) {
            let cfg = MlpConfig::new(5, &[7, 6], 4);
            let n = cfg.num_params();
            let data = Dataset::new(
                Tensor::from_vec(37, 5, noise(37 * 5, split_seed(seed, 1), 1.0)).unwrap(),
                (0..37).map(|i| (i * 3 + seed as usize % 4) % 4).collect(),
                4,
            )
            .unwrap();
            let opts = TrainOptions {
                frozen: mask(frozen_kind, n, split_seed(seed, 2)),
                prune_mask: mask(prune_kind, n, split_seed(seed, 3)),
            };
            let anchor = noise(n, split_seed(seed, 4), 0.5);
            let c = noise(n, split_seed(seed, 5), 0.1);
            let ci = noise(n, split_seed(seed, 6), 0.1);
            let drift = DriftOptions {
                prox: prox.then_some((0.3, &anchor[..])),
                scaffold: match scaffold_kind {
                    0 => None,
                    1 => Some((&c[..], &[][..])),
                    _ => Some((&c[..], &ci[..])),
                },
            };
            let opt = Sgd::new(0.1);
            let mut model = Mlp::new(&cfg, split_seed(seed, 7));
            let mut oracle = model.clone();
            for epoch in 0..2 {
                let loss = model.train_epoch_corrected(&data, 8, &opt, epoch, &opts, &drift);
                let want = oracle.train_epoch_reference(&data, 8, &opt, epoch, &opts, &drift);
                prop_assert_eq!(loss.to_bits(), want.to_bits());
                prop_assert_eq!(bits(&model.params()), bits(&oracle.params()));
            }
        }
    }

    fn xor_like() -> Dataset {
        // Linearly separable 2-class blobs.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut rng = seed_rng(5);
        use rand::Rng;
        for _ in 0..128 {
            let cls = rng.gen_range(0..2usize);
            let center = if cls == 0 { -1.0 } else { 1.0 };
            rows.push(vec![
                center + rng.gen_range(-0.3f32..0.3),
                center + rng.gen_range(-0.3f32..0.3),
            ]);
            labels.push(cls);
        }
        Dataset::from_rows(&rows, &labels, 2).unwrap()
    }

    #[test]
    fn params_roundtrip() {
        let cfg = MlpConfig::new(4, &[8, 8], 3);
        let m = Mlp::new(&cfg, 11);
        let p = m.params();
        assert_eq!(p.len(), cfg.num_params());
        let mut m2 = Mlp::new(&cfg, 99);
        m2.set_params(&p).unwrap();
        assert_eq!(m2.params(), p);
    }

    #[test]
    fn set_params_rejects_wrong_length() {
        let mut m = Mlp::new(&MlpConfig::new(2, &[4], 2), 1);
        assert!(m.set_params(&[0.0; 3]).is_err());
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let data = xor_like();
        let mut m = Mlp::new(&MlpConfig::new(2, &[8], 2), 3);
        let before = m.evaluate(&data);
        let opt = Sgd::new(0.2);
        for e in 0..20 {
            m.train_epoch(&data, 16, &opt, e);
        }
        let after = m.evaluate(&data);
        assert!(after.loss < before.loss);
        assert!(after.accuracy > 0.95, "accuracy {}", after.accuracy);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let data = xor_like();
        let cfg = MlpConfig::new(2, &[4], 2);
        let mut m = Mlp::new(&cfg, 3);
        let frozen = vec![true; cfg.num_params()];
        let before = m.params();
        let opt = Sgd::new(0.5);
        m.train_epoch_corrected(
            &data,
            16,
            &opt,
            0,
            &TrainOptions {
                frozen: Some(frozen),
                prune_mask: None,
            },
            &DriftOptions::default(),
        );
        assert_eq!(m.params(), before);
    }

    #[test]
    fn prune_mask_keeps_params_zero() {
        let data = xor_like();
        let cfg = MlpConfig::new(2, &[4], 2);
        let mut m = Mlp::new(&cfg, 3);
        let n = cfg.num_params();
        // Zero out the first half of parameters.
        let mask: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        let opt = Sgd::new(0.2);
        m.train_epoch_corrected(
            &data,
            16,
            &opt,
            0,
            &TrainOptions {
                prune_mask: Some(mask.clone()),
                frozen: None,
            },
            &DriftOptions::default(),
        );
        let params = m.params();
        for (i, (&p, &keep)) in params.iter().zip(&mask).enumerate() {
            if !keep {
                assert_eq!(p, 0.0, "pruned param {i} drifted to {p}");
            }
        }
    }

    #[test]
    fn evaluate_mut_matches_evaluate() {
        let data = xor_like();
        let mut m = Mlp::new(&MlpConfig::new(2, &[8], 2), 3);
        let opt = Sgd::new(0.2);
        for e in 0..3 {
            m.train_epoch(&data, 16, &opt, e);
        }
        let by_ref = m.evaluate(&data);
        let by_scratch = m.evaluate_mut(&data);
        assert_eq!(by_ref, by_scratch);
        // A second scratch evaluation must be unaffected by buffer reuse.
        assert_eq!(m.evaluate_mut(&data), by_scratch);
    }

    #[test]
    fn accuracy_mut_is_the_accuracy_evaluate_mut_reports() {
        let data = xor_like();
        let mut m = Mlp::new(&MlpConfig::new(2, &[8], 2), 3);
        let opt = Sgd::new(0.2);
        for e in 0..4 {
            // Untrained, partly trained and converged models alike.
            assert_eq!(m.accuracy_mut(&data), m.evaluate_mut(&data).accuracy);
            m.train_epoch(&data, 16, &opt, e);
        }
        let acc = m.accuracy_mut(&data);
        assert_eq!(acc, m.evaluate_mut(&data).accuracy);
        assert!(acc > 0.9, "accuracy {acc}");
        // Scratch reuse across calls and dataset sizes leaves it unchanged.
        let head = data.subset(&[0, 1, 2, 3, 4]);
        assert_eq!(m.accuracy_mut(&head), m.evaluate_mut(&head).accuracy);
        assert_eq!(m.accuracy_mut(&data), acc);

        let empty = data.subset(&[]);
        assert_eq!(m.accuracy_mut(&empty), 0.0);
        assert_eq!(m.evaluate_mut(&empty).accuracy, 0.0);

        // A label no logit column can match (the dataset claims a class
        // the model does not have): the loss is undefined, the sample
        // counts as wrong, and both entry points agree on that.
        let wide = Dataset::new(data.features().clone(), vec![2; data.len()], 3).unwrap();
        assert_eq!(m.accuracy_mut(&wide), 0.0);
        let eval = m.evaluate_mut(&wide);
        assert_eq!((eval.accuracy, eval.loss), (0.0, f32::INFINITY));
        // ...and a feature width the model cannot take.
        let narrow = Dataset::from_rows(&[vec![0.5]], &[0], 2).unwrap();
        assert_eq!(m.accuracy_mut(&narrow), m.evaluate_mut(&narrow).accuracy);
    }

    #[test]
    fn eval_train_eval_on_one_model_matches_fresh_models() {
        // The scratch buffers are reused and never cleared: a model that
        // evaluates, trains and evaluates again must produce, step for
        // step, what models starting from cold scratch produce, and the
        // scratch evaluation must agree with the allocating one.
        let data = xor_like();
        let cfg = MlpConfig::new(2, &[8], 2);
        let fresh = |params: &[f32]| {
            let mut f = Mlp::new(&cfg, 99);
            f.set_params(params).unwrap();
            f
        };
        let mut m = Mlp::new(&cfg, 3);
        let first = m.evaluate_mut(&data);
        assert_eq!(first, m.evaluate(&data));
        assert_eq!(first, fresh(&m.params()).evaluate_mut(&data));
        let mut cold = fresh(&m.params());
        let opt = Sgd::new(0.2);
        let loss = m.train_epoch(&data, 16, &opt, 0);
        let cold_loss = cold.train_epoch(&data, 16, &opt, 0);
        assert_eq!(loss.to_bits(), cold_loss.to_bits());
        assert_eq!(bits(&m.params()), bits(&cold.params()));
        let second = m.evaluate_mut(&data);
        assert_ne!(second, first, "training must have moved the model");
        assert_eq!(second, m.evaluate(&data));
        assert_eq!(second, fresh(&m.params()).evaluate_mut(&data));
    }

    #[test]
    fn no_drift_is_bit_identical_to_plain_training() {
        let data = xor_like();
        let cfg = MlpConfig::new(2, &[8], 2);
        let mut plain = Mlp::new(&cfg, 3);
        let mut corrected = Mlp::new(&cfg, 3);
        let opt = Sgd::new(0.2);
        for e in 0..3 {
            plain.train_epoch(&data, 16, &opt, e);
            corrected.train_epoch_corrected(
                &data,
                16,
                &opt,
                e,
                &TrainOptions::default(),
                &DriftOptions::default(),
            );
        }
        assert_eq!(
            plain
                .params()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            corrected
                .params()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "empty drift options changed the training trajectory"
        );
    }

    #[test]
    fn prox_term_pulls_training_toward_anchor() {
        let data = xor_like();
        let cfg = MlpConfig::new(2, &[8], 2);
        let dist = |mu: f32| {
            let mut m = Mlp::new(&cfg, 3);
            let anchor = m.params();
            let opt = Sgd::new(0.2);
            for e in 0..5 {
                m.train_epoch_corrected(
                    &data,
                    16,
                    &opt,
                    e,
                    &TrainOptions::default(),
                    &DriftOptions {
                        prox: Some((mu, &anchor)),
                        scaffold: None,
                    },
                );
            }
            m.params()
                .iter()
                .zip(&anchor)
                .map(|(p, a)| f64::from((p - a) * (p - a)))
                .sum::<f64>()
        };
        let free = dist(0.0);
        let anchored = dist(5.0);
        assert!(
            anchored < free,
            "μ=5 drift {anchored} not below unconstrained drift {free}"
        );
    }

    #[test]
    fn scaffold_correction_alters_trajectory_unless_variates_cancel() {
        let data = xor_like();
        let cfg = MlpConfig::new(2, &[8], 2);
        let n = cfg.num_params();
        let run = |drift: &DriftOptions<'_>| {
            let mut m = Mlp::new(&cfg, 3);
            let opt = Sgd::new(0.2);
            m.train_epoch_corrected(&data, 16, &opt, 0, &TrainOptions::default(), drift);
            m.params()
        };
        let baseline = run(&DriftOptions::default());
        let c = vec![0.05f32; n];
        // c == c_i cancels exactly: the correction adds zero per entry.
        let cancelled = run(&DriftOptions {
            prox: None,
            scaffold: Some((&c, &c)),
        });
        assert_eq!(cancelled, baseline, "c == c_i must be a no-op correction");
        // Empty c_i stands for zeros, so the server variate alone shifts
        // every step.
        let shifted = run(&DriftOptions {
            prox: None,
            scaffold: Some((&c, &[])),
        });
        assert_ne!(shifted, baseline, "nonzero c − c_i must move training");
    }

    #[test]
    fn empty_dataset_is_harmless() {
        let cfg = MlpConfig::new(2, &[4], 2);
        let mut m = Mlp::new(&cfg, 3);
        let d = Dataset::from_rows(&[vec![0.0, 0.0]], &[0], 2).unwrap();
        let sub = d.subset(&[]);
        let opt = Sgd::new(0.1);
        assert_eq!(m.train_epoch(&sub, 8, &opt, 0), 0.0);
        assert_eq!(m.evaluate(&sub).samples, 0);
    }
}
