//! Split-model vertical FL training: per-party bottom models plus a
//! server-side top model, trained end-to-end through embedding gradients.

use rand::Rng;
use serde::{Deserialize, Serialize};

use float_tensor::layers::Linear;
use float_tensor::loss::{accuracy, softmax_cross_entropy_into};
use float_tensor::model::TrainOptions;
use float_tensor::rng::{seed_rng, split_seed};
use float_tensor::{Dataset, Sgd, Tensor};

/// Configuration of a vertical FL deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VflConfig {
    /// Feature width held by each party (ordered).
    pub party_dims: Vec<usize>,
    /// Embedding width each party produces.
    pub embed_dim: usize,
    /// Number of label classes (held by the aggregator).
    pub num_classes: usize,
}

impl VflConfig {
    /// Total feature dimensionality across parties.
    fn total_dim(&self) -> usize {
        self.party_dims.iter().sum()
    }

    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.party_dims.len()
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    fn validate(&self) -> Result<(), String> {
        if self.party_dims.is_empty() {
            return Err("need at least one party".into());
        }
        if self.party_dims.contains(&0) {
            return Err("every party must hold at least one feature".into());
        }
        if self.embed_dim == 0 || self.num_classes < 2 {
            return Err("embed_dim must be positive and num_classes >= 2".into());
        }
        Ok(())
    }
}

/// A vertically partitioned dataset: one feature block per party plus the
/// aggregator-held labels.
#[derive(Debug, Clone)]
pub struct VflDataset {
    /// Per-party feature matrices, all with the same row count.
    pub party_features: Vec<Tensor>,
    /// Labels, aligned with the rows.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl VflDataset {
    /// Vertically split a centralized [`Dataset`] according to
    /// `config.party_dims`.
    ///
    /// # Errors
    ///
    /// Returns a message if the dataset's width does not equal the sum of
    /// party widths.
    fn split(data: &Dataset, config: &VflConfig) -> Result<Self, String> {
        config.validate()?;
        if data.dim() != config.total_dim() {
            return Err(format!(
                "dataset width {} != sum of party widths {}",
                data.dim(),
                config.total_dim()
            ));
        }
        let n = data.len();
        let mut party_features = Vec::with_capacity(config.num_parties());
        let mut offset = 0;
        for &w in &config.party_dims {
            let mut flat = Vec::with_capacity(n * w);
            for r in 0..n {
                let row = data.features().row(r);
                flat.extend_from_slice(&row[offset..offset + w]);
            }
            party_features
                .push(Tensor::from_vec(n, w, flat).map_err(|e| format!("split failed: {e}"))?);
            offset += w;
        }
        Ok(VflDataset {
            party_features,
            labels: data.labels().to_vec(),
            num_classes: data.num_classes(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Gather the rows at `indices` of one party's features into `out`.
    fn party_batch_into(&self, party: usize, indices: &[usize], out: &mut Tensor) {
        let src = &self.party_features[party];
        let w = src.cols();
        out.resize(indices.len(), w);
        for (r, &i) in indices.iter().enumerate() {
            out.data_mut()[r * w..(r + 1) * w].copy_from_slice(src.row(i));
        }
    }
}

/// The split model: per-party bottom encoders and the aggregator's top
/// classifier.
#[derive(Debug, Clone)]
pub struct SplitModel {
    config: VflConfig,
    bottoms: Vec<Linear>,
    top: Linear,
}

impl SplitModel {
    /// Initialize from a configuration and seed.
    pub fn new(config: &VflConfig, seed: u64) -> Self {
        let bottoms = config
            .party_dims
            .iter()
            .enumerate()
            .map(|(i, &d)| Linear::new(d, config.embed_dim, split_seed(seed, i as u64)))
            .collect();
        let top = Linear::new(
            config.embed_dim * config.num_parties(),
            config.num_classes,
            split_seed(seed, 0x70),
        );
        SplitModel {
            config: config.clone(),
            bottoms,
            top,
        }
    }

    /// Bottom-model parameter count of one party.
    pub fn party_params(&self, party: usize) -> usize {
        self.bottoms[party].weight.len() + self.bottoms[party].bias.len()
    }

    /// Forward pass for inference over a full [`VflDataset`].
    fn forward_full(&self, data: &VflDataset) -> Tensor {
        let n = data.len();
        let e = self.config.embed_dim;
        let p = self.config.num_parties();
        let mut concat = Tensor::zeros(n, e * p);
        for (pi, bottom) in self.bottoms.iter().enumerate() {
            let emb = bottom
                .forward_inference(&data.party_features[pi])
                .expect("party width matches bottom model");
            // ReLU then copy into the concatenated block.
            for r in 0..n {
                for c in 0..e {
                    let v = emb.at(r, c).max(0.0);
                    concat.set(r, pi * e + c, v);
                }
            }
        }
        self.top
            .forward_inference(&concat)
            .expect("concat width matches top model")
    }

    /// Evaluate accuracy over a [`VflDataset`].
    pub fn evaluate(&self, data: &VflDataset) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let logits = self.forward_full(data);
        accuracy(&logits, &data.labels)
    }

    /// One epoch of split training: minibatches flow bottom-up through all
    /// parties, the top model computes the loss, and embedding gradients
    /// flow back down. `party_opts[i]` carries FLOAT's acceleration hooks
    /// for party `i` (frozen masks for partial training, prune masks); a
    /// mask whose length is not the party's parameter count is ignored.
    ///
    /// Returns the mean training loss.
    ///
    /// # Panics
    ///
    /// Panics if `party_opts.len() != num_parties`.
    pub fn train_epoch(
        &mut self,
        data: &VflDataset,
        batch_size: usize,
        lr: f32,
        seed: u64,
        party_opts: &[TrainOptions],
    ) -> f32 {
        assert_eq!(
            party_opts.len(),
            self.config.num_parties(),
            "one TrainOptions per party"
        );
        if data.is_empty() || batch_size == 0 {
            return 0.0;
        }
        let mut order: Vec<usize> = (0..data.len()).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut seed_rng(seed));
        let e = self.config.embed_dim;
        let p = self.config.num_parties();
        let opt = Sgd::new(lr);
        // Per-party batches and pre-ReLU embeddings stay alive from the
        // forward pass to the backward pass; every buffer is reused across
        // batches.
        let mut xs = vec![Tensor::default(); p];
        let mut embeddings = vec![Tensor::default(); p];
        let (mut concat, mut logits) = (Tensor::default(), Tensor::default());
        let (mut grad_logits, mut grad_concat, mut grad_emb) =
            (Tensor::default(), Tensor::default(), Tensor::default());
        let mut labels = Vec::with_capacity(batch_size);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            let n = chunk.len();
            labels.clear();
            labels.extend(chunk.iter().map(|&i| data.labels[i]));
            // Bottom forward per party, then concatenate ReLU(embeddings).
            concat.resize(n, e * p);
            for pi in 0..p {
                data.party_batch_into(pi, chunk, &mut xs[pi]);
                let bottom = &self.bottoms[pi];
                let emb = &mut embeddings[pi];
                bottom
                    .forward_matmul_into(&xs[pi], emb)
                    .expect("width matches");
                emb.add_row_broadcast(&bottom.bias).expect("width matches");
                for r in 0..n {
                    let block = &mut concat.data_mut()[(r * p + pi) * e..][..e];
                    for (c, &v) in block.iter_mut().zip(emb.row(r)) {
                        *c = v.max(0.0);
                    }
                }
            }
            // Top forward + loss.
            self.top
                .forward_matmul_into(&concat, &mut logits)
                .expect("width matches");
            logits
                .add_row_broadcast(&self.top.bias)
                .expect("width matches");
            let Ok(loss) = softmax_cross_entropy_into(&logits, &labels, &mut grad_logits) else {
                continue;
            };
            total += loss;
            batches += 1;
            // Top backward (grad w.r.t. the concatenated embeddings), then
            // update the top model.
            self.top
                .backward_into(&concat, &grad_logits, &mut grad_concat)
                .expect("shapes match the forward pass");
            step_layer(&mut self.top, &opt, &TrainOptions::default());
            // Per-party backward through the ReLU and the bottom model. A
            // bottom model's input gradient has no consumer, so only its
            // parameter gradients are computed.
            grad_emb.resize(n, e);
            for pi in 0..p {
                for r in 0..n {
                    let upstream = &grad_concat.row(r)[pi * e..(pi + 1) * e];
                    let gated = &mut grad_emb.data_mut()[r * e..(r + 1) * e];
                    // ReLU gate on the pre-activation.
                    for ((g, &pre), &up) in
                        gated.iter_mut().zip(embeddings[pi].row(r)).zip(upstream)
                    {
                        *g = if pre > 0.0 { up } else { 0.0 };
                    }
                }
                self.bottoms[pi]
                    .backward_params_only(&xs[pi], &grad_emb)
                    .expect("shapes match the forward pass");
                step_layer(&mut self.bottoms[pi], &opt, &party_opts[pi]);
            }
        }
        if batches == 0 {
            0.0
        } else {
            total / batches as f32
        }
    }
}

/// One in-place SGD step on `layer`'s weight and bias, with FLOAT's hooks
/// read over the layer's flat layout (weights then bias): a frozen entry's
/// gradient is zeroed before the step, a pruned entry is re-zeroed after
/// it. A mask applies only when its length equals the layer's parameter
/// count.
fn step_layer(layer: &mut Linear, opt: &Sgd, hooks: &TrainOptions) {
    fn fitting(mask: &Option<Vec<bool>>, n: usize) -> Option<&[bool]> {
        mask.as_deref().filter(|m| m.len() == n)
    }
    let n = layer.weight.len() + layer.bias.len();
    let (frozen, prune) = (fitting(&hooks.frozen, n), fitting(&hooks.prune_mask, n));
    let mut off = 0;
    for (param, grad) in [
        (&mut layer.weight, &mut layer.grad_weight),
        (&mut layer.bias, &mut layer.grad_bias),
    ] {
        let (params, grads) = (param.data_mut(), grad.data_mut());
        let end = off + params.len();
        if let Some(frozen) = frozen {
            for (g, &f) in grads.iter_mut().zip(&frozen[off..end]) {
                if f {
                    *g = 0.0;
                }
            }
        }
        opt.step(params, grads);
        if let Some(mask) = prune {
            for (v, &keep) in params.iter_mut().zip(&mask[off..end]) {
                if !keep {
                    *v = 0.0;
                }
            }
        }
        off = end;
    }
}

/// Generate a synthetic VFL problem: `n` samples whose label depends on
/// features spread across *all* parties (so no party can solve it alone).
pub fn synthetic_vfl(config: &VflConfig, n: usize, seed: u64) -> VflDataset {
    let mut rng = seed_rng(split_seed(seed, 0x5EED));
    let total = config.total_dim();
    // Class centroids over the full feature space.
    // Weak per-feature signal: no single party's feature block separates
    // the classes, but the union does — the defining property of a
    // vertical task.
    let centroids: Vec<Vec<f32>> = (0..config.num_classes)
        .map(|_| (0..total).map(|_| rng.gen_range(-0.45..0.45)).collect())
        .collect();
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let y = rng.gen_range(0..config.num_classes);
        let row: Vec<f32> = centroids[y]
            .iter()
            .map(|&m| m + rng.gen_range(-0.55f32..0.55))
            .collect();
        rows.push(row);
        labels.push(y);
    }
    let data =
        Dataset::from_rows(&rows, &labels, config.num_classes).expect("synthetic rows rectangular");
    VflDataset::split(&data, config).expect("widths match by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> VflConfig {
        VflConfig {
            party_dims: vec![6, 4, 6],
            embed_dim: 8,
            num_classes: 4,
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg().validate().is_ok());
        let mut c = cfg();
        c.party_dims = vec![];
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.party_dims[1] = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.num_classes = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn split_partitions_features() {
        let c = cfg();
        let data = synthetic_vfl(&c, 32, 1);
        assert_eq!(data.party_features.len(), 3);
        assert_eq!(data.party_features[0].cols(), 6);
        assert_eq!(data.party_features[1].cols(), 4);
        assert_eq!(data.party_features[2].cols(), 6);
        for pf in &data.party_features {
            assert_eq!(pf.rows(), 32);
        }
    }

    #[test]
    fn split_rejects_width_mismatch() {
        let c = cfg();
        let small = Dataset::from_rows(&[vec![0.0; 5]], &[0], 4).unwrap();
        assert!(VflDataset::split(&small, &c).is_err());
    }

    #[test]
    fn vfl_training_learns() {
        let c = cfg();
        let data = synthetic_vfl(&c, 256, 3);
        let mut model = SplitModel::new(&c, 7);
        let before = model.evaluate(&data);
        let opts = vec![TrainOptions::default(); c.num_parties()];
        for e in 0..30 {
            model.train_epoch(&data, 32, 0.1, e, &opts);
        }
        let after = model.evaluate(&data);
        assert!(
            after > before + 0.3 && after > 0.8,
            "vfl did not learn: before {before}, after {after}"
        );
    }

    #[test]
    fn frozen_party_does_not_move() {
        let c = cfg();
        let data = synthetic_vfl(&c, 64, 3);
        let mut model = SplitModel::new(&c, 7);
        let frozen_params = model.party_params(1);
        let before: Vec<f32> = {
            let mut v = model.bottoms[1].weight.data().to_vec();
            v.extend_from_slice(model.bottoms[1].bias.data());
            v
        };
        let mut opts = vec![TrainOptions::default(); c.num_parties()];
        opts[1].frozen = Some(vec![true; frozen_params]);
        model.train_epoch(&data, 16, 0.1, 0, &opts);
        let after: Vec<f32> = {
            let mut v = model.bottoms[1].weight.data().to_vec();
            v.extend_from_slice(model.bottoms[1].bias.data());
            v
        };
        assert_eq!(before, after, "frozen party parameters moved");
    }

    #[test]
    fn pruned_party_stays_sparse() {
        let c = cfg();
        let data = synthetic_vfl(&c, 64, 3);
        let mut model = SplitModel::new(&c, 7);
        let n = model.party_params(0);
        let mask: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut opts = vec![TrainOptions::default(); c.num_parties()];
        opts[0].prune_mask = Some(mask.clone());
        model.train_epoch(&data, 16, 0.1, 0, &opts);
        let params: Vec<f32> = {
            let mut v = model.bottoms[0].weight.data().to_vec();
            v.extend_from_slice(model.bottoms[0].bias.data());
            v
        };
        for (i, (&p, &keep)) in params.iter().zip(&mask).enumerate() {
            if !keep {
                assert_eq!(p, 0.0, "pruned param {i} drifted");
            }
        }
    }

    #[test]
    fn no_single_party_suffices() {
        // Train with only party 0 unfrozen bottoms — accuracy should lag a
        // full-feature model, demonstrating genuine feature verticality.
        let c = cfg();
        let data = synthetic_vfl(&c, 256, 5);
        let full = {
            let mut m = SplitModel::new(&c, 7);
            let opts = vec![TrainOptions::default(); c.num_parties()];
            for e in 0..25 {
                m.train_epoch(&data, 32, 0.1, e, &opts);
            }
            m.evaluate(&data)
        };
        // Zero out parties 1 and 2's features entirely.
        let mut crippled = data.clone();
        for pi in 1..3 {
            let t = &mut crippled.party_features[pi];
            for v in t.data_mut() {
                *v = 0.0;
            }
        }
        let partial = {
            let mut m = SplitModel::new(&c, 7);
            let opts = vec![TrainOptions::default(); c.num_parties()];
            for e in 0..25 {
                m.train_epoch(&crippled, 32, 0.1, e, &opts);
            }
            m.evaluate(&crippled)
        };
        assert!(
            full > partial + 0.1,
            "full {full} not clearly above single-party {partial}"
        );
    }
}
