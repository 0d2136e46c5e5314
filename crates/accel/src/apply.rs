//! Turning an [`AccelAction`] into an executable round plan: the resource
//! cost transform plus the concrete model-side transforms.

use float_models::{Precision, RoundCost};
use float_tensor::model::TrainOptions;

use crate::action::AccelAction;
use crate::compress::{compress_f32_update, top_k_sparsify};
use crate::partial::{compute_multiplier, frozen_mask};
use crate::prune::{magnitude_mask, magnitude_mask_protected};
use crate::quantize::quantize_dequantize;

/// The executable consequences of choosing an acceleration action for one
/// client round.
#[derive(Debug, Clone)]
pub struct AccelPlan {
    /// The action this plan realizes.
    pub action: AccelAction,
    /// Resource cost of the accelerated round.
    pub cost: RoundCost,
    /// Hooks for the local training loop (prune / frozen masks).
    pub train_options: TrainOptions,
}

/// Build the [`AccelPlan`] for `action`.
///
/// * `base_cost` — the vanilla round cost for this client/model/dataset.
/// * `global_params` — the incoming global model parameters (needed to
///   compute magnitude-pruning masks).
/// * `seed` — determinism for the partial-training frozen subset.
///
/// Pruning prunes every parameter by magnitude; use
/// [`apply_action_protected`] when the model marks parameters (biases,
/// classifier layer) that must survive.
pub fn apply_action(
    action: AccelAction,
    base_cost: RoundCost,
    global_params: &[f32],
    seed: u64,
) -> AccelPlan {
    apply_action_protected(action, base_cost, global_params, seed, None)
}

/// [`apply_action`] with an optional mask of prune-protected parameters.
///
/// The plan's two halves are independent pure functions — [`action_cost`]
/// and [`action_train_options`] — so a caller that needs the cost before
/// it knows whether the client will train at all can build them apart.
pub fn apply_action_protected(
    action: AccelAction,
    base_cost: RoundCost,
    global_params: &[f32],
    seed: u64,
    protected: Option<&[bool]>,
) -> AccelPlan {
    AccelPlan {
        action,
        cost: action_cost(action, base_cost, global_params),
        train_options: action_train_options(action, global_params, seed, protected),
    }
}

/// The pruned / frozen fraction an action's name carries (`0.0` for
/// actions that neither prune nor freeze).
fn fraction(action: AccelAction) -> f64 {
    match action {
        AccelAction::Prune25 | AccelAction::Partial25 => 0.25,
        AccelAction::Prune50 | AccelAction::Partial50 => 0.50,
        AccelAction::Prune75 | AccelAction::Partial75 => 0.75,
        _ => 0.0,
    }
}

/// Resource cost of a round accelerated by `action` — what the resource
/// simulator needs to decide whether the client finishes.
pub fn action_cost(action: AccelAction, base_cost: RoundCost, global_params: &[f32]) -> RoundCost {
    let n = global_params.len();
    match action {
        AccelAction::NoOp => base_cost,
        AccelAction::Quantize16 | AccelAction::Quantize8 => {
            let precision = if action == AccelAction::Quantize16 {
                Precision::Int16
            } else {
                Precision::Int8
            };
            // Quantization shaves the upload but costs a little extra
            // compute for the quantize/dequantize passes (~2 flops/param).
            base_cost
                .with_upload_precision(precision)
                .add_flops(2.0 * n as f64)
        }
        AccelAction::Prune25 | AccelAction::Prune50 | AccelAction::Prune75 => {
            // A pruned model trains on, stores, and ships only the
            // surviving parameters — in both directions: the server sends
            // the pruned model down, and the client returns the pruned
            // update.
            let keep = 1.0 - fraction(action);
            let mut cost = base_cost
                .scale_compute(keep)
                .scale_upload(keep)
                .scale_memory(keep.max(0.25));
            cost.download_bytes *= keep;
            cost
        }
        AccelAction::Partial25 | AccelAction::Partial50 | AccelAction::Partial75 => {
            // Partial training cuts backward-pass compute and gradient
            // memory, but the full model still ships both ways — that is
            // precisely why it underperforms when the *network* is the
            // bottleneck (paper Fig. 10c).
            let fraction = fraction(action);
            base_cost
                .scale_compute(compute_multiplier(fraction))
                .scale_memory(1.0 - fraction / 3.0)
        }
        AccelAction::CompressLossless => {
            // Honest ratio: compress the actual global parameters as a
            // stand-in for the update (same byte statistics) and price the
            // upload at the measured ratio, plus compression compute
            // (~30 flops/param for the codec passes).
            let ratio = if n == 0 {
                1.0
            } else {
                let compressed = compress_f32_update(global_params).len() as f64;
                (compressed / (4.0 * n as f64)).min(1.0)
            };
            base_cost.scale_upload(ratio).add_flops(30.0 * n as f64)
        }
        AccelAction::TopK10 => {
            let keep = 0.10;
            // indices (4B) + values (4B) per kept coordinate vs 4B dense.
            let wire_ratio = keep * 2.0;
            base_cost
                .scale_upload(wire_ratio)
                .add_flops((n as f64) * (n as f64).log2().max(1.0) * 0.1)
        }
    }
}

/// The local-training hooks `action` dictates: the magnitude-prune mask
/// over `global_params` (sparing `protected` entries when the mask fits
/// the model), or the seeded frozen subset for partial training. Only a
/// client that actually trains needs them.
pub fn action_train_options(
    action: AccelAction,
    global_params: &[f32],
    seed: u64,
    protected: Option<&[bool]>,
) -> TrainOptions {
    match action {
        AccelAction::Prune25 | AccelAction::Prune50 | AccelAction::Prune75 => {
            let mask = match protected {
                Some(p) if p.len() == global_params.len() => {
                    magnitude_mask_protected(global_params, fraction(action), p)
                }
                _ => magnitude_mask(global_params, fraction(action)),
            };
            TrainOptions {
                prune_mask: Some(mask),
                frozen: None,
            }
        }
        AccelAction::Partial25 | AccelAction::Partial50 | AccelAction::Partial75 => TrainOptions {
            prune_mask: None,
            frozen: Some(frozen_mask(global_params.len(), fraction(action), seed)),
        },
        _ => TrainOptions::default(),
    }
}

/// Transform a computed model update (delta) the way the chosen action
/// would before upload: quantization rounds it to the wire grid, top-k
/// sparsifies it, pruning zeroes pruned coordinates. Pass-through for
/// actions that ship the exact update.
pub fn transform_update(action: AccelAction, update: &[f32], plan: &AccelPlan) -> Vec<f32> {
    match action {
        AccelAction::Quantize16 => quantize_dequantize(update, 16),
        AccelAction::Quantize8 => quantize_dequantize(update, 8),
        AccelAction::TopK10 => top_k_sparsify(update, 0.10).to_dense(),
        AccelAction::Prune25 | AccelAction::Prune50 | AccelAction::Prune75 => {
            match &plan.train_options.prune_mask {
                Some(mask) if mask.len() == update.len() => update
                    .iter()
                    .zip(mask)
                    .map(|(&u, &keep)| if keep { u } else { 0.0 })
                    .collect(),
                _ => update.to_vec(),
            }
        }
        _ => update.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use float_models::Architecture;

    fn base() -> RoundCost {
        RoundCost::vanilla(&Architecture::ResNet18.profile(), 100, 5, 20)
    }

    fn params(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) / 10.0)
            .collect()
    }

    #[test]
    fn noop_is_identity() {
        let b = base();
        let plan = apply_action(AccelAction::NoOp, b, &params(100), 0);
        assert_eq!(plan.cost.train_flops, b.train_flops);
        assert_eq!(plan.cost.upload_bytes, b.upload_bytes);
        assert!(plan.train_options.prune_mask.is_none());
        assert!(plan.train_options.frozen.is_none());
    }

    #[test]
    fn quantization_cuts_upload_adds_compute() {
        let b = base();
        let q8 = apply_action(AccelAction::Quantize8, b, &params(100), 0);
        assert!((q8.cost.upload_bytes - b.upload_bytes / 4.0).abs() < 1.0);
        assert!(q8.cost.train_flops > b.train_flops);
        assert_eq!(q8.cost.download_bytes, b.download_bytes);
    }

    #[test]
    fn pruning_cuts_everything() {
        let b = base();
        let p75 = apply_action(AccelAction::Prune75, b, &params(1000), 0);
        assert!((p75.cost.train_flops - b.train_flops * 0.25).abs() < 1.0);
        assert!((p75.cost.upload_bytes - b.upload_bytes * 0.25).abs() < 1.0);
        assert!(p75.cost.memory_bytes < b.memory_bytes);
        let mask = p75.train_options.prune_mask.expect("prune mask");
        let density = mask.iter().filter(|&&k| k).count() as f64 / mask.len() as f64;
        assert!((density - 0.25).abs() < 0.01);
    }

    #[test]
    fn partial_training_does_not_cut_upload() {
        let b = base();
        let p75 = apply_action(AccelAction::Partial75, b, &params(1000), 7);
        assert_eq!(p75.cost.upload_bytes, b.upload_bytes);
        assert!(p75.cost.train_flops < b.train_flops * 0.6);
        let frozen = p75.train_options.frozen.expect("frozen mask");
        let ff = frozen.iter().filter(|&&f| f).count() as f64 / frozen.len() as f64;
        assert!((ff - 0.75).abs() < 0.01);
    }

    #[test]
    fn compression_uses_measured_ratio() {
        let b = base();
        // Highly redundant parameters compress well.
        let redundant = vec![0.125f32; 4096];
        let plan = apply_action(AccelAction::CompressLossless, b, &redundant, 0);
        assert!(
            plan.cost.upload_bytes < b.upload_bytes * 0.2,
            "upload {} vs base {}",
            plan.cost.upload_bytes,
            b.upload_bytes
        );
    }

    #[test]
    fn transform_update_quantizes() {
        let plan = apply_action(AccelAction::Quantize8, base(), &params(64), 0);
        let update = params(64);
        let out = transform_update(AccelAction::Quantize8, &update, &plan);
        assert_eq!(out.len(), update.len());
        assert_ne!(out, update); // grid rounding changed something
    }

    #[test]
    fn transform_update_respects_prune_mask() {
        let p = params(64);
        let plan = apply_action(AccelAction::Prune50, base(), &p, 0);
        let update = vec![1.0f32; 64];
        let out = transform_update(AccelAction::Prune50, &update, &plan);
        let zeros = out.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 32);
    }

    #[test]
    fn aggressive_actions_cost_less_compute_or_upload() {
        let b = base();
        let p = params(512);
        for action in [
            AccelAction::Quantize16,
            AccelAction::Quantize8,
            AccelAction::Prune25,
            AccelAction::Prune75,
            AccelAction::Partial25,
            AccelAction::Partial75,
            AccelAction::TopK10,
        ] {
            let plan = apply_action(action, b, &p, 3);
            let saves_compute = plan.cost.train_flops < b.train_flops;
            let saves_upload = plan.cost.upload_bytes < b.upload_bytes;
            assert!(
                saves_compute || saves_upload,
                "{} saves neither compute nor upload",
                action.name()
            );
        }
    }
}
