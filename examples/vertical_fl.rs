//! Vertical FL with FLOAT-style per-party acceleration (the paper's §7
//! "FLOAT for non-horizontal FL" claim).
//!
//! Three parties hold disjoint feature blocks of the same samples. Every
//! batch is a synchronous barrier over all parties, so the slowest party
//! gates the round. We simulate one network-constrained party, price each
//! acceleration for it, and show (a) embedding quantization — not pruning
//! — relieves a VFL communication bottleneck, and (b) how the split model
//! trains with the acceleration applied, scored on held-out samples drawn
//! from the same distribution as its training set.
//!
//! ```text
//! cargo run --release --example vertical_fl
//! ```

use std::ops::Range;

use float::accel::AccelAction;
use float::tensor::model::TrainOptions;
use float::tensor::Tensor;
use float::vfl::split::synthetic_vfl;
use float::vfl::{accelerated_party_cost, PartyCost, SplitModel, VflConfig, VflDataset, VflRound};

/// Samples rows `range` of every party's block and of the labels.
fn rows(data: &VflDataset, range: Range<usize>) -> VflDataset {
    VflDataset {
        party_features: data
            .party_features
            .iter()
            .map(|t| {
                let w = t.cols();
                let block = t.data()[range.start * w..range.end * w].to_vec();
                Tensor::from_vec(range.len(), w, block).expect("rows of a block")
            })
            .collect(),
        labels: data.labels[range].to_vec(),
        num_classes: data.num_classes,
    }
}

fn main() {
    let config = VflConfig {
        party_dims: vec![12, 8, 12],
        embed_dim: 16,
        num_classes: 6,
    };
    // One draw of 768 samples: the first 512 train (they are exactly the
    // samples a 512-sample draw gives), the last 256 are held out.
    let all = synthetic_vfl(&config, 768, 42);
    let data = rows(&all, 0..512);
    let held_out = rows(&all, 512..768);

    // --- Resource side: price one epoch for the constrained party. ---
    let round = VflRound::new(data.len(), config.party_dims[1], config.embed_dim);
    let slow_party_mbps = 2.0; // a 4G party in a fade
    println!(
        "per-epoch cost of party 1 ({} features):",
        config.party_dims[1]
    );
    println!(
        "{:<12} {:>12} {:>14} {:>12}",
        "action", "MFLOPs", "wire-KB(up)", "stall-s"
    );
    for action in [
        AccelAction::NoOp,
        AccelAction::Quantize16,
        AccelAction::Quantize8,
        AccelAction::Prune75,
        AccelAction::Partial75,
    ] {
        let c: PartyCost = accelerated_party_cost(&round, action);
        let stall = c.upload_bytes * 8.0 / (slow_party_mbps * 1e6);
        println!(
            "{:<12} {:>12.2} {:>14.1} {:>12.3}",
            action.name(),
            c.flops / 1e6,
            c.upload_bytes / 1024.0,
            stall
        );
    }

    // --- Accuracy side: train the split model with party 1 accelerated. ---
    let mut vanilla = SplitModel::new(&config, 7);
    let mut accelerated = SplitModel::new(&config, 7);
    let default_opts = vec![TrainOptions::default(); config.num_parties()];
    // Party 1 trains only half its bottom parameters (Partial50).
    let mut accel_opts = default_opts.clone();
    let n1 = accelerated.party_params(1);
    accel_opts[1].frozen = Some((0..n1).map(|i| i % 2 == 0).collect());

    for e in 0..40 {
        vanilla.train_epoch(&data, 32, 0.1, e, &default_opts);
        accelerated.train_epoch(&data, 32, 0.1, e, &accel_opts);
    }
    let (train_v, train_a) = (vanilla.evaluate(&data), accelerated.evaluate(&data));
    let (held_v, held_a) = (vanilla.evaluate(&held_out), accelerated.evaluate(&held_out));
    println!(
        "\naccuracy after 40 epochs    {:>8} {:>18}",
        "vanilla", "party-1 Partial50"
    );
    println!(
        "  training ({:>3} samples)   {train_v:>8.3} {train_a:>18.3}",
        data.len()
    );
    println!(
        "  held out ({:>3} samples)   {held_v:>8.3} {held_a:>18.3}",
        held_out.len()
    );
    println!(
        "\nIn VFL the embedding stream dominates the wire, so quantization\n\
         (which shrinks it 2-4x) relieves a slow party's stall while pruning\n\
         only saves compute."
    );
    // What the held-out numbers support, worked out from them rather than
    // assumed.
    let gap = held_v - held_a;
    if gap.abs() < 0.5 / held_out.len() as f32 {
        println!(
            "Both arms score the same held-out accuracy: at this size the task\n\
             does not separate Partial50 on party 1 from full training."
        );
    } else if gap > 0.0 {
        println!(
            "Partial50 on party 1 costs {:.1} points of held-out accuracy.",
            100.0 * gap
        );
    } else {
        println!(
            "Partial50 on party 1 scores {:.1} points above full training on\n\
             held-out samples.",
            -100.0 * gap
        );
    }
}
