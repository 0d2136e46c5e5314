//! Synchronous vs asynchronous FL: the Fig. 2b trade-off.
//!
//! Runs FedAvg (synchronous) and FedBuff (asynchronous, buffered) with
//! and without FLOAT, and contrasts wall-clock time against client
//! compute and communication time. The paper observes that async FL is
//! faster in wall-clock but burns more client resources, and that FLOAT
//! cuts dropouts in both regimes; the closing verdict says which of these
//! this run shows.
//!
//! ```text
//! cargo run --release --example sync_vs_async
//! ```

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};

fn main() {
    let runs = [
        ("fedavg (sync)", SelectorChoice::FedAvg, AccelMode::Off),
        ("fedavg + FLOAT", SelectorChoice::FedAvg, AccelMode::Rlhf),
        ("fedbuff (async)", SelectorChoice::FedBuff, AccelMode::Off),
        ("fedbuff + FLOAT", SelectorChoice::FedBuff, AccelMode::Rlhf),
    ];

    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "run", "wall-h", "compute-h", "comm-h", "accuracy", "dropouts"
    );
    let mut reports = Vec::new();
    for (label, sel, accel) in runs {
        let cfg = ExperimentConfig::small(sel, accel, 25);
        let report = Experiment::new(cfg).expect("config validates").run();
        println!(
            "{:<16} {:>8.2} {:>10.1} {:>10.2} {:>10.3} {:>10}",
            label,
            report.wall_clock_h,
            report.resources.total_compute_h(),
            report.resources.total_comm_h(),
            report.accuracy.mean,
            report.total_dropouts,
        );
        reports.push(report);
    }

    // The verdict is read from the numbers just printed.
    let [sync, sync_float, fedbuff, fedbuff_float] = &reports[..] else {
        unreachable!("four runs")
    };
    let client_h = |r: &float::core::ExperimentReport| {
        r.resources.total_compute_h() + r.resources.total_comm_h()
    };
    let faster = fedbuff.wall_clock_h < sync.wall_clock_h;
    let costlier = client_h(fedbuff) > client_h(sync);
    let async_verdict = match (faster, costlier) {
        (true, true) => "FedBuff trades client resources for wall-clock, as the paper says",
        (true, false) => "FedBuff is faster and also uses fewer client hours",
        (false, true) => "FedBuff is slower and uses more client hours",
        (false, false) => "FedBuff is slower but uses fewer client hours",
    };
    let float_cuts = [(sync, sync_float), (fedbuff, fedbuff_float)]
        .iter()
        .filter(|(off, on)| on.total_dropouts < off.total_dropouts)
        .count();
    println!(
        "\nVerdict: on this workload and seed, {async_verdict}; \
         FLOAT cuts dropouts in {float_cuts} of 2 regimes."
    );
}
