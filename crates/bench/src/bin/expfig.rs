//! `expfig` — regenerate the FLOAT paper's tables and figures, and the
//! studies beyond them.
//!
//! Usage:
//!
//! ```text
//! expfig <figure> [--scale quick|medium|paper|10k|100k|1m|10m] [--json <path>]
//! expfig all      [--scale ...] [--json <path>]
//! ```
//!
//! The figures are the rows of [`FIGURES`]. The default `quick` scale
//! finishes each figure in seconds to a few minutes; `paper` reproduces the
//! full 200-client, 300-round setup.

use std::io::Write as _;

use float_bench::figs::{
    ablations, algos, fig10, fig11, fig12, fig13, fig2, fig3, fig4, fig5, fig6, fig8, fig9,
    population, profile_gap, sweep,
};
use float_bench::Scale;
use serde::Serialize;
use serde_json::Value;

/// Runs one figure at a scale; returns `(rendered text, JSON value)`.
type Figure = fn(Scale) -> (String, Value);

fn emit<T: Serialize>(result: T, render: fn(&T) -> String) -> (String, Value) {
    let json = serde_json::to_value(&result).expect("figure results serialize");
    (render(&result), json)
}

/// Every figure by name, in `all` order.
#[rustfmt::skip]
const FIGURES: &[(&str, Figure)] = &[
    ("fig2",        |s| emit(fig2::run(s), fig2::Fig2::render)),
    ("fig3",        |s| emit(fig3::run(s), fig3::Fig3::render)),
    ("fig4",        |s| emit(fig4::run(s), fig4::Fig4::render)),
    ("fig5",        |s| emit(fig5::run(s), fig5::Fig5::render)),
    ("fig6",        |s| emit(fig6::run(s), fig6::Fig6::render)),
    ("fig8",        |_| emit(fig8::run(), fig8::Fig8::render)),
    ("fig9",        |s| emit(fig9::run(s), fig9::Fig9::render)),
    ("fig10",       |s| emit(fig10::run(s), fig10::Fig10::render)),
    ("fig11",       |s| emit(fig11::run(s), fig11::Fig11::render)),
    ("fig12",       |s| emit(fig12::run(s), fig12::E2e::render)),
    ("fig13",       |s| emit(fig13::run(s), fig13::Fig13::render)),
    ("ablate",      |s| emit(ablations::run(s), ablations::Ablations::render)),
    ("algos",       |s| emit(algos::run(s), algos::Algos::render)),
    ("profile_gap", |s| emit(profile_gap::run(s), profile_gap::ProfileGap::render)),
    ("sweep",       |s| emit(sweep::run(s), sweep::Sweep::render)),
    ("population",  |s| emit(population::run(s), population::Population::render)),
];

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: expfig <{}|all> [--scale quick|medium|paper|10k|100k|1m|10m] [--json <path>]",
        names.join("|")
    );
    std::process::exit(2);
}

struct Args {
    figure: String,
    scale: Scale,
    json: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let figure = argv[0].clone();
    let mut scale = Scale::Quick;
    let mut json = None;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = argv
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--json" => {
                i += 1;
                json = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    Args {
        figure,
        scale,
        json,
    }
}

fn main() {
    let args = parse_args();
    let figures: Vec<(&str, Figure)> = if args.figure == "all" {
        FIGURES.to_vec()
    } else {
        let found = FIGURES.iter().find(|&&(name, _)| name == args.figure);
        vec![*found.unwrap_or_else(|| usage())]
    };
    let mut all_json = serde_json::Map::new();
    for (name, run) in figures {
        let (text, json) = run(args.scale);
        println!("{text}");
        all_json.insert(name.to_string(), json);
    }
    if let Some(path) = args.json {
        let mut f =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        let body = serde_json::to_string_pretty(&Value::Object(all_json))
            .expect("figure results serialize");
        f.write_all(body.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote JSON results to {path}");
    }
}
