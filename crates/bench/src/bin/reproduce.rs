//! `reproduce` — regenerate every figure and quantitative claim of
//! "Extracting Databases from Dark Data with DeepDive" (SIGMOD 2016).
//!
//! ```sh
//! cargo run --release -p deepdive-bench --bin reproduce -- all
//! cargo run --release -p deepdive-bench --bin reproduce -- fig2 numa
//! ```
//!
//! Results print as text tables and are archived as JSON under
//! `target/experiments/`.

use deepdive_bench::experiments as exp;
use serde_json::Value as Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig2",
            "fig5",
            "dimmwitted-vs-graphlab",
            "numa",
            "incremental-grounding",
            "incremental-inference",
            "distant-supervision",
            "iteration-loop",
            "regex-plateau",
            "supervision-leak",
            "threshold-sweep",
            "paleo-scale",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    let mut outputs: Vec<Json> = Vec::new();
    for name in names {
        let out = match name {
            "fig2" => exp::fig2(2_000),
            "fig2-quick" => exp::fig2(200),
            "fig5" => exp::fig5(),
            "dimmwitted-vs-graphlab" => exp::dimmwitted_vs_graphlab(300, 20),
            "numa" => exp::numa(300, 20),
            "incremental-grounding" => exp::incremental_grounding(),
            "incremental-inference" => exp::incremental_inference(),
            "distant-supervision" => exp::distant_supervision(),
            "iteration-loop" => exp::iteration_loop(),
            "regex-plateau" => exp::regex_plateau(),
            "supervision-leak" => exp::supervision_leak(),
            "threshold-sweep" => exp::threshold_sweep_experiment(),
            "paleo-scale" => exp::paleo_scale(),
            other => {
                eprintln!("unknown experiment `{other}` — see EXPERIMENTS.md");
                std::process::exit(2);
            }
        };
        println!();
        outputs.push(out);
    }

    // Archive.
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).expect("create target/experiments");
    let path = dir.join("results.json");
    std::fs::write(&path, serde_json::to_string_pretty(&outputs).expect("json"))
        .expect("write results");
    println!(
        "archived {} experiment result(s) to {}",
        outputs.len(),
        path.display()
    );
}
