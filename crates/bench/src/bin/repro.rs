//! Regenerates the paper's evaluation (Sec. 6) plus the ablation and
//! search-budget studies. Prints every table as Markdown and writes each
//! experiment's tables to `OUTDIR/<id>.md`.
//!
//! ```text
//! cargo run --release -p fastt-bench --bin repro -- kick /tmp/kick
//! cargo run --release -p fastt-bench --bin repro -- full /tmp/full
//! ```
//!
//! `full` runs the paper's sizes, 7 to 9 minutes on 2 cores. `kick` runs
//! Tables 1, 2, 4 and 6 on four models and Fig. 3 on two, in every cluster
//! setting, and the rest at full size, in about 30 seconds. Every file but
//! `table4.md` (wall clock) is deterministic: `crates/bench/expected/`
//! holds both modes' output, and CI diffs a fresh `kick` run against it.

use fastt_bench::experiments::{
    cost_model_ablation, dpos_ablation, fig2, fig3, fig4, fig5, ps_placement_ablation, scaling,
    search_budget, table3, table4, table5, table6, Scaling,
};
use fastt_bench::Table;
use fastt_models::Model;
use std::path::Path;
use std::process::ExitCode;

/// The paper's Fig. 3 models.
const FIG3: [Model; 4] = [
    Model::InceptionV3,
    Model::ResNet200,
    Model::Gnmt4,
    Model::Rnnlm,
];

/// `kick`'s models for Tables 1, 2, 4 and 6: the smallest CNNs, the CNN
/// with the largest FastT gain, and an LSTM.
const KICK: [Model; 4] = [Model::Vgg19, Model::LeNet, Model::AlexNet, Model::Rnnlm];

/// `kick`'s models for Fig. 3: one CNN and one LSTM.
const KICK_FIG3: [Model; 2] = [Model::InceptionV3, Model::Rnnlm];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (full, out) = match args.as_slice() {
        [mode, out] if mode == "kick" || mode == "full" => (mode == "full", Path::new(out)),
        _ => {
            eprintln!("usage: repro kick|full OUTDIR");
            return ExitCode::from(2);
        }
    };
    let all = Model::all();
    let (models, fig3_models): (&[Model], &[Model]) = if full {
        (&all, &FIG3)
    } else {
        (&KICK, &KICK_FIG3)
    };

    let experiments: [(&str, &dyn Fn() -> Vec<Table>); 12] = [
        ("table1", &|| vec![scaling(Scaling::Strong, models)]),
        ("table2", &|| vec![scaling(Scaling::Weak, models)]),
        ("table3", &|| vec![table3()]),
        ("table4", &|| vec![table4(models)]),
        ("table5", &|| vec![table5()]),
        ("table6", &|| vec![table6(models)]),
        ("fig2", &|| vec![fig2()]),
        ("fig3", &|| vec![fig3(fig3_models)]),
        ("fig4", &|| vec![fig4(2), fig4(4)]),
        ("fig5", &|| vec![fig5()]),
        ("ablations", &|| {
            vec![
                dpos_ablation(),
                cost_model_ablation(),
                ps_placement_ablation(),
            ]
        }),
        ("search_budget", &|| vec![search_budget()]),
    ];

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    for (id, run) in experiments {
        let tables: Vec<String> = run().iter().map(Table::render).collect();
        let md = tables.join("\n");
        print!("\n{md}");
        let path = out.join(format!("{id}.md"));
        if let Err(e) = std::fs::write(&path, md) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
