//! The paper's claims, checked on the same rows `repro` renders.

use fastt_bench::experiments::{scaling, table3_row, Scaling};
use fastt_bench::{Cell, STRONG_SCALING};
use fastt_models::Model;

/// FastT may adopt DP's placement with a different execution order, which
/// can simulate a hair slower than DP itself (GNMT at 2 GPUs reads 1019.1
/// samples/s against DP's 1019.2), so FastT must reach DP × (1 − 0.5%).
const DP_TOLERANCE: f64 = 0.005;

#[test]
fn fastt_keeps_up_with_dp_under_strong_scaling() {
    let table = scaling(Scaling::Strong, &[Model::LeNet, Model::AlexNet]);
    for (row, cells) in table.rows.iter().enumerate() {
        for (label, ..) in STRONG_SCALING {
            let dp = table.num(row, &format!("{label} DP")).expect("DP fits");
            let ft = table
                .num(row, &format!("{label} FastT"))
                .expect("FastT runs");
            assert!(
                ft >= dp * (1.0 - DP_TOLERANCE),
                "{:?} {label}: FastT {ft} samples/s < DP {dp}",
                cells[0]
            );
        }
    }
}

#[test]
fn table3_oom_boundary() {
    // columns: global batch, single GPU, 2-GPU DP, 2-GPU FastT
    let b32 = table3_row(32);
    assert_eq!(b32[1], Cell::Oom, "one GPU cannot train batch 32");
    assert!(matches!(b32[2], Cell::Num(..)), "2-GPU DP trains batch 32");
    let b40 = table3_row(40);
    assert_eq!(b40[2], Cell::Oom, "2-GPU DP cannot train batch 40");
    assert!(
        matches!(b40[3], Cell::Num(..)),
        "2-GPU FastT trains batch 40"
    );
}
