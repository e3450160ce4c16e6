//! Regenerates every **in-text resource number** of §II against the typed
//! cost models (Eqs. 1, 2, 5-8).
//!
//! ```text
//! cargo run --release -p ebbiot_bench --bin exp_text_numbers
//! ```

use ebbiot_eval::report::render_table;
use ebbiot_resource::{
    ebbi::EbbiCost,
    nn_filter::NnFilterCost,
    rpn::RpnCost,
    trackers::{EbmsCost, KfCost, OtCost},
    PaperParams,
};

fn main() {
    let p = PaperParams::paper();
    let ebbi = EbbiCost::new(p);
    let nn = NnFilterCost::new(p);
    let rpn = RpnCost::new(p);
    let ot = OtCost::new(p);
    let kf = KfCost::new(p);
    let ebms = EbmsCost::new(p);

    println!("== In-text resource numbers (paper vs this reproduction) ==\n");
    let rows = vec![
        vec![
            "C_EBBI".into(),
            "125.2 kops/frame".into(),
            format!("{:.1} kops", ebbi.computes() / 1e3),
        ],
        vec!["M_EBBI".into(), "10.8 kB".into(), format!("{:.1} kB", ebbi.memory_kb())],
        vec![
            "C_NN-filt".into(),
            "~276.4 kops/frame".into(),
            format!("{:.1} kops", nn.computes() / 1e3),
        ],
        vec![
            "M_NN-filt vs M_EBBI".into(),
            "8x savings".into(),
            format!("{:.1}x", nn.memory_saving_vs_ebbi()),
        ],
        vec![
            "C_RPN (Eq. 5)".into(),
            "45.6 kops (in text)".into(),
            format!(
                "{:.1} kops (Eq. 5 verbatim: {:.1}k)",
                rpn.computes_in_text() / 1e3,
                rpn.computes() / 1e3
            ),
        ],
        vec!["M_RPN".into(), "~1.6 kB".into(), format!("{:.2} kB", rpn.memory_kb())],
        vec!["C_OT".into(), "~564 ops".into(), format!("{:.0} ops", ot.computes())],
        vec!["M_OT".into(), "< 0.5 kB".into(), format!("{:.2} kB", ot.memory_bits() as f64 / 8e3)],
        vec!["C_KF (NT=2)".into(), "1200 ops".into(), format!("{:.0} ops", kf.computes())],
        vec!["M_KF".into(), "~1.1 kB".into(), format!("{:.2} kB", kf.memory_bits() as f64 / 8e3)],
        vec![
            "C_EBMS".into(),
            "252 kops/frame".into(),
            format!("{:.1} kops", ebms.computes() / 1e3),
        ],
        vec!["M_EBMS".into(), "3.32 kb".into(), format!("{} bits", ebms.memory_bits())],
        vec![
            "C_EBMS / C_OT".into(),
            "~500x".into(),
            format!("{:.0}x", ebms.computes() / ot.computes()),
        ],
    ];
    println!("{}", render_table(&["quantity", "paper", "reproduction"], &rows));
    println!("\nNotes:");
    println!("- C_RPN: Eq. 5 as printed evaluates to 48.0k; the paper's in-text 45.6k");
    println!("  corresponds to a single shared pass building both histograms.");
    println!("- M_EBMS: Eq. 8 yields 3320 *bits*; the paper's '3.32 kB' reads kb(its).");
}
