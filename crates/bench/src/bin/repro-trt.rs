//! E4 — §6.4 / Figure 8 + Appendix D: lowering ResNet50 and
//! LearningToPaint with `fx_backend::lower`.
//!
//! Reproduces Appendix D's four rows: baseline vs lowered runtime for
//! both models. "Baseline" is the traced graph on the executor (one
//! kernel per op); "lowered" is the same executor running the lowered
//! graph — conv–BN folded and conv/linear+ReLU fused into one kernel.
//! The two are timed in alternation and reported as median and
//! interquartile range; the speedup is the median of the paired
//! per-trial ratios, with its own IQR, and the verdict calls a side
//! faster only when that ratio IQR excludes 1. Also prints
//! roofline-simulated V100 rows for the GPU-side reading (DESIGN.md
//! substitution).
//!
//! Usage: `cargo run --release -p fx-bench --bin repro-trt --
//! [--size 96] [--paint-size 64] [--trials 41]`

use fx_backend::lower;
use fx_bench::{arg_usize, interleaved_trials, print_table, Spread};
use fx_core::{symbolic_trace, GraphModule, Value};
use fx_models::{resnet50, LearningToPaintActor};
use fx_passes::{estimate, shape_prop, DeviceSpec};
use fx_tensor::rng::SeedableRng;
use fx_tensor::rng::StdRng;
use fx_tensor::Tensor;

struct Measured {
    name: String,
    eager: Spread,
    lowered: Spread,
    /// Per-trial `eager / lowered`.
    ratio: Spread,
}

impl Measured {
    fn verdict(&self) -> &'static str {
        if self.ratio.q1 > 1.0 {
            "lowered faster"
        } else if self.ratio.q3 < 1.0 {
            "lowered slower"
        } else {
            "within noise"
        }
    }
}

fn bench_model(name: &str, gm: &GraphModule, x: &Value, trials: usize) -> (Measured, GraphModule) {
    let (lowered, report) = lower(gm).expect("lowering");
    println!(
        "{name}: {} graph nodes -> {} ({} conv-bn folded, {} conv/linear+relu fused)",
        report.source_nodes, report.lowered_nodes, report.conv_bn_folded, report.epilogues_fused
    );
    let (eager, low) = interleaved_trials(
        trials,
        2,
        || {
            std::hint::black_box(gm.run(std::slice::from_ref(x)).unwrap());
        },
        || {
            std::hint::black_box(lowered.run(std::slice::from_ref(x)).unwrap());
        },
    );
    let ratios: Vec<f64> = eager.iter().zip(&low).map(|(e, l)| e / l).collect();
    let measured = Measured {
        name: name.to_string(),
        eager: Spread::from_samples(&eager),
        lowered: Spread::from_samples(&low),
        ratio: Spread::from_samples(&ratios),
    };
    (measured, lowered)
}

/// Roofline view: the estimator's V100 time for the traced graph and
/// for the lowered graph, each paying one dispatch per node.
fn simulate(gm: &GraphModule, lowered: &GraphModule, x: &Value) -> (f64, f64) {
    let v100 = DeviceSpec::v100();
    let time = |g: &GraphModule| {
        let mut g = g.clone();
        shape_prop(&mut g, std::slice::from_ref(x)).expect("shapes");
        estimate(&g, &v100).expect("estimate").total_time
    };
    (time(gm), time(lowered))
}

fn main() {
    let size = arg_usize("--size", 96);
    let paint_size = arg_usize("--paint-size", 64);
    let trials = arg_usize("--trials", 41);
    let mut rng = StdRng::seed_from_u64(0);

    println!(
        "== ResNet50 [1,3,{size},{size}] / LearningToPaint [1,9,{paint_size},{paint_size}], \
         {trials} interleaved trials ==\n"
    );

    let rn50 = resnet50(3, 1000, &mut rng);
    let rn50_gm = symbolic_trace(&rn50).expect("trace rn50");
    let rn50_x = Value::Tensor(Tensor::randn(&[1, 3, size, size], &mut rng));
    let (rn, rn_lowered) = bench_model("RN50", &rn50_gm, &rn50_x, trials);

    let actor = LearningToPaintActor::new(&mut rng);
    let actor_gm = symbolic_trace(&actor).expect("trace actor");
    let actor_x = Value::Tensor(Tensor::randn(&[1, 9, paint_size, paint_size], &mut rng));
    let (ltp, ltp_lowered) = bench_model("LearningToPaint", &actor_gm, &actor_x, trials);

    println!("\n=== Appendix D analogue: measured CPU runtime (seconds, median [q1, q3]) ===\n");
    let spread = |s: &Spread, digits: usize| {
        format!("{:.d$} [{:.d$}, {:.d$}]", s.median, s.q1, s.q3, d = digits)
    };
    let rows: Vec<Vec<String>> = [&rn, &ltp]
        .iter()
        .flat_map(|m| {
            [
                vec![
                    format!("eager {}", m.name),
                    spread(&m.eager, 4),
                    "-".into(),
                    "-".into(),
                ],
                vec![
                    format!("fx lowered {}", m.name),
                    spread(&m.lowered, 4),
                    spread(&m.ratio, 2),
                    m.verdict().into(),
                ],
            ]
        })
        .collect();
    print_table(
        &[
            "configuration",
            "runtime (s)",
            "speedup (paired)",
            "verdict",
        ],
        &rows,
    );

    let (rn_sim_base, rn_sim_low) = simulate(&rn50_gm, &rn_lowered, &rn50_x);
    let (ltp_sim_base, ltp_sim_low) = simulate(&actor_gm, &ltp_lowered, &actor_x);
    println!("\n=== V100 roofline simulation (GPU-side reading) ===\n");
    print_table(
        &["configuration", "sim runtime (s)", "speedup"],
        &[
            vec![
                "eager RN50 (sim)".into(),
                format!("{rn_sim_base:.5}"),
                "-".into(),
            ],
            vec![
                "lowered RN50 (sim)".into(),
                format!("{rn_sim_low:.5}"),
                format!("{:.2}x", rn_sim_base / rn_sim_low),
            ],
            vec![
                "eager LearningToPaint (sim)".into(),
                format!("{ltp_sim_base:.5}"),
                "-".into(),
            ],
            vec![
                "lowered LearningToPaint (sim)".into(),
                format!("{ltp_sim_low:.5}"),
                format!("{:.2}x", ltp_sim_base / ltp_sim_low),
            ],
        ],
    );

    println!("\n=== Figure 8 analogue: normalized runtime (eager = 1.0, measured median) ===\n");
    for (label, m) in [("RN50           ", &rn), ("LearningToPaint", &ltp)] {
        let r = m.lowered.median / m.eager.median;
        let bar = "#".repeat((r * 40.0).round() as usize);
        println!("  {label} lowered {r:>5.2}  {bar}");
    }
    println!(
        "\npaper shape: lowered wins on both; RN50 3.7x, LearningToPaint 1.54x (V100+TensorRT)"
    );
}
