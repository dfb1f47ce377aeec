//! Backend lowering as a graph transform (§6.4): fold conv–BN, fuse
//! each conv/linear+ReLU pair into one kernel, and run the lowered
//! graph on the same executor — the fx2trt flow, where ops the backend
//! cannot fuse simply stay ordinary nodes.
//!
//! Run: `cargo run --release --example lower_to_backend`

use fx::backend::{fuse_epilogues, lower};
use fx::prelude::*;
use fx::tensor::Tensor;
use fx_models::resnet18;
use fx_tensor::rng::SeedableRng;
use fx_tensor::rng::StdRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(0);

    // --- lowering a whole model ---
    let model = resnet18(3, 1000, &mut rng);
    let gm = symbolic_trace(&model).expect("trace");
    let (lowered, report) = lower(&gm).expect("lower");
    println!(
        "ResNet18: {} graph nodes -> {} ({} conv-bn pairs folded, {} conv+relu pairs fused)",
        report.source_nodes, report.lowered_nodes, report.conv_bn_folded, report.epilogues_fused
    );
    println!("\nlowered graph (first 12 nodes):");
    for node in lowered.graph().nodes().take(12) {
        println!("  {node}");
    }

    let x = Value::Tensor(Tensor::randn(&[1, 3, 64, 64], &mut rng));
    let y0 = gm.run(std::slice::from_ref(&x)).expect("eager");
    let y1 = lowered.run(std::slice::from_ref(&x)).expect("lowered");
    println!(
        "\nmax |eager - lowered| = {:.2e} (conv-bn folding rounds differently)",
        y0.as_tensor()
            .unwrap()
            .max_abs_diff(y1.as_tensor().unwrap())
            .unwrap()
    );

    let time = |g: &GraphModule| {
        let t0 = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(g.run(std::slice::from_ref(&x)).unwrap());
        }
        t0.elapsed().as_secs_f64() / 10.0
    };
    let (t_eager, t_lowered) = (time(&gm), time(&lowered));
    println!(
        "latency: eager {:.2} ms -> lowered {:.2} ms ({:.2}x; see repro-trt for medians)",
        t_eager * 1e3,
        t_lowered * 1e3,
        t_eager / t_lowered
    );

    // --- epilogue fusion alone is exact ---
    println!("\n--- epilogue fusion on a small graph ---");
    let mlp = fx_models::Mlp::new(&[3, 4, 2], &mut rng);
    let mut fused = symbolic_trace(&mlp).expect("trace");
    let plain = fused.clone();
    let n = fuse_epilogues(&mut fused).expect("fuse");
    println!("{n} linear+relu pair(s) fused:\n{}", fused.code());
    let small = Value::Tensor(Tensor::from_vec(vec![0.3, -0.7, 1.2], &[1, 3]));
    let a = plain.run(std::slice::from_ref(&small)).unwrap();
    let b = fused.run(std::slice::from_ref(&small)).unwrap();
    println!("outputs bit-identical: {}", a == b);
}
