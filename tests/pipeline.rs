//! Cross-crate integration tests: transforms composed the way the
//! paper's case studies compose them.

use fx::backend::lower;
use fx::passes::{
    eliminate_common_subexpressions, estimate, fold_constants, fuse_conv_bn, infer_shapes,
    shape_prop, split_by, to_dot, DeviceSpec,
};
use fx::prelude::*;
use fx::quant::{quantize_ptq, QConfig};
use fx_models::{resnet50, resnet_tiny, DeepRecommender, Mlp, TransformerEncoderLayer};
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;

fn randn(shape: &[usize], seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::Tensor(Tensor::randn(shape, &mut rng))
}

#[test]
fn fuse_then_lower_then_run() {
    let mut rng = StdRng::seed_from_u64(0);
    let model = resnet_tiny(&mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    let fused = fuse_conv_bn(&mut gm).unwrap();
    assert!(fused > 0);
    let (lowered, report) = lower(&gm).unwrap();
    assert_eq!(report.conv_bn_folded, 0, "already folded");
    assert!(report.epilogues_fused > 0);
    let x = randn(&[1, 3, 32, 32], 1);
    let y0 = gm.run(std::slice::from_ref(&x)).unwrap();
    let y1 = lowered.run(std::slice::from_ref(&x)).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-2));
}

/// Shape inference and the estimator see through lowering: a lowered
/// ResNet-50 has the folded graph's output shape and total FLOPs (a
/// fused `conv2d_relu` is charged its ReLU). The reference is the
/// conv–BN-folded graph, since folding BN removes BN's FLOPs.
#[test]
fn lowered_resnet50_keeps_output_shape_and_total_flops() {
    let mut rng = StdRng::seed_from_u64(50);
    let mut folded = symbolic_trace(&resnet50(3, 10, &mut rng)).unwrap();
    fuse_conv_bn(&mut folded).unwrap();
    let (mut lowered, report) = lower(&folded).unwrap();
    assert!(report.epilogues_fused > 0);
    let input = [vec![2usize, 3, 32, 32]];
    let want = infer_shapes(&mut folded, &input).unwrap();
    let got = infer_shapes(&mut lowered, &input).unwrap();
    assert_eq!(got["output"], vec![2, 10]);
    assert_eq!(got["output"], want["output"]);
    let device = DeviceSpec::host_cpu_single_core();
    let want = estimate(&folded, &device).unwrap();
    let got = estimate(&lowered, &device).unwrap();
    assert_eq!(got.total_flops, want.total_flops);
    assert!(got.nodes.len() < want.nodes.len(), "fusion removes the ReLU nodes");
}

#[test]
fn quantize_then_split_runs_with_fallback() {
    // Quantized ops have no f32 epilogue to fuse; lowering a quantized
    // model must leave them alone and stay correct.
    let mut rng = StdRng::seed_from_u64(2);
    let model = Mlp::new(&[16, 32, 8], &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let cal = vec![vec![randn(&[4, 16], 3)], vec![randn(&[4, 16], 4)]];
    let qgm = quantize_ptq(&gm, &cal, &QConfig::default()).unwrap();
    let (lowered, report) = lower(&qgm).unwrap();
    assert_eq!(report.epilogues_fused, 0);
    let x = randn(&[2, 16], 5);
    let y0 = qgm.run(std::slice::from_ref(&x)).unwrap();
    let y1 = lowered.run(std::slice::from_ref(&x)).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-5));
}

#[test]
fn quantized_cnn_end_to_end() {
    // Fuse conv-bn first (BN has no quantized kernel), then quantize the
    // conv path, then run.
    let mut rng = StdRng::seed_from_u64(6);
    let model = resnet_tiny(&mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    fuse_conv_bn(&mut gm).unwrap();
    let cal: Vec<Vec<Value>> = (0..3).map(|i| vec![randn(&[1, 3, 32, 32], 10 + i)]).collect();
    let qgm = quantize_ptq(&gm, &cal, &QConfig::default()).unwrap();
    assert!(
        qgm.modules()
            .values()
            .any(|m| m.type_name().starts_with("QuantizedConv2d")),
        "convs should quantize after fusion:\n{}",
        qgm.code()
    );
    let x = randn(&[1, 3, 32, 32], 20);
    let y_ref = gm.run(std::slice::from_ref(&x)).unwrap();
    let y_q = qgm.run(std::slice::from_ref(&x)).unwrap();
    // int8 CNN drifts more than an MLP; demand the right argmax rather
    // than tight numerics.
    let am_ref = fx::tensor::ops::argmax(y_ref.as_tensor().unwrap(), -1).unwrap();
    let am_q = fx::tensor::ops::argmax(y_q.as_tensor().unwrap(), -1).unwrap();
    assert_eq!(am_ref.as_i64().unwrap(), am_q.as_i64().unwrap());
}

#[test]
fn analysis_stack_composes() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = DeepRecommender::new(128, &mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    // Concrete shapes -> estimator -> report renders.
    shape_prop(&mut gm, &[randn(&[2, 128], 8)]).unwrap();
    let report = estimate(&gm, &DeviceSpec::xeon_6138()).unwrap();
    assert!(report.total_flops > 0);
    // Abstract agrees on this model.
    let mut gm2 = symbolic_trace(&model).unwrap();
    let inferred = infer_shapes(&mut gm2, &[vec![2, 128]]).unwrap();
    assert_eq!(inferred["fc5"], vec![2, 128]);
    // DOT renders with shapes.
    let dot = to_dot(&gm, "deeprecommender");
    assert!(dot.contains("shape=[2, 128]"));
}

#[test]
fn cleanup_passes_preserve_semantics_on_transformer() {
    let mut rng = StdRng::seed_from_u64(9);
    let layer = TransformerEncoderLayer::new(16, 2, &mut rng);
    // Batch/seq are shape arguments: specialize them via concrete_args
    // (the paper's §5.2 escape hatch), keeping the tensor symbolic.
    let gm = fx_core::symbolic_trace_concrete(
        &layer,
        std::sync::Arc::new(fx_core::DefaultTracer),
        &[None, Some(Value::Int(2)), Some(Value::Int(3))],
    )
    .unwrap();
    let x = randn(&[2, 3, 16], 10);
    let inputs = [x];
    let y0 = gm.run(&inputs).unwrap();

    let mut cleaned = gm.clone();
    eliminate_common_subexpressions(&mut cleaned).unwrap();
    fold_constants(&mut cleaned).unwrap();
    cleaned.graph_mut().eliminate_dead_code();
    cleaned.recompile().unwrap();
    cleaned.graph().lint().unwrap();
    let y1 = cleaned.run(&inputs).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-5));
}

#[test]
fn split_recombine_identity_on_recommender() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = DeepRecommender::new(64, &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    // Split at every SELU: alternating supported/unsupported partitions.
    let split = split_by(&gm, &|n| !n.target().starts_with("act")).unwrap();
    assert!(split.partitions.len() >= 5);
    let x = randn(&[2, 64], 12);
    let y0 = gm.run(std::slice::from_ref(&x)).unwrap();
    let y1 = split.module.run(std::slice::from_ref(&x)).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-6));
}

#[test]
fn to_folder_writes_sources() {
    let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
    let dir = std::env::temp_dir().join("fx_to_folder_test");
    gm.to_folder(&dir).unwrap();
    let py = std::fs::read_to_string(dir.join("module.py")).unwrap();
    assert!(py.contains("def forward"));
    let rs = std::fs::read_to_string(dir.join("module.rs")).unwrap();
    assert!(rs.contains("fn forward"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn transformer_traces_as_basic_block_program() {
    // §2.3 / §5.5: a Transformer encoder layer is a flat DAG — no control
    // flow anywhere in the captured IR.
    let mut rng = StdRng::seed_from_u64(13);
    let layer = TransformerEncoderLayer::new(32, 4, &mut rng);
    let traced = fx_core::symbolic_trace_concrete(
        &layer,
        std::sync::Arc::new(fx_core::DefaultTracer),
        &[None, Some(Value::Int(1)), Some(Value::Int(4))],
    )
    .unwrap();
    traced.graph().lint().unwrap();
    assert!(traced.graph().len() > 20);
    let x = randn(&[1, 4, 32], 14);
    let y0 = layer
        .forward(&[x.clone(), Value::Int(1), Value::Int(4)])
        .unwrap();
    let y1 = traced.run(&[x]).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-4));
}
