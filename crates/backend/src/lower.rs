//! Whole-model lowering — the fx2trt user flow (§6.4) as graph passes:
//! fold conv–BN, drop dead nodes, fuse activation epilogues, and hand
//! back a module that drops in anywhere the original did.

use fx_core::{validate, Arg, GraphModule, Node, NodeId, Opcode, Result};
use fx_nn::{Conv2d, Linear};
use fx_passes::fuse_conv_bn;

/// Statistics about a lowering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LowerReport {
    /// Node count of the input graph.
    pub source_nodes: usize,
    /// Conv–BN pairs folded into their convolution.
    pub conv_bn_folded: usize,
    /// Conv/linear + ReLU pairs fused into one `*_relu` node.
    pub epilogues_fused: usize,
    /// Node count of the lowered graph (fused weights add `get_attr`
    /// nodes).
    pub lowered_nodes: usize,
}

/// Lower a traced model: fold conv–BN, eliminate dead code and fuse
/// activation epilogues, returning the lowered module plus a report.
///
/// Conv–BN folding changes float rounding, so the result matches the
/// input graph to a tolerance, not bit for bit; the epilogue fusion on
/// top of it is exact. The result runs anywhere the original
/// [`GraphModule`] did.
pub fn lower(gm: &GraphModule) -> Result<(GraphModule, LowerReport)> {
    let mut lowered = gm.clone();
    let conv_bn_folded = fuse_conv_bn(&mut lowered)?;
    lowered.graph_mut().eliminate_dead_code();
    let epilogues_fused = fuse_epilogues(&mut lowered)?;
    let report = LowerReport {
        source_nodes: gm.graph().len(),
        conv_bn_folded,
        epilogues_fused,
        lowered_nodes: lowered.graph().len(),
    };
    Ok((lowered, report))
}

/// Rewrite every `Conv2d` / `Linear` whose single user is a ReLU into
/// one `call_function` `conv2d_relu` / `linear_relu` node, and return
/// how many pairs were fused.
///
/// A `call_module` producer's parameters become top-level `get_attr`
/// attributes named after the module's path (`layer1.0.conv1` gives
/// `layer1_0_conv1_weight`), since the module itself is dropped; a
/// `call_function` `conv2d` / `linear` producer is retargeted in place.
/// Bit-preserving: the fused kernel adds the bias and applies the ReLU
/// in the GEMM write-back, the same float ops the unfused pair runs.
pub fn fuse_epilogues(gm: &mut GraphModule) -> Result<usize> {
    let pairs: Vec<(NodeId, NodeId)> = gm
        .graph()
        .nodes()
        .filter_map(|node| {
            let users = gm.graph().users(node.id());
            let [user] = users[..] else { return None };
            let relu = gm.graph().node(user);
            let fusable = fused_target(gm, node).is_some()
                && is_relu(gm, relu)
                && relu.args() == [Arg::Node(node.id())]
                && relu.kwargs().is_empty();
            fusable.then_some((node.id(), user))
        })
        .collect();
    for &(producer, relu) in &pairs {
        let node = gm.graph().node(producer).clone();
        let target = fused_target(gm, &node).expect("checked when pairing");
        let fused = if node.op() == Opcode::CallFunction {
            gm.graph_mut().set_target(producer, target)?;
            producer
        } else {
            fuse_module_call(gm, &node, target)
        };
        let graph = gm.graph_mut();
        graph.replace_all_uses_with(relu, fused);
        graph.erase_node(relu)?;
        if fused != producer {
            graph.erase_node(producer)?;
        }
    }
    gm.delete_unused_state();
    gm.recompile()?;
    validate::after_pass(gm, "fuse_epilogues")?;
    Ok(pairs.len())
}

/// The fused op `node` lowers to when a ReLU follows it, if any.
fn fused_target(gm: &GraphModule, node: &Node) -> Option<&'static str> {
    match node.op() {
        Opcode::CallFunction => match node.target() {
            "conv2d" => Some("conv2d_relu"),
            "linear" => Some("linear_relu"),
            _ => None,
        },
        Opcode::CallModule if node.args().len() == 1 && node.kwargs().is_empty() => {
            let m = gm.get_module(node.target())?.as_any();
            if m.is::<Conv2d>() {
                Some("conv2d_relu")
            } else if m.is::<Linear>() {
                Some("linear_relu")
            } else {
                None
            }
        }
        _ => None,
    }
}

fn is_relu(gm: &GraphModule, node: &Node) -> bool {
    match node.op() {
        Opcode::CallFunction | Opcode::CallMethod => node.target() == "relu",
        Opcode::CallModule => gm
            .get_module(node.target())
            .is_some_and(|m| m.type_name() == "ReLU"),
        _ => false,
    }
}

/// Insert, before the `Conv2d` / `Linear` module call `node`, the
/// `target` node computing the same thing from `get_attr` parameters,
/// installing the module's parameters as attributes of `gm`.
fn fuse_module_call(gm: &mut GraphModule, node: &Node, target: &str) -> NodeId {
    let path = node.target();
    let module = gm.get_module(path).expect("checked when pairing").clone();
    let any = module.as_any();
    let conv = any.downcast_ref::<Conv2d>();
    let (weight, bias) = match (conv, any.downcast_ref::<Linear>()) {
        (Some(conv), _) => (conv.weight(), conv.bias()),
        (_, Some(lin)) => (lin.weight(), lin.bias()),
        _ => unreachable!("checked when pairing"),
    };
    let mut attr = |name: &str, t: &fx_tensor::Tensor| {
        let flat = format!("{}_{name}", path.replace('.', "_"));
        gm.set_attr(&flat, t.clone());
        flat
    };
    let weight = attr("weight", weight);
    let bias = bias.map(|b| attr("bias", b));
    let mut graph = gm.graph_mut().inserting_before(node.id());
    let mut args = vec![
        node.args()[0].clone(),
        Arg::Node(graph.get_attr(&weight)),
        bias.map_or(Arg::None, |b| Arg::Node(graph.get_attr(&b))),
    ];
    if let Some(conv) = conv {
        let pair =
            |(a, b): (usize, usize)| Arg::Tuple(vec![Arg::Int(a as i64), Arg::Int(b as i64)]);
        let (stride, padding, dilation, groups) = conv.geometry();
        args.extend([
            pair(stride),
            pair(padding),
            pair(dilation),
            Arg::Int(groups as i64),
        ]);
    }
    let hint = format!("{}_relu", node.name());
    graph.create_node(Opcode::CallFunction, target, args, vec![], &hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{symbolic_trace, Value};
    use fx_models::{resnet_tiny, LearningToPaintActor};
    use fx_tensor::rng::{SeedableRng, StdRng};
    use fx_tensor::Tensor;

    fn bits(v: &Value) -> Vec<u32> {
        let t = v.as_tensor().unwrap();
        t.as_f32().unwrap().iter().map(|f| f.to_bits()).collect()
    }

    fn targets(gm: &GraphModule, target: &str) -> usize {
        gm.graph().nodes().filter(|n| n.target() == target).count()
    }

    #[test]
    fn fused_resnet_is_bit_identical_and_idempotent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
        fuse_conv_bn(&mut gm).unwrap();
        let x = Value::Tensor(Tensor::randn(&[2, 3, 32, 32], &mut rng));
        let want = bits(&gm.run(std::slice::from_ref(&x)).unwrap());

        let mut fused = gm.clone();
        let n = fuse_epilogues(&mut fused).unwrap();
        assert!(n > 0);
        assert_eq!(targets(&fused, "conv2d_relu"), n);
        fused.validate().unwrap();
        assert_eq!(want, bits(&fused.run(std::slice::from_ref(&x)).unwrap()));
        assert_eq!(
            fuse_epilogues(&mut fused).unwrap(),
            0,
            "second pass is a no-op"
        );
    }

    #[test]
    fn function_and_module_forms_fuse_only_single_user_relus() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Tensor::randn(&[4, 6], &mut rng);
        let b = Tensor::randn(&[4], &mut rng);
        let mut g = fx_core::Graph::new();
        let x = Arg::Node(g.placeholder("x"));
        let (wn, bn) = (Arg::Node(g.get_attr("w")), Arg::Node(g.get_attr("b")));
        // call_function linear + relu: fuses in place.
        let l0 = g.call_function("linear", vec![x.clone(), wn.clone(), bn], vec![]);
        let a = g.call_function("relu", vec![Arg::Node(l0)], vec![]);
        // A linear with two users stays unfused.
        let l1 = g.call_function("linear", vec![x.clone(), wn, Arg::None], vec![]);
        let r1 = g.call_function("relu", vec![Arg::Node(l1)], vec![]);
        let c = g.call_function("add", vec![Arg::Node(r1), Arg::Node(l1)], vec![]);
        // call_module Linear + relu method: fuses through get_attr weights.
        let l2 = g.call_module("lin", vec![x], vec![]);
        let d = g.call_method("relu", vec![Arg::Node(l2)], vec![]);
        let ac = g.call_function("add", vec![Arg::Node(a), Arg::Node(c)], vec![]);
        let out = g.call_function("add", vec![Arg::Node(ac), Arg::Node(d)], vec![]);
        g.output(Arg::Node(out));
        let lin: fx_core::ArcModule =
            std::sync::Arc::new(Linear::from_parts(w.clone(), Some(b.clone())));
        let modules = [("lin".to_string(), lin)].into_iter().collect();
        let attrs = [("w".to_string(), w), ("b".to_string(), b)]
            .into_iter()
            .collect();
        let mut gm = GraphModule::new(g, modules, attrs, vec!["x".to_string()]).unwrap();

        let x = Value::Tensor(Tensor::randn(&[3, 6], &mut rng));
        let want = bits(&gm.run(std::slice::from_ref(&x)).unwrap());
        assert_eq!(fuse_epilogues(&mut gm).unwrap(), 2);
        assert_eq!(targets(&gm, "linear_relu"), 2);
        assert_eq!(targets(&gm, "linear"), 1, "a linear with two users stays");
        assert!(
            gm.modules().is_empty(),
            "the fused Linear module is dropped"
        );
        assert!(gm.get_attr_tensor("lin_weight").is_some());
        gm.validate().unwrap();
        assert_eq!(want, bits(&gm.run(std::slice::from_ref(&x)).unwrap()));
    }

    #[test]
    fn lowered_models_match_eager() {
        let mut rng = StdRng::seed_from_u64(2);
        let gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
        let (lowered, report) = lower(&gm).unwrap();
        assert_eq!(report.source_nodes, gm.graph().len());
        assert_eq!(report.lowered_nodes, lowered.graph().len());
        assert!(report.conv_bn_folded > 0 && report.epilogues_fused > 0);
        assert!(!lowered
            .modules()
            .values()
            .any(|m| m.type_name() == "BatchNorm2d"));
        let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
        let y0 = gm.run(std::slice::from_ref(&x)).unwrap();
        let y1 = lowered.run(&[x]).unwrap();
        assert!(y0
            .as_tensor()
            .unwrap()
            .allclose(y1.as_tensor().unwrap(), 1e-2));

        let actor = symbolic_trace(&LearningToPaintActor::new(&mut rng)).unwrap();
        let (lowered, report) = lower(&actor).unwrap();
        assert!(report.epilogues_fused > 0);
        let x = Value::Tensor(Tensor::randn(&[1, 9, 32, 32], &mut rng));
        let y0 = actor.run(std::slice::from_ref(&x)).unwrap();
        let y1 = lowered.run(&[x]).unwrap();
        assert!(y0
            .as_tensor()
            .unwrap()
            .allclose(y1.as_tensor().unwrap(), 1e-3));
    }

    #[test]
    fn lowered_module_retraces_with_fused_ops_inlined() {
        let mut rng = StdRng::seed_from_u64(3);
        let gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
        let (lowered, report) = lower(&gm).unwrap();
        let retraced = symbolic_trace(&lowered).unwrap();
        assert_eq!(
            targets(&retraced, "conv2d_relu"),
            targets(&lowered, "conv2d_relu")
        );
        assert!(targets(&retraced, "conv2d_relu") > 0 && report.epilogues_fused > 0);
        let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
        let y0 = lowered.run(std::slice::from_ref(&x)).unwrap();
        let y1 = retraced.run(&[x]).unwrap();
        assert_eq!(bits(&y0), bits(&y1));
    }
}
