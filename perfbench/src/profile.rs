//! Joins executor run profiles with the graph they ran: each node's op
//! kind, its ResNet stage, and its analytic cost from
//! `fx_passes::node_cost`, for per-kind and per-stage time, GFLOP/s,
//! GB/s and roofline bound class.

use crate::json::{self, Obj};
use crate::stats::ratio;
use crate::trace::{Ctx, Tracer};
use fx_core::{GraphModule, Opcode, RunProfile};
use fx_passes::DeviceSpec;
use std::collections::HashMap;

/// What kind of kernel a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Conv,
    Linear,
    Bn,
    Pool,
    /// Boundaries between f32 and int8: quantize and dequantize.
    QuantBoundary,
    /// Elementwise and data-movement nodes, including the placeholder
    /// and output bookkeeping.
    Eltwise,
}

pub const KINDS: [Kind; 6] = [
    Kind::Conv,
    Kind::Linear,
    Kind::Bn,
    Kind::Pool,
    Kind::QuantBoundary,
    Kind::Eltwise,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Conv => "conv",
            Kind::Linear => "linear",
            Kind::Bn => "bn",
            Kind::Pool => "pool",
            Kind::QuantBoundary => "quant_boundary",
            Kind::Eltwise => "eltwise",
        }
    }

    fn index(self) -> usize {
        KINDS
            .iter()
            .position(|k| *k == self)
            .expect("every kind is listed")
    }

    fn of(gm: &GraphModule, op: Opcode, target: &str) -> Kind {
        let name = match op {
            Opcode::CallModule => gm.get_module(target).map_or("", |m| m.type_name()),
            Opcode::CallFunction | Opcode::CallMethod => target,
            _ => "",
        };
        match name {
            "Conv2d"
            | "QuantizedConv2d"
            | "QuantizedConv2dReLU"
            | "conv2d"
            | "quantized::conv2d"
            | "quantized::conv2d_relu" => Kind::Conv,
            "Linear"
            | "QuantizedLinear"
            | "QuantizedLinearReLU"
            | "linear"
            | "quantized::linear"
            | "quantized::linear_relu" => Kind::Linear,
            "BatchNorm2d" | "batch_norm" => Kind::Bn,
            "MaxPool2d"
            | "AvgPool2d"
            | "AdaptiveAvgPool2d"
            | "max_pool2d"
            | "avg_pool2d"
            | "adaptive_avg_pool2d" => Kind::Pool,
            "quantize_per_tensor" | "dequantize" => Kind::QuantBoundary,
            _ => Kind::Eltwise,
        }
    }
}

/// ResNet stages, in graph order.
pub const STAGES: [&str; 6] = ["stem", "layer1", "layer2", "layer3", "layer4", "head"];

/// Per-node facts about one graph, keyed by node name.
pub struct GraphInfo {
    kind: HashMap<String, Kind>,
    stage: HashMap<String, usize>,
    /// `(flops, bytes)` per node, when costed.
    cost: HashMap<String, (u64, u64)>,
    /// Roofline prediction of a whole run, seconds.
    pub predicted_s: f64,
    pub device: DeviceSpec,
}

impl GraphInfo {
    /// Kinds and stages of `gm`'s nodes. A node belongs to the `layerN`
    /// stage its name starts with; nodes before `layer1` are the stem
    /// and nodes after the last `layer4` node the head.
    pub fn new(gm: &GraphModule) -> GraphInfo {
        let mut kind = HashMap::new();
        let mut stage = HashMap::new();
        let mut current = 0;
        for node in gm.graph().nodes() {
            kind.insert(
                node.name().to_string(),
                Kind::of(gm, node.op(), node.target()),
            );
            if let Some(i) = (1..=4).find(|i| node.name().starts_with(&format!("layer{i}"))) {
                current = i;
            } else if current == 4 {
                current = 5;
            }
            stage.insert(node.name().to_string(), current);
        }
        GraphInfo {
            kind,
            stage,
            cost: HashMap::new(),
            predicted_s: 0.0,
            device: DeviceSpec::host_cpu_single_core(),
        }
    }

    /// Also cost every node with `fx_passes::node_cost` on a shape-
    /// inferred copy of `gm`, and predict a run with `estimate`.
    pub fn costed(gm: &GraphModule, input_shapes: &[Vec<usize>]) -> Result<GraphInfo, String> {
        let mut info = GraphInfo::new(gm);
        let mut shaped = gm.clone();
        fx_passes::infer_shapes(&mut shaped, input_shapes).map_err(|e| e.to_string())?;
        for node in shaped.graph().nodes() {
            let (flops, bytes, _) = fx_passes::node_cost(&shaped, node);
            info.cost.insert(node.name().to_string(), (flops, bytes));
        }
        info.predicted_s = fx_passes::estimate(&shaped, &info.device)
            .map_err(|e| e.to_string())?
            .total_time;
        Ok(info)
    }

    fn kind(&self, node: &str) -> Kind {
        self.kind.get(node).copied().unwrap_or(Kind::Eltwise)
    }
}

/// Sums over many profiled runs of one graph.
#[derive(Debug, Default)]
pub struct ProfileSums {
    pub runs: u64,
    pub total_s: f64,
    pub node_s: f64,
    pub kind_s: [f64; KINDS.len()],
    pub stage_s: [f64; STAGES.len()],
    pub plan_hits: u64,
    pub peak_live_bytes: usize,
    /// `(flops, bytes)` per run, by kind and by stage.
    kind_cost: [(u64, u64); KINDS.len()],
    stage_cost: [(u64, u64); STAGES.len()],
}

impl ProfileSums {
    pub fn add(&mut self, info: &GraphInfo, prof: &RunProfile) {
        let first = self.runs == 0;
        self.runs += 1;
        self.total_s += prof.total_seconds;
        self.plan_hits += u64::from(prof.plan_cache_hit);
        self.peak_live_bytes = self.peak_live_bytes.max(prof.peak_live_bytes);
        for nt in &prof.node_times {
            let k = info.kind(&nt.name).index();
            let s = info.stage.get(&nt.name).copied().unwrap_or(0);
            self.node_s += nt.seconds;
            self.kind_s[k] += nt.seconds;
            self.stage_s[s] += nt.seconds;
            if first {
                let (f, b) = info.cost.get(&nt.name).copied().unwrap_or((0, 0));
                self.kind_cost[k].0 += f;
                self.kind_cost[k].1 += b;
                self.stage_cost[s].0 += f;
                self.stage_cost[s].1 += b;
            }
        }
    }

    /// Mean milliseconds per run.
    pub fn mean_ms(&self, seconds: f64) -> f64 {
        ratio(seconds, self.runs as f64) * 1e3
    }

    pub fn kind_ms(&self, k: Kind) -> f64 {
        self.mean_ms(self.kind_s[k.index()])
    }

    /// Mean run time not spent inside any node: plan dispatch, value
    /// bookkeeping, allocation.
    pub fn dispatch_ms(&self) -> f64 {
        self.mean_ms(self.total_s - self.node_s)
    }

    /// `(GFLOP/s, GB/s)` achieved by a kind.
    pub fn kind_rates(&self, k: Kind) -> (f64, f64) {
        rates(self.kind_cost[k.index()], self.kind_s[k.index()], self.runs)
    }

    /// `(GFLOP/s, GB/s)` achieved by a stage.
    pub fn stage_rates(&self, stage: usize) -> (f64, f64) {
        rates(self.stage_cost[stage], self.stage_s[stage], self.runs)
    }

    /// Per-kind and per-stage roofline rows as JSON, and as text lines.
    pub fn roofline(&self, info: &GraphInfo) -> (String, Vec<String>) {
        let ridge = info.device.peak_flops / info.device.mem_bandwidth;
        let mut rows = Vec::new();
        let mut lines = vec![format!(
            "roofline on `{}` (ridge {ridge:.1} flop/byte); bytes are computed from tensor sizes",
            info.device.name
        )];
        let mut row = |group: &str, name: &str, cost: (u64, u64), secs: f64| {
            if cost.0 == 0 && secs == 0.0 {
                return;
            }
            let (gflops, gbps) = rates(cost, secs, self.runs);
            let intensity = ratio(cost.0 as f64, cost.1 as f64);
            let bound = if intensity >= ridge {
                "compute"
            } else {
                "bandwidth"
            };
            let predicted = info.device.op_time(cost.0, cost.1, false);
            let measured = ratio(secs, self.runs as f64);
            lines.push(format!(
                "  {group:<5} {name:<15} {:>8.3} ms {gflops:>7.2} GFLOP/s {gbps:>7.2} GB/s  {intensity:>6.2} flop/B  {bound}",
                measured * 1e3
            ));
            rows.push(
                Obj::new()
                    .str("group", group)
                    .str("name", name)
                    .num("ms", measured * 1e3)
                    .int("flops", cost.0)
                    .int("bytes", cost.1)
                    .num("gflops", gflops)
                    .num("gbps", gbps)
                    .num("flop_per_byte", intensity)
                    .str("bound", bound)
                    .num("predicted_over_measured", ratio(predicted, measured))
                    .finish(),
            );
        };
        for k in KINDS {
            row(
                "kind",
                k.name(),
                self.kind_cost[k.index()],
                self.kind_s[k.index()],
            );
        }
        for (i, s) in STAGES.iter().enumerate() {
            row("stage", s, self.stage_cost[i], self.stage_s[i]);
        }
        (json::array(rows), lines)
    }
}

fn rates(cost: (u64, u64), secs: f64, runs: u64) -> (f64, f64) {
    let per_run = ratio(secs, runs as f64);
    (
        ratio(cost.0 as f64, per_run) / 1e9,
        ratio(cost.1 as f64, per_run) / 1e9,
    )
}

/// Record a profiled run as a `core.run` span starting at `start_us`
/// with one child span per node. The profile holds node durations, not
/// start times, so the node spans are laid end to end in plan order;
/// the gaps all fall after the last node, as `core.run` self time.
pub fn record_run(tracer: &Tracer, ctx: Ctx, start_us: f64, prof: &RunProfile) {
    if !tracer.enabled() {
        return;
    }
    let end_us = start_us + prof.total_seconds * 1e6;
    let run = tracer.record("core.run", "core", ctx, start_us, end_us);
    let mut t = start_us;
    for nt in &prof.node_times {
        let d = nt.seconds * 1e6;
        tracer.record(&nt.name, "tensor", ctx.child(run), t, t + d);
        t += d;
    }
}
