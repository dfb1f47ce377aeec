//! `rn50_b1`: batch-1 forwards of a traced, untransformed ResNet-50
//! through `ExecutorBackend::prepare`, one caller in a closed loop.

use crate::check::bitwise_eq;
use crate::profile::{record_run, GraphInfo, Kind, ProfileSums, STAGES};
use crate::trace::{Ctx, Tracer};
use crate::{json, untraced_rounds, Args, Layers, Outcome, Tally};
use fx_core::{symbolic_trace, ExecutionBackend, ExecutorBackend, GraphModule, ModuleExt};
use fx_core::{PreparedModel, Value};
use fx_models::resnet50;
use fx_tensor::rng::{Rng, SeedableRng, StdRng};
use fx_tensor::Tensor;
use std::time::{Duration, Instant};

/// Weights are fixed; inputs come from the run's seed.
const WEIGHT_SEED: u64 = 50;
/// Distinct inputs the loop draws from.
const POOL: usize = 8;
const SHAPE: [usize; 4] = [1, 3, 32, 32];

struct State {
    gm: GraphModule,
    prepared: Box<dyn PreparedModel>,
    inputs: Vec<Value>,
    refs: Vec<Tensor>,
    setup_failures: u64,
}

fn setup(args: &Args) -> Result<State, String> {
    let e = |e: fx_core::Error| e.to_string();
    let model = resnet50(3, 10, &mut StdRng::seed_from_u64(WEIGHT_SEED));
    let gm = symbolic_trace(&model).map_err(e)?;
    let prepared = ExecutorBackend.prepare(&gm).map_err(e)?;
    let mut rng = args.rng(1);
    let inputs: Vec<Value> = (0..POOL)
        .map(|_| Value::Tensor(Tensor::randn(&SHAPE, &mut rng)))
        .collect();
    // References from the eager module, which capture does not touch.
    let refs = inputs
        .iter()
        .map(|x| model.call(std::slice::from_ref(x))?.into_tensor())
        .collect::<Result<Vec<_>, _>>()
        .map_err(e)?;
    // Warm-up: every input once, checked like a timed op.
    let mut setup_failures = 0;
    for (i, (x, r)) in inputs.iter().zip(&refs).enumerate() {
        let out = prepared.run(std::slice::from_ref(x)).map_err(e)?;
        if !out.as_tensor().is_ok_and(|t| bitwise_eq(t, r)) {
            eprintln!("FAILED warm-up input {i}: output differs from eager");
            setup_failures += 1;
        }
    }
    Ok(State {
        gm,
        prepared,
        inputs,
        refs,
        setup_failures,
    })
}

/// Run forwards for `dur`. With `sums`, each op is profiled and traced.
fn measure(
    s: &State,
    draw: &mut StdRng,
    dur: Duration,
    tracer: &Tracer,
    mut sums: Option<(&GraphInfo, &mut ProfileSums)>,
) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < dur {
        op += 1;
        let i = draw.gen_range(0..POOL);
        let x = std::slice::from_ref(&s.inputs[i]);
        let t = Instant::now();
        let out = match sums.as_mut() {
            None => s.prepared.run(x),
            Some((info, sums)) => tracer.span("rn50_b1.op", "bench", Ctx::root(op, 0), |ctx| {
                let start_us = tracer.now_us();
                let (out, prof) = s.prepared.run_profiled(x)?;
                record_run(tracer, ctx, start_us, &prof);
                sums.add(info, &prof);
                Ok(out)
            }),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        match out {
            Ok(v) if v.as_tensor().is_ok_and(|t| bitwise_eq(t, &s.refs[i])) => tally.pass(ms, 1),
            Ok(_) => tally.fail(op, &format!("input {i}: output differs from eager")),
            Err(e) => tally.fail(op, &e.to_string()),
        }
        tally.check_s += t.elapsed().as_secs_f64();
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    tally
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut draw = args.rng(2);
    let off = Tracer::new(false);
    if !args.trace {
        return untraced_rounds(
            args,
            || setup(args),
            |s, dur| measure(s, &mut draw, dur, &off, None),
            |s| s.setup_failures,
        );
    }

    let s = setup(args)?;
    let info = GraphInfo::costed(&s.gm, &[SHAPE.to_vec()])?;
    let untraced = measure(&s, &mut draw, args.phase(), &off, None);
    let tracer = Tracer::new(true);
    let mut sums = ProfileSums::default();
    let pool_before = fx_tensor::pool::stats();
    let traced = measure(
        &s,
        &mut draw,
        args.phase(),
        &tracer,
        Some((&info, &mut sums)),
    );

    let mut l = Layers::default();
    l.pool(&pool_before, traced.attempted);
    l.trace_overhead(&untraced, &traced);
    l.set("core.run_ms", sums.mean_ms(sums.total_s));
    l.set("core.dispatch_ms", sums.dispatch_ms());
    l.set(
        "core.plan_hit_rate",
        crate::stats::ratio(sums.plan_hits as f64, sums.runs as f64),
    );
    l.set(
        "core.peak_live_mb",
        sums.peak_live_bytes as f64 / (1 << 20) as f64,
    );
    // Every node falls in one kind, so these plus dispatch are the run.
    let eltwise = sums.kind_ms(Kind::Eltwise) + sums.kind_ms(Kind::QuantBoundary);
    l.set("tensor.conv_ms", sums.kind_ms(Kind::Conv));
    l.set("tensor.linear_ms", sums.kind_ms(Kind::Linear));
    l.set("tensor.bn_ms", sums.kind_ms(Kind::Bn));
    l.set("tensor.pool_ms", sums.kind_ms(Kind::Pool));
    l.set("tensor.eltwise_ms", eltwise);
    let (gflops, gbps) = sums.kind_rates(Kind::Conv);
    l.set("tensor.conv_gflops", gflops);
    l.set("tensor.conv_gbps", gbps);
    const STAGE_MS: [&str; 6] = [
        "stage.stem_ms",
        "stage.layer1_ms",
        "stage.layer2_ms",
        "stage.layer3_ms",
        "stage.layer4_ms",
        "stage.head_ms",
    ];
    for (i, name) in STAGE_MS.into_iter().enumerate() {
        l.set(name, sums.mean_ms(sums.stage_s[i]));
    }
    let layer4 = STAGES
        .iter()
        .position(|s| *s == "layer4")
        .expect("layer4 is a stage");
    let (gflops, gbps) = sums.stage_rates(layer4);
    l.set("stage.layer4_gflops", gflops);
    l.set("stage.layer4_gbps", gbps);
    let measured_s = crate::stats::ratio(sums.total_s, sums.runs as f64);
    l.set(
        "passes.roofline_ratio",
        crate::stats::ratio(info.predicted_s, measured_s),
    );

    let (roofline, lines) = sums.roofline(&info);
    for line in lines {
        eprintln!("{line}");
    }
    crate::finish_trace(args, &tracer, json::Obj::new().raw("roofline", roofline))?;
    let mut tally = traced;
    tally.merge(untraced);
    Ok(l.finish(tally, s.setup_failures))
}
