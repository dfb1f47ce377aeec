//! `capture`: each op takes one eager model through the paper's
//! pipeline — trace, conv–BN fusion, shape inference, lowering, PTQ,
//! recompile, validate, prepare and a first forward — one caller in a
//! closed loop over a seeded rotation of three models.

use crate::check::{max_abs_rel, sqnr_db};
use crate::trace::{Ctx, Tracer};
use crate::{json, stats, untraced_rounds, Args, Layers, Outcome, Tally};
use fx_core::{symbolic_trace, ArcModule, ExecutionBackend, ExecutorBackend, ModuleExt, Value};
use fx_models::{resnet50, DeepRecommender, LearningToPaintActor};
use fx_tensor::rng::{Rng, SeedableRng, StdRng};
use fx_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The captured models, in `State::subjects` order.
const MODELS: [&str; 3] = ["resnet50", "deep_recommender", "ltp_actor"];
/// Weights are fixed; inputs and the rotation come from the run's seed.
const WEIGHT_SEED: u64 = 60;
/// Rows in the one calibration batch.
const CAL_ROWS: usize = 8;
/// Rows in the first forward. The int8 output is held to the PTQ floor
/// as one SQNR over this batch, as the repository's PTQ tests measure
/// it; a single row of a few logits is too small a sample.
const FORWARD_ROWS: usize = 4;
/// The conv–BN-fused f32 forward may differ from eager by at most this
/// share of the reference's largest magnitude (fusion reassociates the
/// BN scale into the conv weights; about 1e-6 is typical).
const FUSED_TOL: f64 = 1e-5;
/// The repository's PTQ floor: int8 output against eager f32.
const MIN_SQNR_DB: f64 = 20.0;

/// The pipeline calls, each timed by one span, in order.
const STEPS: [(&str, &str); 11] = [
    ("core.trace", "core"),
    ("passes.fuse", "passes"),
    ("passes.infer_shapes", "passes"),
    ("backend.lower", "backend"),
    ("quant.prepare", "quant"),
    ("quant.calibrate", "quant"),
    ("quant.convert", "quant"),
    ("core.recompile", "core"),
    ("core.validate", "core"),
    ("core.prepare", "core"),
    ("core.first_run", "core"),
];

struct Subject {
    name: &'static str,
    model: ArcModule,
    shape: Vec<usize>,
    x: Value,
    cal: Vec<Vec<Value>>,
    reference: fx_tensor::Tensor,
}

struct State {
    subjects: Vec<Subject>,
    /// Seeded rotation over `subjects`.
    order: Vec<usize>,
    setup_failures: u64,
}

/// What one capture produced, for the checks and the counts.
struct Captured {
    traced_nodes: usize,
    fused_pairs: usize,
    observers: usize,
    fused: fx_core::GraphModule,
    out: Value,
}

fn setup(args: &Args) -> Result<State, String> {
    let mut w = StdRng::seed_from_u64(WEIGHT_SEED);
    let models: [(ArcModule, Vec<usize>); 3] = [
        (
            Arc::new(resnet50(3, 10, &mut w)),
            vec![FORWARD_ROWS, 3, 32, 32],
        ),
        (
            Arc::new(DeepRecommender::new(2048, &mut w)),
            vec![FORWARD_ROWS, 2048],
        ),
        (
            Arc::new(LearningToPaintActor::new(&mut w)),
            vec![FORWARD_ROWS, 9, 32, 32],
        ),
    ];
    let mut rng = args.rng(1);
    let mut subjects = Vec::new();
    for (name, (model, shape)) in MODELS.into_iter().zip(models) {
        let x = Value::Tensor(Tensor::randn(&shape, &mut rng));
        let cal_shape = [&[CAL_ROWS][..], &shape[1..]].concat();
        let cal = vec![vec![Value::Tensor(Tensor::randn(&cal_shape, &mut rng))]];
        let reference = model
            .call(std::slice::from_ref(&x))
            .and_then(Value::into_tensor)
            .map_err(|e| e.to_string())?;
        subjects.push(Subject {
            name,
            model,
            shape,
            x,
            cal,
            reference,
        });
    }
    let mut order: Vec<usize> = (0..subjects.len()).collect();
    let mut draw = args.rng(3);
    for i in (1..order.len()).rev() {
        order.swap(i, draw.gen_range(0..i + 1));
    }
    // Warm-up: one checked capture of each model.
    let off = Tracer::new(false);
    let mut setup_failures = 0;
    for s in &subjects {
        let c = capture(s, &off, Ctx::default()).map_err(|e| format!("{}: {e}", s.name))?;
        if let Err(why) = check(s, &c) {
            eprintln!("FAILED warm-up capture of {}: {why}", s.name);
            setup_failures += 1;
        }
    }
    Ok(State {
        subjects,
        order,
        setup_failures,
    })
}

fn capture(s: &Subject, tracer: &Tracer, ctx: Ctx) -> fx_core::Result<Captured> {
    let x = std::slice::from_ref(&s.x);
    let gm = span(tracer, ctx, STEPS[0], || symbolic_trace(&*s.model))?;
    let traced_nodes = gm.graph().len();
    let mut fused = gm;
    let fused_pairs = span(tracer, ctx, STEPS[1], || {
        fx_passes::fuse_conv_bn(&mut fused)
    })?;
    let shapes = std::slice::from_ref(&s.shape);
    span(tracer, ctx, STEPS[2], || {
        fx_passes::infer_shapes(&mut fused, shapes)
    })?;
    span(tracer, ctx, STEPS[3], || fx_backend::lower(&fused))?;
    let qconfig = fx_quant::QConfig::default();
    let observed = span(tracer, ctx, STEPS[4], || {
        fx_quant::prepare(&fused, &qconfig)
    })?;
    span(tracer, ctx, STEPS[5], || {
        fx_quant::calibrate(&observed, &s.cal)
    })?;
    let mut quantized = span(tracer, ctx, STEPS[6], || fx_quant::convert(&observed))?;
    span(tracer, ctx, STEPS[7], || quantized.recompile())?;
    span(tracer, ctx, STEPS[8], || quantized.validate())?;
    let prepared = span(tracer, ctx, STEPS[9], || {
        ExecutorBackend.prepare(&quantized)
    })?;
    let out = span(tracer, ctx, STEPS[10], || prepared.run(x))?;
    Ok(Captured {
        traced_nodes,
        fused_pairs,
        observers: observed.graph().len() - fused.graph().len(),
        fused,
        out,
    })
}

/// One pipeline call inside its span.
fn span<T>(
    tracer: &Tracer,
    ctx: Ctx,
    (name, cat): (&str, &'static str),
    f: impl FnOnce() -> fx_core::Result<T>,
) -> fx_core::Result<T> {
    tracer.span(name, cat, ctx, |_| f())
}

/// The fused f32 graph must match eager within [`FUSED_TOL`], and the
/// int8 forward must reach [`MIN_SQNR_DB`]. Returns the SQNR.
fn check(s: &Subject, c: &Captured) -> Result<f64, String> {
    let fused = c
        .fused
        .run(std::slice::from_ref(&s.x))
        .and_then(Value::into_tensor)
        .map_err(|e| format!("fused forward: {e}"))?;
    let rel = max_abs_rel(&s.reference, &fused);
    if rel > FUSED_TOL {
        return Err(format!(
            "fused forward off by {rel:.3e} of max |ref| (> {FUSED_TOL:e})"
        ));
    }
    let q = c.out.as_tensor().map_err(|e| e.to_string())?;
    let db = sqnr_db(&s.reference, q);
    if db < MIN_SQNR_DB {
        return Err(format!("int8 forward SQNR {db:.1} dB < {MIN_SQNR_DB} dB"));
    }
    Ok(db)
}

/// Per-rotation sums of the captures' counts, and their worst SQNR.
#[derive(Default)]
struct Counts {
    rotations: u64,
    traced_nodes: usize,
    fused_pairs: usize,
    observers: usize,
    min_sqnr_db: Option<f64>,
}

/// Capture whole rotations until `dur` has passed. Time spent checking
/// outputs is counted in `check_s`, not as op time.
fn measure(
    st: &State,
    dur: Duration,
    tracer: &Tracer,
    counts: &mut Counts,
) -> (Tally, Vec<Vec<f64>>) {
    let mut tally = Tally::default();
    let mut per_model = vec![Vec::new(); st.subjects.len()];
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < dur {
        counts.rotations += 1;
        for &m in &st.order {
            op += 1;
            let s = &st.subjects[m];
            let t = Instant::now();
            let c = tracer.span("capture.op", "bench", Ctx::root(op, 0), |ctx| {
                capture(s, tracer, ctx)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            match c
                .map_err(|e| e.to_string())
                .and_then(|c| check(s, &c).map(|db| (c, db)))
            {
                Ok((c, db)) => {
                    tally.pass(ms, FORWARD_ROWS);
                    per_model[m].push(ms);
                    counts.traced_nodes += c.traced_nodes;
                    counts.fused_pairs += c.fused_pairs;
                    counts.observers += c.observers;
                    counts.min_sqnr_db = Some(counts.min_sqnr_db.map_or(db, |v: f64| v.min(db)));
                }
                Err(why) => tally.fail(op, &format!("{}: {why}", s.name)),
            }
            tally.check_s += t.elapsed().as_secs_f64();
        }
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    (tally, per_model)
}

fn print_models(per_model: &[Vec<f64>]) {
    for (name, v) in MODELS.iter().zip(per_model) {
        if !v.is_empty() {
            eprintln!(
                "  {name:<18} n={:<4} p50 {:>9.2} ms",
                v.len(),
                stats::median(v)
            );
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    if !args.trace {
        let mut per_model = vec![Vec::new(); MODELS.len()];
        let out = untraced_rounds(
            args,
            || setup(args),
            |st, dur| {
                let (tally, pm) = measure(st, dur, &off, &mut Counts::default());
                for (all, round) in per_model.iter_mut().zip(pm) {
                    all.extend(round);
                }
                tally
            },
            |st| st.setup_failures,
        );
        print_models(&per_model);
        return out;
    }

    let st = setup(args)?;
    let (untraced, _) = measure(&st, args.phase(), &off, &mut Counts::default());
    let tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let pool_before = fx_tensor::pool::stats();
    let (traced, per_model) = measure(&st, args.phase(), &tracer, &mut counts);
    print_models(&per_model);

    let mut l = Layers::default();
    l.pool(&pool_before, traced.attempted);
    l.trace_overhead(&untraced, &traced);
    let totals = tracer.totals();
    let ops = traced.attempted as f64;
    let mean_ms = |us: f64| stats::ratio(us, ops) / 1e3;
    const STEP_MS: [&str; 11] = [
        "core.trace_ms",
        "passes.fuse_ms",
        "passes.infer_shapes_ms",
        "backend.lower_ms",
        "quant.prepare_ms",
        "quant.calibrate_ms",
        "quant.convert_ms",
        "core.recompile_ms",
        "core.validate_ms",
        "core.prepare_ms",
        "core.first_run_ms",
    ];
    for ((span, _), metric) in STEPS.iter().zip(STEP_MS) {
        l.set(
            metric,
            mean_ms(totals.get(*span).map_or(0.0, |t| t.total_us)),
        );
    }
    // The op's own time outside every step: clones, drops, moves.
    l.set(
        "capture.other_ms",
        mean_ms(totals.get("capture.op").map_or(0.0, |t| t.self_us)),
    );
    let per_rotation = |n: usize| stats::ratio(n as f64, counts.rotations as f64);
    l.set("core.graph_nodes", per_rotation(counts.traced_nodes));
    l.set("passes.fused_pairs", per_rotation(counts.fused_pairs));
    l.set("quant.observers", per_rotation(counts.observers));
    l.set("quant.sqnr_db", counts.min_sqnr_db.unwrap_or(0.0));

    let models = json::array(st.order.iter().map(|&m| json::string(MODELS[m])));
    crate::finish_trace(args, &tracer, json::Obj::new().raw("rotation", models))?;
    let mut tally = traced;
    tally.merge(untraced);
    Ok(l.finish(tally, st.setup_failures))
}
