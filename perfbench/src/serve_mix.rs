//! `serve_mix`: int8 ResNet-50 and f32 DeepRecommender served from one
//! `fx_serve::Registry`, one closed-loop client thread per core.

use crate::check::{slices_bitwise_eq, sqnr_db};
use crate::profile::{record_run, GraphInfo, Kind, ProfileSums};
use crate::trace::{Ctx, Tracer};
use crate::{config, json, stats, untraced_rounds, Args, Layers, Outcome, Tally};
use fx_core::{symbolic_trace, ExecutionBackend, ExecutorBackend, GraphModule, ModuleExt, Value};
use fx_models::{resnet50, DeepRecommender};
use fx_serve::{Handle, ModelConfig, Registry, ServeStats};
use fx_tensor::ops::stack_batch;
use fx_tensor::rng::{Rng, SeedableRng, StdRng};
use fx_tensor::Tensor;
use std::time::{Duration, Instant};

/// Weights are fixed; calibration data, inputs and draws come from the
/// run's seed.
const WEIGHT_SEED: u64 = 70;
const N_ITEMS: usize = 2048;
/// Served model names, in `State::models` order.
const MODELS: [&str; 2] = ["rn50_int8", "reco"];
const MAX_ROWS: usize = 4;
/// One request in this many goes to ResNet-50.
const RN50_ONE_IN: usize = 3;
/// Calibration batches of 2 rows, as the repository's serving bench
/// quantizes ResNet-50.
const CAL_BATCHES: usize = 4;
/// The repository's PTQ floor: int8 output against eager f32.
const MIN_SQNR_DB: f64 = 20.0;
/// Rows in the solo profiled int8 run of the traced half.
const SOLO_ROWS: usize = 4;
const SOLO_RUNS: usize = 5;

/// Registry workers and client threads: one per core.
pub fn workers() -> usize {
    config::available_parallelism()
}

/// One served model: its client handle and the single-row inputs that
/// requests are stacked from, with each row's reference output.
struct Served {
    name: &'static str,
    handle: Handle,
    rows: Vec<Tensor>,
    refs: Vec<Vec<f32>>,
}

struct State {
    models: [Served; 2],
    /// The int8 graph as registered, for the solo profiled run.
    rn50_int8: GraphModule,
    /// int8 against eager f32 over the row pool.
    sqnr_db_pool: f64,
    setup_failures: u64,
    registry: Registry,
}

fn setup(args: &Args) -> Result<State, String> {
    let e = |e: fx_core::Error| e.to_string();
    let mut w = StdRng::seed_from_u64(WEIGHT_SEED);
    let rn50 = resnet50(3, 10, &mut w);
    let reco = DeepRecommender::new(N_ITEMS, &mut w);

    // rn50_int8: fuse conv–BN, then PTQ calibrated on seeded batches.
    let mut fused = symbolic_trace(&rn50).map_err(e)?;
    fx_passes::fuse_conv_bn(&mut fused).map_err(e)?;
    let mut rng = args.rng(10);
    let cal: Vec<Vec<Value>> = (0..CAL_BATCHES)
        .map(|_| vec![Value::Tensor(Tensor::randn(&[2, 3, 32, 32], &mut rng))])
        .collect();
    let rn50_int8 =
        fx_quant::quantize_ptq(&fused, &cal, &fx_quant::QConfig::default()).map_err(e)?;
    let reco_gm = symbolic_trace(&reco).map_err(e)?;

    // References: a solo run of the int8 graph per row, and eager f32
    // for reco. Over the whole row pool, int8 must reach the PTQ floor
    // against eager f32, measured like the repository's PTQ tests: one
    // SQNR over a batch of outputs.
    let mut setup_failures = 0;
    let rn50_rows: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&[1, 3, 32, 32], &mut rng))
        .collect();
    let mut solo = Vec::new();
    let mut eager = Vec::new();
    for x in &rn50_rows {
        let x = [Value::Tensor(x.clone())];
        solo.push(rn50_int8.run(&x).and_then(Value::into_tensor).map_err(e)?);
        eager.push(rn50.call(&x).and_then(Value::into_tensor).map_err(e)?);
    }
    let batch =
        |v: &[Tensor]| stack_batch(&v.iter().collect::<Vec<_>>()).map_err(|e| e.to_string());
    let sqnr_db_pool = sqnr_db(&batch(&eager)?, &batch(&solo)?);
    if sqnr_db_pool < MIN_SQNR_DB {
        eprintln!("FAILED set-up: rn50_int8 SQNR {sqnr_db_pool:.1} dB < {MIN_SQNR_DB} dB");
        setup_failures += 1;
    }
    let rn50_refs = solo
        .iter()
        .map(|t| t.as_f32().map(<[f32]>::to_vec))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let reco_rows: Vec<Tensor> = (0..32)
        .map(|_| Tensor::rand_uniform(&[1, N_ITEMS], 0.0, 5.0, &mut rng))
        .collect();
    let reco_refs = reco_rows
        .iter()
        .map(|x| {
            let y = reco.call(&[Value::Tensor(x.clone())])?.into_tensor()?;
            Ok(y.as_f32()?.to_vec())
        })
        .collect::<fx_core::Result<Vec<_>>>()
        .map_err(e)?;

    let registry = Registry::builder()
        .workers(workers())
        .build()
        .map_err(|e| e.to_string())?;
    let register = |name: &str, gm: GraphModule, shape: Vec<usize>| {
        registry
            .register_with(name, gm, &[shape], ModelConfig::new())
            .map_err(|e| format!("register {name}: {e}"))
    };
    let rn50_handle = register(MODELS[0], rn50_int8.clone(), vec![1, 3, 32, 32])?;
    let reco_handle = register(MODELS[1], reco_gm, vec![1, N_ITEMS])?;
    let models = [
        Served {
            name: MODELS[0],
            handle: rn50_handle,
            rows: rn50_rows,
            refs: rn50_refs,
        },
        Served {
            name: MODELS[1],
            handle: reco_handle,
            rows: reco_rows,
            refs: reco_refs,
        },
    ];
    // Warm-up: one request of each size to each model, checked.
    for m in &models {
        for rows in 1..=MAX_ROWS {
            let idx: Vec<usize> = (0..rows).collect();
            if let Err(why) = request(m, &idx) {
                eprintln!("FAILED warm-up {} rows {rows}: {why}", m.name);
                setup_failures += 1;
            }
        }
    }
    Ok(State {
        models,
        rn50_int8,
        sqnr_db_pool,
        setup_failures,
        registry,
    })
}

/// Rows `idx` of `m`'s inputs stacked into one request.
fn stack(m: &Served, idx: &[usize]) -> Result<Tensor, String> {
    let parts: Vec<&Tensor> = idx.iter().map(|&i| &m.rows[i]).collect();
    stack_batch(&parts).map_err(|e| e.to_string())
}

/// Send rows `idx` as one request and check the response.
fn request(m: &Served, idx: &[usize]) -> Result<(), String> {
    let out = m
        .handle
        .infer(vec![stack(m, idx)?])
        .map_err(|e| e.to_string())?;
    check(m, idx, &out)
}

/// Check every row of a response bitwise against its reference.
fn check(m: &Served, idx: &[usize], out: &[Tensor]) -> Result<(), String> {
    let y = out.first().ok_or("empty response")?;
    let y = y.as_f32().map_err(|e| e.to_string())?;
    let width = m.refs[0].len();
    if y.len() != idx.len() * width {
        return Err(format!(
            "{} values for {} rows of {width}",
            y.len(),
            idx.len()
        ));
    }
    for (r, &i) in idx.iter().enumerate() {
        if !slices_bitwise_eq(&y[r * width..(r + 1) * width], &m.refs[i]) {
            return Err(format!("row {r} (input {i}) differs from its reference"));
        }
    }
    Ok(())
}

/// One client's closed loop until `deadline`; latencies per model too.
fn client(
    st: &State,
    c: usize,
    args: &Args,
    start: Instant,
    dur: Duration,
    tracer: &Tracer,
) -> (Tally, [Vec<f64>; 2]) {
    let mut draw = args.rng(100 + c as u64);
    let mut tally = Tally::default();
    let mut per_model = [Vec::new(), Vec::new()];
    let mut n = 0u64;
    while start.elapsed() < dur {
        n += 1;
        let op = ((c as u64 + 1) << 32) | n;
        let which = usize::from(draw.gen_range(0..RN50_ONE_IN) != 0);
        let m = &st.models[which];
        let rows = draw.gen_range(1..MAX_ROWS + 1);
        let first = draw.gen_range(0..m.rows.len());
        let idx: Vec<usize> = (0..rows).map(|r| (first + r) % m.rows.len()).collect();
        let x = match stack(m, &idx) {
            Ok(x) => x,
            Err(e) => {
                tally.fail(op, &e);
                continue;
            }
        };
        let t = Instant::now();
        let ctx = Ctx::root(op, c as u32 + 1);
        let out = tracer.span(&format!("serve.infer.{}", m.name), "serve", ctx, |_| {
            m.handle.infer(vec![x])
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match out
            .map_err(|e| e.to_string())
            .and_then(|out| check(m, &idx, &out))
        {
            Ok(()) => {
                tally.pass(ms, rows);
                per_model[which].push(ms);
            }
            Err(why) => tally.fail(op, &format!("{}: {why}", m.name)),
        }
    }
    (tally, per_model)
}

/// All clients for `dur`.
fn measure(st: &State, args: &Args, dur: Duration, tracer: &Tracer) -> (Tally, [Vec<f64>; 2]) {
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..workers())
            .map(|c| s.spawn(move || client(st, c, args, start, dur, tracer)))
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut per_model = [Vec::new(), Vec::new()];
    for (t, pm) in results {
        tally.merge(t);
        for (all, mine) in per_model.iter_mut().zip(pm) {
            all.extend(mine);
        }
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    (tally, per_model)
}

/// Rows served, summed from a batch-size histogram.
fn rows_served(s: &ServeStats) -> f64 {
    s.batch_rows_histogram
        .iter()
        .enumerate()
        .map(|(r, &n)| (r as u64 * n) as f64)
        .sum()
}

/// Serving counters of one model over a phase.
struct Delta {
    batches: f64,
    rows: f64,
    exec_s: f64,
    answered: f64,
    latency_s: f64,
}

impl Delta {
    fn of(before: &ServeStats, after: &ServeStats) -> Delta {
        let answered = |s: &ServeStats| (s.requests_ok + s.requests_err) as f64;
        Delta {
            batches: (after.batches - before.batches) as f64,
            rows: rows_served(after) - rows_served(before),
            exec_s: after.exec_seconds - before.exec_seconds,
            answered: answered(after) - answered(before),
            latency_s: after.mean_latency_s * answered(after)
                - before.mean_latency_s * answered(before),
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    if !args.trace {
        let mut per_model = [Vec::new(), Vec::new()];
        let out = untraced_rounds(
            args,
            || setup(args),
            |st, dur| {
                let (tally, pm) = measure(st, args, dur, &off);
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
    let (untraced, _) = measure(&st, args, args.phase(), &off);
    let tracer = Tracer::new(true);
    let before: Vec<ServeStats> = st.models.iter().map(|m| m.handle.stats()).collect();
    let agg_before = st.registry.stats().aggregate;
    let pool_before = fx_tensor::pool::stats();
    let (traced, per_model) = measure(&st, args, args.phase(), &tracer);
    let mut l = Layers::default();
    l.pool(&pool_before, traced.attempted);
    let agg = st.registry.stats().aggregate;
    print_models(&per_model);

    l.trace_overhead(&untraced, &traced);
    l.set("quant.sqnr_db", st.sqnr_db_pool);
    let deltas: Vec<Delta> = st
        .models
        .iter()
        .zip(&before)
        .map(|(m, b)| Delta::of(b, &m.handle.stats()))
        .collect();
    let exec_total: f64 = deltas.iter().map(|d| d.exec_s).sum();
    const NAMES: [[&str; 7]; 2] = [
        [
            "serve.rn50_int8.p50_ms",
            "serve.rn50_int8.p90_ms",
            "serve.rn50_int8.p99_ms",
            "serve.rn50_int8.mean_batch_rows",
            "serve.rn50_int8.exec_ms_per_batch",
            "serve.rn50_int8.wait_ms",
            "serve.rn50_int8.worker_share",
        ],
        [
            "serve.reco.p50_ms",
            "serve.reco.p90_ms",
            "serve.reco.p99_ms",
            "serve.reco.mean_batch_rows",
            "serve.reco.exec_ms_per_batch",
            "serve.reco.wait_ms",
            "serve.reco.worker_share",
        ],
    ];
    for ((names, d), lat) in NAMES.iter().zip(&deltas).zip(&per_model) {
        if !lat.is_empty() {
            let sorted = stats::sorted(lat.clone());
            for (name, q) in names[..3].iter().zip([0.5, 0.9, 0.99]) {
                l.set(name, stats::quantile(&sorted, q));
            }
        }
        let exec_ms = stats::ratio(d.exec_s, d.batches) * 1e3;
        l.set(names[3], stats::ratio(d.rows, d.batches));
        l.set(names[4], exec_ms);
        l.set(
            names[5],
            stats::ratio(d.latency_s, d.answered) * 1e3 - exec_ms,
        );
        l.set(names[6], stats::ratio(d.exec_s, exec_total));
    }
    l.set(
        "serve.busy_frac",
        stats::ratio(exec_total, workers() as f64 * traced.wall_s),
    );
    l.set(
        "serve.rejected",
        (agg.rejected_queue_full - agg_before.rejected_queue_full) as f64,
    );
    l.set("serve.queue_high_water", agg.queue_high_water as f64);
    let hits = (agg.pool_hits - agg_before.pool_hits) as f64;
    let fresh = (agg.pool_fresh_allocs - agg_before.pool_fresh_allocs) as f64;
    l.set("serve.pool_hit_rate", stats::ratio(hits, hits + fresh));

    // One solo profiled run of the int8 graph at SOLO_ROWS rows, outside
    // the server: where its kernel time goes.
    let mut setup_failures = st.setup_failures;
    let info = GraphInfo::new(&st.rn50_int8);
    let prepared = ExecutorBackend
        .prepare(&st.rn50_int8)
        .map_err(|e| e.to_string())?;
    let idx: Vec<usize> = (0..SOLO_ROWS).collect();
    let x = [Value::Tensor(stack(&st.models[0], &idx)?)];
    let mut sums = ProfileSums::default();
    for run in 0..SOLO_RUNS {
        let start_us = tracer.now_us();
        let (y, prof) = prepared.run_profiled(&x).map_err(|e| e.to_string())?;
        record_run(&tracer, Ctx::root(run as u64 + 1, 0), start_us, &prof);
        sums.add(&info, &prof);
        if let Err(why) = check(
            &st.models[0],
            &idx,
            &[y.into_tensor().map_err(|e| e.to_string())?],
        ) {
            eprintln!("FAILED solo rn50_int8 run {run}: {why}");
            setup_failures += 1;
        }
    }
    l.set("tensor.qconv_ms", sums.kind_ms(Kind::Conv));
    l.set(
        "tensor.quant_boundary_ms",
        sums.kind_ms(Kind::QuantBoundary),
    );

    let snapshot = st.registry.stats();
    eprintln!("{snapshot}");
    crate::finish_trace(
        args,
        &tracer,
        json::Obj::new().int("workers", workers() as u64),
    )?;
    let mut tally = traced;
    tally.merge(untraced);
    Ok(l.finish(tally, setup_failures))
}

fn print_models(per_model: &[Vec<f64>; 2]) {
    for (name, v) in MODELS.iter().zip(per_model) {
        if !v.is_empty() {
            let sorted = stats::sorted(v.clone());
            eprintln!(
                "  {:<10} n={:<6} p50 {:>8.3} ms  p90 {:>8.3} ms  p99 {:>8.3} ms",
                name,
                v.len(),
                stats::quantile(&sorted, 0.5),
                stats::quantile(&sorted, 0.9),
                stats::quantile(&sorted, 0.99)
            );
        }
    }
}
