//! End-to-end and per-layer benchmark of capture, execution and serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rn50_b1 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (all at program defaults; no `FX_*` variable is set):
//!
//! * `rn50_b1` — closed loop, 1 caller: one `[1,3,32,32]` forward of a
//!   traced, untransformed ResNet-50 per op, through
//!   `ExecutorBackend::prepare`. Kernel-bound; the plan cache hits on
//!   every op.
//! * `serve_mix` — closed loop, one client thread per core, into an
//!   `fx_serve::Registry` with one worker per core serving int8
//!   ResNet-50 (1 request in 3) and f32 DeepRecommender(2048), 1–4 rows
//!   per request.
//! * `capture` — closed loop, 1 caller: each op takes one eager model
//!   (ResNet-50, DeepRecommender, LearningToPaint actor, in a seeded
//!   rotation) through trace → conv–BN fusion → shape inference →
//!   lowering → PTQ → recompile → validate → prepare → first forward.
//!
//! Every op's output is checked against references made at set-up,
//! never by the path under test: f32 outputs must equal eager
//! `Module::call` bitwise; served int8 rows must equal a solo run of the
//! same int8 graph bitwise, and that graph must reach 20 dB SQNR against
//! eager f32; a capture's conv–BN-fused forward must stay within a
//! stated tolerance of eager and its int8 forward above 20 dB.
//!
//! With `--trace 0` the run is split into rounds that each set the
//! workload up afresh and then measure it; the last line of standard
//! output is a JSON object holding the end-to-end metrics. With
//! `--trace 1` the run is split into an untraced and a traced half, the
//! spans go to `perfbench/out/trace-<workload>.json`, and the JSON holds
//! the per-layer metrics. A per-layer metric of a layer the workload
//! does not exercise reads 0. The line before the result is the
//! effective configuration; a readable summary goes to standard error.

mod capture;
mod check;
mod config;
mod json;
mod profile;
mod rn50_b1;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fx_tensor::rng::{Rng, SeedableRng, StdRng};

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // rn50_b1: executor and kernels, from run profiles.
    ("core.run_ms", "ms"),
    ("core.dispatch_ms", "ms"),
    ("core.plan_hit_rate", "ratio"),
    ("core.peak_live_mb", "MB"),
    ("tensor.conv_ms", "ms"),
    ("tensor.linear_ms", "ms"),
    ("tensor.bn_ms", "ms"),
    ("tensor.eltwise_ms", "ms"),
    ("tensor.pool_ms", "ms"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.conv_gbps", "GB/s"),
    ("stage.stem_ms", "ms"),
    ("stage.layer1_ms", "ms"),
    ("stage.layer2_ms", "ms"),
    ("stage.layer3_ms", "ms"),
    ("stage.layer4_ms", "ms"),
    ("stage.head_ms", "ms"),
    ("stage.layer4_gflops", "GFLOP/s"),
    ("stage.layer4_gbps", "GB/s"),
    ("passes.roofline_ratio", "ratio"),
    // Every workload: allocator and tracing cost.
    ("tensor.pool_hit_rate", "ratio"),
    ("tensor.fresh_allocs_per_op", "allocs/op"),
    ("bench.trace_overhead_frac", "ratio"),
    // capture: one span per pipeline call, means per op.
    ("core.trace_ms", "ms"),
    ("passes.fuse_ms", "ms"),
    ("passes.infer_shapes_ms", "ms"),
    ("backend.lower_ms", "ms"),
    ("quant.prepare_ms", "ms"),
    ("quant.calibrate_ms", "ms"),
    ("quant.convert_ms", "ms"),
    ("core.recompile_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.first_run_ms", "ms"),
    ("capture.other_ms", "ms"),
    ("core.graph_nodes", "count"),
    ("passes.fused_pairs", "count"),
    ("quant.observers", "count"),
    ("quant.sqnr_db", "dB"),
    // serve_mix: client latencies per model, serving counters.
    ("serve.rn50_int8.p50_ms", "ms"),
    ("serve.rn50_int8.p90_ms", "ms"),
    ("serve.rn50_int8.p99_ms", "ms"),
    ("serve.reco.p50_ms", "ms"),
    ("serve.reco.p90_ms", "ms"),
    ("serve.reco.p99_ms", "ms"),
    ("serve.rn50_int8.mean_batch_rows", "rows"),
    ("serve.rn50_int8.exec_ms_per_batch", "ms"),
    ("serve.rn50_int8.wait_ms", "ms"),
    ("serve.rn50_int8.worker_share", "ratio"),
    ("serve.reco.mean_batch_rows", "rows"),
    ("serve.reco.exec_ms_per_batch", "ms"),
    ("serve.reco.wait_ms", "ms"),
    ("serve.reco.worker_share", "ratio"),
    ("serve.busy_frac", "ratio"),
    ("serve.rejected", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.pool_hit_rate", "ratio"),
    ("tensor.qconv_ms", "ms"),
    ("tensor.quant_boundary_ms", "ms"),
];

const WORKLOADS: &[&str] = &["rn50_b1", "serve_mix", "capture"];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}`; one of {WORKLOADS:?}"
            ));
        }
        let seconds = seconds.unwrap_or(30.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }

    /// The measured span of the run; with tracing each half gets half.
    pub fn phase(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }

    /// A generator for the named input stream of this run's seed.
    pub fn rng(&self, stream: u64) -> StdRng {
        let mut mix = StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        StdRng::seed_from_u64(mix.next_u64())
    }

    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", self.workload))
    }
}

/// Ops attempted in a measured phase: latencies of the ones that
/// passed their check, and the rows they carried.
#[derive(Debug, Default)]
pub struct Tally {
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    pub wall_s: f64,
    /// Part of `wall_s` a single caller spent checking outputs rather
    /// than running ops.
    pub check_s: f64,
}

impl Tally {
    pub fn pass(&mut self, ms: f64, rows: usize) {
        self.attempted += 1;
        self.lat_ms.push(ms);
        self.rows += rows as u64;
    }

    /// Count a failed op and say which one and why.
    pub fn fail(&mut self, op: u64, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED op {op}: {why}");
    }

    pub fn merge(&mut self, other: Tally) {
        self.lat_ms.extend(other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rows += other.rows;
        self.wall_s += other.wall_s;
        self.check_s += other.check_s;
    }

    pub fn p50_ms(&self) -> f64 {
        if self.lat_ms.is_empty() {
            return 0.0;
        }
        stats::median(&self.lat_ms)
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    /// Checks made at set-up (reference agreement) that failed.
    pub setup_failures: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics of layers this workload does not exercise.
    pub idle: Vec<&'static str>,
}

impl Outcome {
    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(tally: Tally, setup_s: f64, setup_failures: u64) -> Result<Outcome, String> {
        let sorted = stats::sorted(tally.lat_ms.clone());
        let (p50, p90) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (stats::quantile(&sorted, 0.5), stats::quantile(&sorted, 0.9))
        };
        let busy_s = tally.wall_s - tally.check_s;
        let metrics = BTreeMap::from([
            ("setup_s", setup_s),
            ("p50_ms", p50),
            ("p90_ms", p90),
            ("ops_per_s", tally.ok() as f64 / busy_s),
            ("rows_per_s", tally.rows as f64 / busy_s),
            ("peak_rss_mb", stats::peak_rss_mb()?),
        ]);
        Ok(Outcome {
            tally,
            setup_failures,
            metrics,
            idle: Vec::new(),
        })
    }
}

/// Per-layer metrics under construction; only names in [`PER_LAYER`].
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric `{name}` is not declared in PER_LAYER"
        );
        self.0.insert(name, v);
    }

    /// Pool counters over a phase, charged per op.
    pub fn pool(&mut self, before: &fx_tensor::pool::PoolStats, ops: u64) {
        let d = fx_tensor::pool::stats().since(before);
        self.set("tensor.pool_hit_rate", d.hit_rate());
        self.set(
            "tensor.fresh_allocs_per_op",
            stats::ratio(d.fresh_allocs as f64, ops as f64),
        );
    }

    /// Traced p50 against the untraced half's p50.
    pub fn trace_overhead(&mut self, untraced: &Tally, traced: &Tally) {
        let frac = stats::ratio(traced.p50_ms(), untraced.p50_ms()) - 1.0;
        self.set("bench.trace_overhead_frac", frac);
    }

    /// Every declared metric, 0 for layers this workload did not use.
    pub fn finish(self, tally: Tally, setup_failures: u64) -> Outcome {
        let metrics = PER_LAYER
            .iter()
            .map(|(n, _)| (*n, self.0.get(n).copied().unwrap_or(0.0)))
            .collect();
        let idle = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.0.contains_key(n))
            .collect();
        Outcome {
            tally,
            setup_failures,
            metrics,
            idle,
        }
    }
}

/// An untraced run in [`SETUP_REPS`] rounds. Each round builds the
/// workload's state afresh (dropping the last one first) and then
/// measures it for an equal share of the run, so the set-ups sample the
/// host across the whole run rather than one moment of it. `setup_s` is
/// the median set-up time.
pub fn untraced_rounds<S>(
    args: &Args,
    mut setup: impl FnMut() -> Result<S, String>,
    mut measure: impl FnMut(&S, Duration) -> Tally,
    setup_failures: impl Fn(&S) -> u64,
) -> Result<Outcome, String> {
    let share = args.phase() / SETUP_REPS as u32;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut tally = Tally::default();
    let mut failures = 0;
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let s = setup()?;
        times.push(t.elapsed().as_secs_f64());
        failures += setup_failures(&s);
        tally.merge(measure(&s, share));
        state = Some(s);
    }
    Outcome::end_to_end(tally, stats::median(&times), failures)
}

/// The registry workers a workload uses, for the config snapshot.
fn registry_workers(workload: &str) -> Option<usize> {
    (workload == "serve_mix").then(serve_mix::workers)
}

/// Write the traced run's spans, with the config snapshot and `extra`
/// under `otherData`, and print the spans with the most self time.
pub fn finish_trace(args: &Args, tracer: &trace::Tracer, extra: json::Obj) -> Result<(), String> {
    let config = config::snapshot(&args.workload, args.seed, registry_workers(&args.workload));
    let path = args.trace_path();
    tracer
        .write_chrome(&path, extra.raw("config", config).finish())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut totals: Vec<_> = tracer.totals().into_iter().collect();
    let spans: u64 = totals.iter().map(|(_, t)| t.count).sum();
    eprintln!("trace: {spans} spans written to {}", path.display());
    totals.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    for (name, t) in totals.iter().take(12) {
        eprintln!(
            "  {name:<32} n={:<7} total {:>10.2} ms  self {:>10.2} ms",
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        );
    }
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn summarize(args: &Args, out: &Outcome) {
    let t = &out.tally;
    eprintln!(
        "{} seed {} ({}): attempted {}, ok {}, failed {} (failed_frac {:.4}); \
         {} latency samples; {} set-up check failures",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        t.attempted,
        t.ok(),
        t.failed,
        stats::ratio(t.failed as f64, t.attempted as f64),
        t.lat_ms.len(),
        out.setup_failures,
    );
    for (name, v) in out.metrics.iter().filter(|(n, _)| !out.idle.contains(n)) {
        eprintln!("  {name:<36} {v:>14.4} {}", unit_of(name));
    }
    if !out.idle.is_empty() {
        eprintln!(
            "  ({} per-layer metrics read 0: layers this workload does not exercise)",
            out.idle.len()
        );
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics = out.metrics.iter().fold(json::Obj::new(), |o, (name, v)| {
        o.raw(
            name,
            json::Obj::new()
                .num("value", *v)
                .str("unit", unit_of(name))
                .finish(),
        )
    });
    json::Obj::new()
        .bool("correct", out.tally.failed == 0 && out.setup_failures == 0)
        .int("attempted", out.tally.attempted + out.setup_failures)
        .int("failed", out.tally.failed + out.setup_failures)
        .raw("metrics", metrics.finish())
        .finish()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "config {}",
        config::snapshot(&args.workload, args.seed, registry_workers(&args.workload))
    );
    let run = match args.workload.as_str() {
        "rn50_b1" => rn50_b1::run(&args),
        "serve_mix" => serve_mix::run(&args),
        _ => capture::run(&args),
    };
    match run {
        Ok(out) => {
            summarize(&args, &out);
            println!("{}", result_json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n))
        {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                text.contains(&decl),
                "{name} must be declared with unit {unit}"
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let a = parse("--workload capture --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.trace), (7, true));
        assert_eq!(a.phase(), Duration::from_secs(5));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload capture --trace 2").is_err());
        assert!(parse("--workload capture --seed").is_err());
        assert_eq!(
            a.rng(3).next_u64(),
            parse("--workload rn50_b1 --seed 7")
                .unwrap()
                .rng(3)
                .next_u64()
        );
    }
}
