//! The profile-once pipeline, run through `camp_bench::Context` (the
//! harness `repro` uses) over the serve workloads' truth set.
//!
//! Per workload: build the op trace, simulate it on SPR2S DRAM-only and
//! on CXL-A, predict the slowdown from the DRAM run, and take Best-shot
//! from the two endpoint runs.

use crate::trace::{Spans, Tracer};
use crate::Metrics;
use camp_bench::{par, Context};
use camp_core::{best_shot, CampPredictor, InterleaveModel, Signature, SlowdownPrediction};
use camp_sim::{DeviceKind, Machine, Platform, RunReport, Workload};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

pub const PLATFORM: Platform = Platform::Spr2s;
pub const DEVICE: DeviceKind = DeviceKind::CxlA;

/// The family of a suite workload (`spec.603.bwaves-8t` → `spec`).
pub fn family(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// One workload through the pipeline.
pub struct Item {
    pub name: String,
    pub ops: usize,
    pub dram: Arc<RunReport>,
    pub slow: Arc<RunReport>,
    components: SlowdownPrediction,
    predicted: f64,
    model: InterleaveModel,
    best: f64,
    best_ratio: f64,
    pub latency_s: f64,
}

fn pipeline(
    ctx: &Context,
    predictor: &CampPredictor,
    workload: &dyn Workload,
    tracer: &Tracer,
) -> Item {
    let name = workload.name();
    let start = Instant::now();
    let trace = tracer.span("workloads", "trace_gen", name, || ctx.traces().trace(workload));
    let dram = tracer.span("sim", "run.dram", name, || ctx.run(PLATFORM, None, workload));
    let slow = tracer.span("sim", "run.cxl", name, || ctx.run(PLATFORM, Some(DEVICE), workload));
    let signature = tracer.span("core", "signature", name, || Signature::from_report(&dram));
    let (components, predicted) = tracer.span("core", "predict", name, || {
        (
            predictor.predict_signature(&signature),
            predictor.predict_total_saturated(&dram),
        )
    });
    let (model, shot) = tracer.span("core", "best_shot", name, || {
        let model = InterleaveModel::from_endpoint_runs(&dram, &slow);
        let shot = best_shot(&model);
        (model, shot)
    });
    Item {
        name: name.to_string(),
        ops: trace.len(),
        dram,
        slow,
        components,
        predicted,
        model,
        best: shot.predicted_slowdown,
        best_ratio: shot.ratio,
        latency_s: start.elapsed().as_secs_f64(),
    }
}

/// One pass over `members` of the suite on a fresh context (no cached
/// runs).
pub struct Pass {
    pub wall_s: f64,
    pub items: Vec<Item>,
    pub failed: usize,
    trace_mb: f64,
    cache_hit_ratio: f64,
    jobs: usize,
}

pub fn pass(
    suite: &[Box<dyn Workload>],
    members: &[usize],
    predictor: &CampPredictor,
    tracer: &Tracer,
) -> Pass {
    let ctx = Context::new().with_jobs(par::default_jobs());
    let start = Instant::now();
    let results = tracer.root("bench", "pass:truth", |root| {
        par::par_map(ctx.jobs(), members, |&index| {
            tracer.with_parent(root, || {
                let workload: &dyn Workload = suite[index].as_ref();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pipeline(&ctx, predictor, workload, tracer)
                }))
                .map_err(|_| workload.name().to_string())
            })
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    let traces = ctx.traces();
    let failed = results.iter().filter(|r| r.is_err()).count();
    Pass {
        wall_s,
        items: results.into_iter().filter_map(Result::ok).collect(),
        failed,
        trace_mb: traces.packed_bytes() as f64 / (1 << 20) as f64,
        cache_hit_ratio: traces.hits() as f64 / traces.requests().max(1) as f64,
        jobs: ctx.jobs(),
    }
}

/// Checks one item against properties the method must have; returns the
/// problems found.
pub fn check_item(item: &Item) -> Vec<String> {
    let mut problems = Vec::new();
    let name = &item.name;
    if item.dram.instructions != item.slow.instructions {
        problems.push(format!(
            "{name}: DRAM run retired {} instructions, CXL-A run {}",
            item.dram.instructions, item.slow.instructions
        ));
    }
    let c = item.components;
    let parts = [c.drd, c.cache, c.store, c.total(), item.predicted];
    if parts.iter().any(|v| !v.is_finite()) {
        problems.push(format!("{name}: non-finite prediction {c:?}"));
    }
    let sum = c.drd + c.cache + c.store;
    if (sum - c.total()).abs() > 1e-12 * sum.abs().max(1.0) {
        problems.push(format!("{name}: components sum to {sum}, total is {}", c.total()));
    }
    let tolerance = 1e-12;
    for ratio in [0.0, 1.0] {
        let at = item.model.predict_total(ratio);
        if item.best > at + tolerance {
            problems.push(format!(
                "{name}: Best-shot {} is worse than the model's {at} at ratio {ratio}",
                item.best
            ));
        }
    }
    if !(0.0..=1.0).contains(&item.best_ratio) {
        problems.push(format!("{name}: Best-shot ratio {} outside [0, 1]", item.best_ratio));
    }
    problems
}

/// The cached-trace DRAM run of `item` must equal a plain `Machine::run`
/// of the same workload.
pub fn check_plain_run(item: &Item, workload: &dyn Workload) -> Option<String> {
    let plain = Machine::dram_only(PLATFORM).run(workload);
    let same = plain.cycles.to_bits() == item.dram.cycles.to_bits()
        && plain.instructions == item.dram.instructions
        && plain.counters == item.dram.counters;
    (!same).then(|| {
        format!(
            "{}: cached-trace run ({} cycles) differs from a plain run ({} cycles)",
            item.name, item.dram.cycles, plain.cycles
        )
    })
}

/// Per-layer metrics of a traced pass: trace generation, simulation per
/// tier and per family, the prediction calls, and the harness.
pub fn layer_metrics(pass: &Pass, spans: &Spans, layer: &mut Metrics) {
    let ops_of: HashMap<&str, usize> =
        pass.items.iter().map(|item| (item.name.as_str(), item.ops)).collect();
    let mut family_ns: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for stage in ["run.dram", "run.cxl"] {
        for (name, ns) in spans.stage("sim", stage) {
            let entry = family_ns.entry(family(name).to_string()).or_default();
            entry.0 += ns;
            entry.1 += ops_of.get(name.as_str()).copied().unwrap_or(0);
        }
    }
    for (family, (ns, ops)) in family_ns {
        layer.insert(format!("sim.ns_per_op.{family}"), ns / ops.max(1) as f64);
    }
    let busy_s: f64 = pass.items.iter().map(|item| item.latency_s).sum();
    let trace_ops: usize = pass.items.iter().map(|item| item.ops).sum();
    layer.extend([
        ("workloads.trace_gen_s".into(), spans.total_s("workloads", "trace_gen")),
        ("workloads.trace_ops".into(), trace_ops as f64),
        ("workloads.trace_mb".into(), pass.trace_mb),
        ("sim.run_s.dram".into(), spans.total_s("sim", "run.dram")),
        ("sim.run_s.cxl".into(), spans.total_s("sim", "run.cxl")),
        ("core.signature_us".into(), spans.mean_us("core", "signature")),
        ("core.predict_us".into(), spans.mean_us("core", "predict")),
        ("core.best_shot_us".into(), spans.mean_us("core", "best_shot")),
        ("bench.par_efficiency".into(), busy_s / (pass.wall_s * pass.jobs as f64)),
        ("bench.trace_cache_hit_ratio".into(), pass.cache_hit_ratio),
    ]);
}
