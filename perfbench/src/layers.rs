//! Per-layer metrics from the spans of a traced run.
//!
//! Layers are the workspace crates. `*_calls`, `*_busy_ms` and `*_self_ms`
//! are per protocol round (totals over the workload's scenarios ÷ their
//! rounds); `*_busy_ms` sums call durations, so parallel calls can add up to
//! more than the wall time they cover; `*_self_ms` is a span's duration minus
//! the union of its children's intervals; `*_parallelism` is busy time ÷ the
//! wall time the calls cover (1.0 = serial). `data.build_setup_ms`,
//! `models.build_clients_ms` and `scenarios.utility_ms` are per scenario.

use crate::spans::{self_times, union_len, Seam, Span};
use crate::stats::{quantile, tail_quantile};
use cia_scenarios::json::{Json, ObjBuilder};

/// The spans and protocol counters of one traced scenario.
#[derive(Debug)]
pub struct ScenarioTrace {
    /// Whether the scenario ran FedAvg (else gossip).
    pub fl: bool,
    /// Protocol rounds run.
    pub rounds: u64,
    /// Every span, sorted by id.
    pub spans: Vec<Span>,
    /// `bytes_materialized` summed over the rounds.
    pub bytes_materialized: u64,
    /// Model deliveries summed over the rounds.
    pub deliveries: u64,
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Every per-layer metric the traced run reports, in output order, with its
/// unit. `obs.recorder_overhead_pct` and `trace.overhead_pct` are measured
/// by the run itself rather than derived from spans.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("data.build_setup_ms", "ms"),
    ("models.build_clients_ms", "ms"),
    ("models.fed_round_calls", "count"),
    ("models.fed_round_busy_ms", "ms"),
    ("models.fed_round_us_p50", "us"),
    ("models.fed_round_us_p99", "us"),
    ("models.accumulate_busy_ms", "ms"),
    ("models.train_parallelism", "ratio"),
    ("models.train_local_calls", "count"),
    ("models.train_local_busy_ms", "ms"),
    ("models.mix_agg_busy_ms", "ms"),
    ("models.snapshot_busy_ms", "ms"),
    ("models.evaluate_model_calls", "count"),
    ("models.evaluate_model_busy_ms", "ms"),
    ("defenses.transform_calls", "count"),
    ("defenses.transform_busy_ms", "ms"),
    ("defenses.transform_us_p50", "us"),
    ("federated.round_ms_p50", "ms"),
    ("federated.bytes_materialized", "B"),
    ("runtime.fl_self_ms", "ms"),
    ("gossip.round_ms_p50", "ms"),
    ("gossip.deliveries", "count"),
    ("gossip.bytes_materialized", "B"),
    ("runtime.gossip_self_ms", "ms"),
    ("core.attack_update_calls", "count"),
    ("core.attack_update_busy_ms", "ms"),
    ("core.attack_update_us_p50", "us"),
    ("core.attack_prepare_calls", "count"),
    ("core.attack_prepare_ms", "ms"),
    ("core.attack_score_calls", "count"),
    ("core.attack_score_busy_ms", "ms"),
    ("core.attack_score_parallelism", "ratio"),
    ("core.attack_rank_self_ms", "ms"),
    ("core.attack_eval_ms_p50", "ms"),
    ("scenarios.utility_ms", "ms"),
    ("obs.recorder_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One span with what the metrics select on.
#[derive(Clone, Copy)]
struct Sel {
    span: Span,
    self_ns: u64,
    /// Index of the scenario it ran in: each scenario's tracer has its own
    /// epoch, so intervals compare only within a scenario.
    scenario: usize,
    /// Whether the scenario ran FedAvg.
    fl: bool,
    /// Whether the protocol round called it directly.
    in_round: bool,
}

const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

fn busy_ns(sel: &[Sel]) -> f64 {
    sel.iter().map(|s| s.span.dur()).sum::<u64>() as f64
}

fn self_ns(sel: &[Sel]) -> f64 {
    sel.iter().map(|s| s.self_ns).sum::<u64>() as f64
}

fn durations(sel: &[Sel], per: f64) -> Vec<f64> {
    sel.iter().map(|s| s.span.dur() as f64 / per).collect()
}

fn parallelism(sel: &[Sel]) -> f64 {
    let mut iv: Vec<(usize, u64, u64)> =
        sel.iter().map(|s| (s.scenario, s.span.start, s.span.end)).collect();
    iv.sort_unstable();
    let mut wall = 0;
    for group in iv.chunk_by(|a, b| a.0 == b.0) {
        let mut g: Vec<(u64, u64)> = group.iter().map(|&(_, s, e)| (s, e)).collect();
        wall += union_len(&mut g);
    }
    if wall == 0 {
        0.0
    } else {
        busy_ns(sel) / wall as f64
    }
}

/// The per-layer metrics of a traced run, the sample counts behind every
/// percentile, and a table of where a round's wall time went.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The span-based per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Per percentile metric: samples, and the highest percentile with at
    /// least ten samples beyond it.
    pub percentiles: Json,
    /// Every seam the protocol round calls directly, with its busy ms per
    /// round and share of the round, then the round's unattributed self time.
    pub breakdown: Vec<String>,
}

/// Analyses the spans of a workload's traced scenarios.
#[must_use]
pub fn analyse(traces: &[ScenarioTrace]) -> Analysis {
    let mut all = Vec::new();
    for (scenario, t) in traces.iter().enumerate() {
        let selfs = self_times(&t.spans);
        for (s, &self_ns) in t.spans.iter().zip(&selfs) {
            let in_round = s.parent != 0 && t.spans[s.parent as usize - 1].seam == Seam::Round;
            all.push(Sel { span: *s, self_ns, scenario, fl: t.fl, in_round });
        }
    }
    let pick =
        |f: &dyn Fn(&Sel) -> bool| -> Vec<Sel> { all.iter().filter(|s| f(s)).copied().collect() };
    let seam = |seam: Seam| pick(&|s| s.span.seam == seam);
    // `seam_in(.., true)` keeps FedAvg scenarios only, `false` gossip only.
    let seam_in = |seam: Seam, fl: bool| pick(&|s| s.span.seam == seam && s.fl == fl);

    let rounds = traces.iter().map(|t| t.rounds).sum::<u64>().max(1) as f64;
    let scenarios = traces.len().max(1) as f64;
    let per_round = |sel: &[Sel]| busy_ns(sel) / NS_PER_MS / rounds;
    let self_per_round = |sel: &[Sel]| self_ns(sel) / NS_PER_MS / rounds;
    let calls = |sel: &[Sel]| sel.len() as f64 / rounds;
    let per_scenario = |sel: &[Sel]| busy_ns(sel) / NS_PER_MS / scenarios;
    let mut pct = ObjBuilder::new();
    let mut percentile = |name: &str, values: &[f64]| {
        let mut o = ObjBuilder::new().num("samples", values.len() as f64);
        if let Some((label, q)) = tail_quantile(values.len()) {
            o = o.str("tail", label).num("tail_value", quantile(values, q));
        }
        pct = std::mem::take(&mut pct).value(name, o.build());
    };

    // The FL client's training calls: `fed_round`, or under an update
    // transform (DP), where FedAvg trains through `absorb_agg` +
    // `train_local` instead, the `train_local` calls the round makes.
    let fed = pick(&|s| {
        s.fl && (s.span.seam == Seam::FedRound || (s.span.seam == Seam::TrainLocal && s.in_round))
    });
    let train_local = seam_in(Seam::TrainLocal, false);
    let training: Vec<Sel> = fed.iter().chain(&train_local).copied().collect();
    let evaluate_model = seam_in(Seam::EvaluateModel, false);
    let transform = seam(Seam::Transform);
    let fl_round = seam_in(Seam::Round, true);
    let gl_round = seam_in(Seam::Round, false);
    let update = seam(Seam::AttackUpdate);
    let prepare = seam(Seam::AttackPrepare);
    let score = seam(Seam::AttackScore);
    let eval = seam(Seam::AttackEval);
    let fl_bytes: u64 = traces.iter().filter(|t| t.fl).map(|t| t.bytes_materialized).sum();
    let gl_bytes: u64 = traces.iter().filter(|t| !t.fl).map(|t| t.bytes_materialized).sum();
    let deliveries: u64 = traces.iter().map(|t| t.deliveries).sum();

    let fed_us = durations(&fed, NS_PER_US);
    percentile("models.fed_round_us", &fed_us);
    let transform_us = durations(&transform, NS_PER_US);
    percentile("defenses.transform_us", &transform_us);
    let fl_round_ms = durations(&fl_round, NS_PER_MS);
    percentile("federated.round_ms", &fl_round_ms);
    let gl_round_ms = durations(&gl_round, NS_PER_MS);
    percentile("gossip.round_ms", &gl_round_ms);
    let update_us = durations(&update, NS_PER_US);
    percentile("core.attack_update_us", &update_us);
    let eval_ms = durations(&eval, NS_PER_MS);
    percentile("core.attack_eval_ms", &eval_ms);

    let values: Vec<(&'static str, f64)> = vec![
        ("data.build_setup_ms", per_scenario(&seam(Seam::Setup))),
        ("models.build_clients_ms", per_scenario(&seam(Seam::BuildClients))),
        ("models.fed_round_calls", calls(&fed)),
        ("models.fed_round_busy_ms", per_round(&fed)),
        ("models.fed_round_us_p50", quantile(&fed_us, 0.5)),
        ("models.fed_round_us_p99", quantile(&fed_us, 0.99)),
        ("models.accumulate_busy_ms", per_round(&seam(Seam::Accumulate))),
        ("models.train_parallelism", parallelism(&training)),
        ("models.train_local_calls", calls(&train_local)),
        ("models.train_local_busy_ms", per_round(&train_local)),
        ("models.mix_agg_busy_ms", per_round(&seam_in(Seam::MixAgg, false))),
        ("models.snapshot_busy_ms", per_round(&seam_in(Seam::Snapshot, false))),
        ("models.evaluate_model_calls", calls(&evaluate_model)),
        ("models.evaluate_model_busy_ms", per_round(&evaluate_model)),
        ("defenses.transform_calls", calls(&transform)),
        ("defenses.transform_busy_ms", per_round(&transform)),
        ("defenses.transform_us_p50", quantile(&transform_us, 0.5)),
        ("federated.round_ms_p50", quantile(&fl_round_ms, 0.5)),
        ("federated.bytes_materialized", fl_bytes as f64 / rounds),
        ("runtime.fl_self_ms", self_per_round(&fl_round)),
        ("gossip.round_ms_p50", quantile(&gl_round_ms, 0.5)),
        ("gossip.deliveries", deliveries as f64 / rounds),
        ("gossip.bytes_materialized", gl_bytes as f64 / rounds),
        ("runtime.gossip_self_ms", self_per_round(&gl_round)),
        ("core.attack_update_calls", calls(&update)),
        ("core.attack_update_busy_ms", per_round(&update)),
        ("core.attack_update_us_p50", quantile(&update_us, 0.5)),
        ("core.attack_prepare_calls", calls(&prepare)),
        ("core.attack_prepare_ms", per_round(&prepare)),
        ("core.attack_score_calls", calls(&score)),
        ("core.attack_score_busy_ms", per_round(&score)),
        ("core.attack_score_parallelism", parallelism(&score)),
        ("core.attack_rank_self_ms", self_per_round(&eval)),
        ("core.attack_eval_ms_p50", quantile(&eval_ms, 0.5)),
        ("scenarios.utility_ms", per_scenario(&seam(Seam::Utility))),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, value)| Metric { name, value, unit: unit_of(name) })
        .collect();

    // Round breakdown: what each round's direct callees took, and the rest.
    let round = seam(Seam::Round);
    let wall = busy_ns(&round);
    let mut by_seam: Vec<(Seam, f64)> = Vec::new();
    for s in all.iter().filter(|s| s.in_round) {
        match by_seam.iter_mut().find(|(seam, _)| *seam == s.span.seam) {
            Some((_, ns)) => *ns += s.span.dur() as f64,
            None => by_seam.push((s.span.seam, s.span.dur() as f64)),
        }
    }
    by_seam.sort_by(|a, b| b.1.total_cmp(&a.1));
    let row = |name: String, ns: f64, note: &str| {
        let share = if wall > 0.0 { 100.0 * ns / wall } else { 0.0 };
        format!("  {name:<18} {:>10.3} ms/round  {share:>5.1}%  {note}", ns / NS_PER_MS / rounds)
    };
    let mut breakdown = vec![format!(
        "round wall time: {:.3} ms/round over {rounds} rounds",
        wall / NS_PER_MS / rounds
    )];
    for (seam, ns) in by_seam {
        breakdown.push(row(format!("{seam:?}"), ns, "(busy; parallel calls add up)"));
    }
    breakdown.push(row(
        "unattributed".to_string(),
        self_ns(&round),
        "(runtime self: scheduler, sampling, aggregation)",
    ));
    Analysis { metrics, percentiles: pct.build(), breakdown }
}

/// The unit of a per-layer metric.
///
/// # Panics
///
/// Panics on a name missing from [`PER_LAYER`].
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}
