//! The two kinds of benchmark run.
//!
//! * End to end (`--trace 0`): a closed loop — one process runs the
//!   workload's scenarios through `cia_scenarios::run_scenario` one after
//!   another, each scenario run being one operation, for a fixed number of
//!   cycles sized from the requested seconds. Every run is checked: it must return `Ok`, not panic, stream
//!   JSONL that passes `validate_jsonl`, and reproduce the AAC history and
//!   utility of the first run of the same spec bit for bit.
//! * Traced (`--trace 1`): per scenario, one untraced `run_scenario`, then
//!   the pipeline rebuilt from public parts ([`crate::rebuild`]) three times —
//!   with the span recorder, and untraced with the program's `Recorder`
//!   detail on and off. Each rebuilt run must reproduce `run_scenario`'s
//!   history and utility bit for bit (the equality gate).

use crate::clock;
use crate::layers::{self, Metric, ScenarioTrace};
use crate::rebuild::{self, Instruments, Rebuilt};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::Workload;
use cia_core::RoundPoint;
use cia_data::presets::Scale;
use cia_scenarios::json::{Json, ObjBuilder};
use cia_scenarios::runner::validate_jsonl;
use cia_scenarios::{
    peak_rss_bytes, run_scenario, try_build_setup, ProtocolKind, RunOptions, ScenarioOutcome,
    ScenarioSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Suite name stamped on the benchmark's JSONL records.
const SUITE: &str = "perfbench";

/// `try_build_setup` calls per end-to-end run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 7;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every scenario spec is built from it.
    pub seed: u64,
    /// Measurement budget of an end-to-end run, in seconds (converted to a
    /// fixed cycle count by `Workload::cycles`).
    pub seconds: f64,
    /// Run the traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Dataset scale (`Scale::Paper` for the benchmark, `Scale::Smoke` for
    /// its smoke test).
    pub scale: Scale,
}

/// A finished run: the result line's fields plus human-readable lines.
#[derive(Debug, Clone)]
pub struct Report {
    /// No operation failed and every check passed.
    pub correct: bool,
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Scenario runs that failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Provenance: host, toolchain, seed, rounds and percentile sample counts.
    pub provenance: Json,
    /// Human-readable lines printed ahead of the result.
    pub lines: Vec<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> Json {
        let mut metrics = ObjBuilder::new();
        for m in &self.metrics {
            let v = ObjBuilder::new().num("value", m.value).str("unit", m.unit).build();
            metrics = metrics.value(m.name, v);
        }
        ObjBuilder::new()
            .bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .value("metrics", metrics.build())
            .build()
    }

    /// The metric named `name`, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Runs the benchmark as configured.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    if cfg.trace {
        traced(cfg)
    } else {
        end_to_end(cfg)
    }
}

/// The bits of what a scenario computed: every history point and the
/// utility. Two runs agree when their digests are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest {
    points: Vec<[u64; 5]>,
    utility: Option<u64>,
}

impl Digest {
    fn of(history: &[RoundPoint], utility: Option<f64>) -> Self {
        Digest {
            points: history
                .iter()
                .map(|p| {
                    [
                        p.round,
                        p.aac.to_bits(),
                        p.best10.to_bits(),
                        p.upper_bound.to_bits(),
                        p.upper_bound_online.to_bits(),
                    ]
                })
                .collect(),
            utility: utility.map(f64::to_bits),
        }
    }
}

/// Failure accounting across a run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// The first failure reasons (bounded so a broken run prints little).
    reasons: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// One checked `run_scenario` call and its wall time.
fn run_checked(
    spec: &ScenarioSpec,
    stop_after: Option<u64>,
) -> Result<(ScenarioOutcome, Duration), String> {
    // Timing on, as `scenario run` defaults to: the trace records are part
    // of the emit cost a user pays.
    let opts = RunOptions { timing: true, stop_after_rounds: stop_after, ..RunOptions::default() };
    let mut sink = Vec::new();
    let t0 = clock::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_scenario(spec, SUITE, &opts, &mut sink)));
    let elapsed = t0.elapsed();
    let outcome = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return Err(format!("{}: run_scenario failed: {e}", spec.name)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            return Err(format!("{}: run_scenario panicked: {msg}", spec.name));
        }
    };
    let text =
        String::from_utf8(sink).map_err(|e| format!("{}: JSONL is not UTF-8: {e}", spec.name))?;
    let (evals, summaries) =
        validate_jsonl(&text).map_err(|e| format!("{}: invalid JSONL: {e}", spec.name))?;
    let complete = stop_after.is_none();
    if evals != outcome.attack.history.len()
        || summaries != usize::from(complete)
        || outcome.completed != complete
        || outcome.utility.is_some() != complete
    {
        return Err(format!(
            "{}: stream/outcome mismatch ({evals} evals, {summaries} summaries, {} points, completed {})",
            spec.name,
            outcome.attack.history.len(),
            outcome.completed
        ));
    }
    Ok((outcome, elapsed))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn end_to_end(cfg: &Config) -> Report {
    let specs = cfg.workload.specs(cfg.scale, cfg.seed);
    let stop = cfg.workload.stop_after(cfg.scale);
    let mut ledger = Ledger::default();

    let first = &specs[0];
    let mut setup_times = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t0 = clock::now();
        let setup = try_build_setup(first.preset, first.scale, first.k_override, first.seed);
        setup_times.push(secs(t0.elapsed()));
        if let Err(e) = std::hint::black_box(setup) {
            ledger.fail(format!("{}: try_build_setup failed: {e}", first.name));
        }
    }

    // Closed loop over a fixed number of whole cycles of the workload's
    // scenarios, sized from the budget (see `Workload::cycles`): every run
    // of a workload does the same work, so its cold/warm mix and its peak
    // RSS do not depend on how fast the host happened to be.
    let cycles = cfg.workload.cycles(cfg.seconds);
    let mut reference: Vec<Option<(Digest, ScenarioOutcome)>> = vec![None; specs.len()];
    let (mut rounds, mut busy) = (0u64, 0.0f64);
    let mut scenario_secs = Vec::new();
    for _ in 0..cycles {
        for (i, spec) in specs.iter().enumerate() {
            ledger.attempted += 1;
            match run_checked(spec, stop) {
                Ok((outcome, elapsed)) => {
                    busy += secs(elapsed);
                    scenario_secs.push(secs(elapsed));
                    rounds += outcome.rounds_done;
                    let digest = Digest::of(&outcome.attack.history, outcome.utility);
                    match &reference[i] {
                        None => reference[i] = Some((digest, outcome)),
                        Some((first, _)) if *first == digest => {}
                        Some(_) => ledger.fail(format!(
                            "{}: AAC history or utility differs from the first run",
                            spec.name
                        )),
                    }
                }
                Err(e) => ledger.fail(e),
            }
        }
    }

    let outcomes: Vec<&ScenarioOutcome> = reference.iter().flatten().map(|(_, o)| o).collect();
    let complete = outcomes.len() == specs.len();
    let n = outcomes.len().max(1) as f64;
    let max_aac = 100.0 * outcomes.iter().map(|o| o.attack.max_aac).sum::<f64>() / n;
    let hr20 = (stop.is_none() && complete)
        .then(|| outcomes.iter().map(|o| o.utility.unwrap_or(0.0)).sum::<f64>() / n);
    let rss = peak_rss_bytes();
    if rss.is_none() {
        ledger.fail("peak RSS is unavailable on this host".to_string());
    }
    let failed_share = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    let metrics = vec![
        Metric { name: "setup_s", value: median(&setup_times), unit: "s" },
        Metric {
            name: "rounds_per_s",
            value: rounds as f64 / busy.max(f64::MIN_POSITIVE),
            unit: "rounds/s",
        },
        Metric { name: "peak_rss_mib", value: rss.unwrap_or(0) as f64 / 1_048_576.0, unit: "MiB" },
        Metric { name: "max_aac", value: max_aac, unit: "%" },
    ];

    let mut lines = vec![format!(
        "{} seed {}: {} scenario runs in {} cycles, {} rounds in {:.3} s of run_scenario time",
        cfg.workload.name(),
        cfg.seed,
        ledger.attempted,
        cycles,
        rounds,
        busy
    )];
    for m in &metrics {
        lines.push(format!("{:<14} {:>14.6} {}", m.name, m.value, m.unit));
    }
    lines.push(match hr20 {
        Some(v) => format!("{:<14} {v:>14.6} ratio", "hr20"),
        None => format!("{:<14} {:>14} (prefix runs compute no utility)", "hr20", "n/a"),
    });
    lines.push(format!(
        "{:<14} {failed_share:>14.6} ratio ({} of {} runs failed)",
        "failed_share", ledger.failed, ledger.attempted
    ));
    lines.extend(ledger.reasons.iter().map(|r| format!("FAILED: {r}")));

    let correct = ledger.failed == 0
        && complete
        && metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0);
    let provenance = provenance(cfg, &specs, stop)
        .num("cycles", cycles as f64)
        .num("scenario_runs", ledger.attempted as f64)
        .num("setup_samples", setup_times.len() as f64)
        .value("scenario_s", Json::Arr(scenario_secs.iter().map(|&s| Json::Num(s)).collect()))
        .num("hr20", hr20.unwrap_or(f64::NAN))
        .num("failed_share", failed_share)
        .build();
    Report {
        correct,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        provenance,
        lines,
    }
}

fn traced(cfg: &Config) -> Report {
    let specs = cfg.workload.specs(cfg.scale, cfg.seed);
    let stop = cfg.workload.stop_after(cfg.scale);
    let mut ledger = Ledger::default();
    let mut traces = Vec::new();
    let (mut t_ref, mut t_traced, mut t_on, mut t_off) = (0.0, 0.0, 0.0, 0.0);
    for spec in &specs {
        ledger.attempted += 1;
        let reference = match run_checked(spec, stop) {
            Ok((outcome, elapsed)) => {
                t_ref += secs(elapsed);
                Digest::of(&outcome.attack.history, outcome.utility)
            }
            Err(e) => {
                ledger.fail(e);
                continue;
            }
        };
        let tracer = Tracer::new();
        let traced = Instruments { tracer: Some(tracer.clone()), recorder_detail: true };
        if let Some(r) = rebuilt_checked(spec, stop, &traced, "traced", &reference, &mut ledger) {
            t_traced += secs(r.elapsed);
            traces.push(trace_of(spec, &r, tracer.take()));
        }
        let off = Instruments { tracer: None, recorder_detail: false };
        if let Some(r) = rebuilt_checked(spec, stop, &off, "detail-off", &reference, &mut ledger) {
            t_off += secs(r.elapsed);
        }
        let on = Instruments { tracer: None, recorder_detail: true };
        if let Some(r) = rebuilt_checked(spec, stop, &on, "detail-on", &reference, &mut ledger) {
            t_on += secs(r.elapsed);
        }
    }
    let layers::Analysis { mut metrics, percentiles, breakdown } = layers::analyse(&traces);
    let pct = |a: f64, b: f64| if b > 0.0 { 100.0 * (a - b) / b } else { 0.0 };
    metrics.push(Metric {
        name: "obs.recorder_overhead_pct",
        value: pct(t_on, t_off),
        unit: layers::unit_of("obs.recorder_overhead_pct"),
    });
    // Like for like: the traced rebuild against the same rebuilt loop with
    // the wrappers silent and the recorder on, as `run_scenario` runs it.
    metrics.push(Metric {
        name: "trace.overhead_pct",
        value: pct(t_traced, t_on),
        unit: layers::unit_of("trace.overhead_pct"),
    });

    let mut lines = vec![format!(
        "{} seed {} traced: run_scenario {t_ref:.3} s, traced rebuild {t_traced:.3} s, \
         recorder detail on {t_on:.3} s / off {t_off:.3} s",
        cfg.workload.name(),
        cfg.seed
    )];
    lines.extend(breakdown);
    for m in &metrics {
        lines.push(format!("{:<32} {:>16.6} {}", m.name, m.value, m.unit));
    }
    lines.extend(ledger.reasons.iter().map(|r| format!("FAILED: {r}")));
    let correct = ledger.failed == 0
        && traces.len() == specs.len()
        && metrics.iter().all(|m| m.value.is_finite());
    let provenance = provenance(cfg, &specs, stop)
        .num("scenario_runs", ledger.attempted as f64)
        .value("percentiles", percentiles)
        .build();
    Report {
        correct,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        provenance,
        lines,
    }
}

/// One rebuilt run, counted in `ledger` and held to the equality gate:
/// its AAC history and utility must equal `run_scenario`'s (`reference`).
/// `None` when the run itself failed.
fn rebuilt_checked(
    spec: &ScenarioSpec,
    stop: Option<u64>,
    inst: &Instruments,
    label: &str,
    reference: &Digest,
    ledger: &mut Ledger,
) -> Option<Rebuilt> {
    ledger.attempted += 1;
    let rebuilt = match rebuild::run(spec, stop, inst) {
        Ok(r) => r,
        Err(e) => {
            ledger.fail(format!("{}: rebuilt {label} run failed: {e}", spec.name));
            return None;
        }
    };
    if Digest::of(&rebuilt.history, rebuilt.utility) != *reference {
        ledger.fail(format!(
            "{}: equality gate: the rebuilt {label} run's AAC history or utility differs from \
             run_scenario's",
            spec.name
        ));
    }
    Some(rebuilt)
}

fn trace_of(
    spec: &ScenarioSpec,
    rebuilt: &Rebuilt,
    spans: Vec<crate::spans::Span>,
) -> ScenarioTrace {
    ScenarioTrace {
        fl: spec.protocol == ProtocolKind::Fl,
        rounds: rebuilt.rounds,
        spans,
        bytes_materialized: rebuilt.bytes_materialized.iter().sum(),
        deliveries: rebuilt.deliveries.iter().sum(),
    }
}

/// Host, toolchain and workload provenance shared by both kinds of run.
fn provenance(cfg: &Config, specs: &[ScenarioSpec], stop: Option<u64>) -> ObjBuilder {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rounds: Vec<Json> = specs
        .iter()
        .map(|s| {
            let total = cia_scenarios::ScaleParams::of(s.scale).rounds(s.protocol);
            Json::Num(stop.map_or(total, |n| n.min(total)) as f64)
        })
        .collect();
    let names: Vec<Json> = specs.iter().map(|s| Json::Str(s.name.clone())).collect();
    ObjBuilder::new()
        .str("workload", cfg.workload.name())
        .num("seed", cfg.seed as f64)
        .str("scale", &cfg.scale.to_string())
        .bool("trace", cfg.trace)
        .num("seconds", cfg.seconds)
        .num("cores", cores as f64)
        .num("cia_threads", cia_models::parallel::num_threads() as f64)
        .str("rustc", &tool_output("rustc", &["--version"]))
        .str("commit", &git_commit())
        .value("scenarios", Json::Arr(names))
        .value("rounds_per_scenario_run", Json::Arr(rounds))
}

/// First line of a tool's output, or `unknown`.
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs in; `unknown` when the
/// working directory is not the top of a git checkout.
fn git_commit() -> String {
    let top = tool_output("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().ok().and_then(|d| d.canonicalize().ok());
    let top = std::path::Path::new(&top).canonicalize().ok();
    if top.is_some() && top == here {
        tool_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}
