//! The benchmark's own smoke test: every workload's code path once at
//! `Scale::Smoke`, end to end and traced (including the equality gate), and
//! `BENCHMARK.json` checked against the metrics the code reports.

use cia_data::presets::Scale;
use cia_perfbench::layers::PER_LAYER;
use cia_perfbench::{run, Config, Report, Workload};
use cia_scenarios::json::Json;

fn smoke(workload: Workload, trace: bool) -> Report {
    // A tiny budget still runs one whole cycle of the workload's scenarios.
    let cfg = Config { workload, seed: 7, seconds: 1e-3, trace, scale: Scale::Smoke };
    let report = run(&cfg);
    assert!(report.correct, "{} (trace {trace}): {:#?}", workload.name(), report.lines);
    assert_eq!(report.failed, 0);
    report
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list (workloads
/// have no unit).
fn entries(json: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    json.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

#[test]
fn end_to_end_runs_report_every_end_to_end_metric() {
    let expected = entries(&benchmark_json(), "end_to_end");
    for w in Workload::ALL {
        let report = smoke(w, false);
        assert_eq!(reported(&report), expected, "{}", w.name());
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), report.metrics);
        // The closed loop ran at least one cycle of the workload's specs.
        assert!(report.attempted >= w.specs(Scale::Smoke, 7).len() as u64);
    }
}

#[test]
fn traced_runs_pass_the_equality_gate_and_report_every_layer() {
    let expected = entries(&benchmark_json(), "per_layer");
    for w in Workload::ALL {
        let report = smoke(w, true);
        assert_eq!(reported(&report), expected, "{}", w.name());
        // One reference run plus three rebuilt runs per scenario.
        assert_eq!(report.attempted, 4 * w.specs(Scale::Smoke, 7).len() as u64);
        let layer = |name: &str| report.metric(name).expect(name);
        // Each workload exercises the layers it was chosen for.
        match w {
            Workload::FlPaper => {
                assert!(layer("models.fed_round_calls") > 0.0);
                assert!(layer("core.attack_score_calls") > 0.0);
                assert_eq!(layer("models.train_local_calls"), 0.0);
                assert_eq!(layer("defenses.transform_calls"), 0.0);
            }
            Workload::GossipPaper => {
                assert!(layer("models.train_local_calls") > 0.0);
                assert!(layer("gossip.deliveries") > 0.0);
                assert_eq!(layer("models.fed_round_calls"), 0.0);
                assert_eq!(layer("scenarios.utility_ms"), 0.0);
            }
            Workload::FlMitigationsPaper => {
                assert!(layer("defenses.transform_calls") > 0.0);
                assert!(layer("core.attack_prepare_ms") > 0.0);
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_workloads_the_code_runs() {
    let listed: Vec<String> =
        entries(&benchmark_json(), "workloads").into_iter().map(|(name, _)| name).collect();
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed, workloads);
    let per_layer: Vec<(String, String)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(entries(&benchmark_json(), "per_layer"), per_layer);
}
