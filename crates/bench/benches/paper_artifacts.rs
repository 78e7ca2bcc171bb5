//! One Criterion benchmark per paper table/figure: the cost of regenerating
//! each artifact at smoke scale.

use cia_bench::run_experiment;
use cia_data::presets::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_artifacts(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_artifacts");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for name in [
        "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
        "fig1", "fig3", "fig4", "fig5", "aia", "mnist", "ablation",
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(run_experiment(name, Scale::Smoke, 42)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_artifacts);
criterion_main!(benches);
