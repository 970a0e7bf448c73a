//! Benches for the Table Ib / Fig. 4 validation pipeline: the fit and the
//! two validation passes at reduced scale.

use criterion::{criterion_group, criterion_main, Criterion};
use microbench::{fit, FitConfig};
use silicon::VirtualK40;
use std::time::Duration;
use workloads::{by_name, Scale};

fn bench_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(8));

    group.bench_function("table1b_fit_pipeline", |b| {
        b.iter(|| {
            let hw = VirtualK40::new();
            fit(&hw, &FitConfig::fast())
        })
    });

    group.bench_function("fig4a_mixed_validation", |b| {
        let hw = VirtualK40::new();
        let fitted = fit(&hw, &FitConfig::fast());
        let model = fitted.to_energy_model();
        let lab = xp::Lab::new(Scale::Smoke);
        b.iter(|| xp::validation::fig4a(&lab, &hw, &model, Scale::Smoke).unwrap())
    });

    group.bench_function("fig4b_app_validation", |b| {
        let hw = VirtualK40::new();
        let fitted = fit(&hw, &FitConfig::fast());
        let model = fitted.to_energy_model();
        let suite: Vec<_> = ["Stream", "Hotspot"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        let lab = xp::Lab::new(Scale::Smoke);
        b.iter(|| xp::validation::fig4b(&lab, &hw, &model, &suite, Scale::Smoke).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_validation);
criterion_main!(benches);
