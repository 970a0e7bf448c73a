use mmgpu_bench::gen::{
    gpm_class, sweep_population, warm_set, whatif_script, Kind, COST_TOLERANCE, GPM_CLASSES,
    POINTS_PER_CLASS, SIM_DELTAS, WARM_SET_LEN,
};
use mmgpu_bench::golden::Golden;
use mmgpu_bench::workloads::sweep_keys;

#[test]
fn golden_points_cover_exactly_the_sweep_population() {
    let golden = Golden::embedded();
    let population: Vec<String> = sweep_population().into_iter().map(|(k, _, _)| k).collect();
    let golden_keys: Vec<&str> = golden.points.iter().map(|p| p.key.as_str()).collect();
    assert_eq!(population, golden_keys);
}

#[test]
fn sweep_samples_are_seeded_stratified_and_cost_balanced() {
    let golden = Golden::embedded();
    let class_of = |key: &str| gpm_class(golden.point(key).unwrap().gpms);
    let cost =
        |keys: &[String]| -> f64 { keys.iter().map(|k| golden.point(k).unwrap().cost_s).sum() };
    let samples: Vec<Vec<String>> = (1..=10)
        .map(|seed| sweep_keys(&golden, seed, false))
        .collect();
    assert_eq!(
        samples[0],
        sweep_keys(&golden, 1, false),
        "same seed, same sample"
    );
    assert_ne!(samples[0], samples[1], "different seeds differ");
    let target = cost(&samples[0]);
    for keys in &samples {
        let mut per_class = [0; GPM_CLASSES.len()];
        for k in keys {
            per_class[class_of(k)] += 1;
        }
        assert_eq!(per_class, [POINTS_PER_CLASS; GPM_CLASSES.len()]);
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "points are unique");
        assert!((cost(keys) - target).abs() <= 2.0 * COST_TOLERANCE * target);
        let costs: Vec<f64> = keys
            .iter()
            .map(|k| golden.point(k).unwrap().cost_s)
            .collect();
        assert!(costs.windows(2).all(|w| w[0] >= w[1]), "heaviest first");
    }
    let quick = sweep_keys(&golden, 1, true);
    assert_eq!(quick.len(), 2);
    assert_eq!(quick, sweep_keys(&golden, 1, true));
}

#[test]
fn warm_sets_fix_the_artifact_mix_and_vary_the_rest() {
    let artifacts = |seed| {
        let mut a: Vec<String> = warm_set(seed).into_iter().map(|q| q.artifact).collect();
        a.sort();
        a
    };
    assert_eq!(warm_set(1), warm_set(1));
    assert_ne!(warm_set(1), warm_set(2));
    assert_eq!(warm_set(1).len(), WARM_SET_LEN);
    for seed in 2..20 {
        assert_eq!(artifacts(seed), artifacts(1));
    }
}

#[test]
fn whatif_scripts_keep_proportions_and_dependencies() {
    assert_eq!(whatif_script(1, 2, false), whatif_script(1, 2, false));
    assert_ne!(whatif_script(1, 2, false), whatif_script(2, 2, false));
    for seed in 1..20 {
        let scripts = whatif_script(seed, 2, false);
        let all: Vec<_> = scripts.iter().flatten().collect();
        let count = |k: Kind| all.iter().filter(|e| e.kind == k).count();
        assert_eq!(
            (count(Kind::Sim), count(Kind::Energy), count(Kind::Repeat)),
            (8, 6, 6)
        );
        let mut sims: Vec<String> = all
            .iter()
            .filter(|e| e.kind == Kind::Sim)
            .map(|e| e.query.key())
            .collect();
        sims.sort();
        let mut menu: Vec<String> = SIM_DELTAS
            .iter()
            .map(|(a, k, v)| format!("{a}?{k}={v}"))
            .collect();
        menu.sort();
        assert_eq!(sims, menu, "every seed replays the same simulation deltas");
        for script in &scripts {
            for (i, e) in script.iter().enumerate() {
                let earlier: Vec<String> = script[..i].iter().map(|x| x.query.key()).collect();
                match e.kind {
                    Kind::Sim => {}
                    Kind::Energy => {
                        let base: Vec<(String, String)> = e
                            .query
                            .sets
                            .iter()
                            .filter(|(k, _)| k != "link_energy_mult")
                            .cloned()
                            .collect();
                        let base = mmgpu_bench::gen::Query {
                            artifact: e.query.artifact.clone(),
                            sets: base,
                        };
                        assert!(earlier.contains(&base.key()), "energy entry before its sim");
                    }
                    Kind::Repeat => assert!(earlier.contains(&e.query.key()), "repeat first"),
                }
            }
        }
    }
}

#[test]
fn every_generated_query_has_a_golden_answer() {
    let golden = Golden::embedded();
    for seed in 1..50 {
        let queries = warm_set(seed)
            .into_iter()
            .chain(
                whatif_script(seed, 2, false)
                    .into_iter()
                    .flatten()
                    .map(|e| e.query),
            )
            .chain(
                whatif_script(seed, 2, true)
                    .into_iter()
                    .flatten()
                    .map(|e| e.query),
            );
        for q in queries {
            assert!(
                golden.payload(&q.key()).is_some(),
                "no golden for {}",
                q.key()
            );
        }
    }
}
