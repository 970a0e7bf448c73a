use mmgpu_bench::stats::{median, quartiles, tail, TAIL_MIN_BEYOND};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_handles_odd_even_and_empty_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values: statistics.quantiles(values, n=4), Python 3.
    let cases: [(&[f64], (f64, f64)); 4] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[1., 2.], (0.75, 2.25)),
        (&[3.5, 1.25, 9.0], (1.25, 9.0)),
        (
            &[10., 20., 30., 40., 50., 60., 70., 80., 90., 100., 110.],
            (30.0, 90.0),
        ),
    ];
    for (values, (q1, q3)) in cases {
        let (a, b) = quartiles(values).unwrap();
        assert!(close(a, q1) && close(b, q3), "{values:?}: got ({a}, {b})");
    }
    assert_eq!(quartiles(&[7.0]), None);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
    for (n, percentile, value) in [
        (20, 50.0, 10.0),
        (40, 75.0, 30.0),
        (100, 90.0, 90.0),
        (1000, 99.0, 990.0),
        (100_000, 99.99, 99_990.0),
    ] {
        let t = tail(&ramp(n)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples),
            (percentile, value, n),
            "n={n}"
        );
        let beyond = ramp(n).iter().filter(|&&v| v > t.value).count();
        assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
    }
}

#[test]
fn tail_of_a_small_sample_is_its_maximum() {
    let t = tail(&[5.0, 1.0, 3.0]).unwrap();
    assert_eq!((t.percentile, t.value, t.samples), (100.0, 5.0, 3));
    assert_eq!(tail(&[]), None);
}
