//! Summary statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spreads this benchmark
//! reports are the ones an external checker computes from the same
//! values.

/// The median of `values`; `None` when empty. Even-length samples
/// average the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The first and third quartiles, as `statistics.quantiles(values, n=4)`
/// returns them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The percentiles a tail is reported at, highest last.
const TAIL_PERCENTILES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The least number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the value, the percentile it was read at, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// The percentile read; 100 means the maximum, used when the sample
    /// is too small for any percentile to leave ten samples beyond it.
    pub percentile: f64,
    /// How many samples the tail was read from.
    pub samples: usize,
}

/// The highest of 50/75/90/95/99/99.9/99.99 that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, read by nearest rank. Falls
/// back to the maximum for samples too small for the median to qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    let pick = TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then_some((p, rank))
    });
    let (percentile, rank) = pick.unwrap_or((100.0, n));
    Some(Tail {
        value: data[rank - 1],
        percentile,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
