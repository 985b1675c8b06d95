//! Order statistics and the metric record every workload reports.

/// Median, quartiles and tail of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarise `values` (linear interpolation between order
    /// statistics). An empty sample summarises to all zeros, n = 0.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            p95: quantile(&sorted, 0.95),
        }
    }

    /// A single measured value (a count, a size, a ratio).
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
            p95: value,
        }
    }
}

/// The `q`-quantile of an ascending slice; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Element-wise minimum over repetitions of identical work. `flat`
/// holds whole repetitions of `len` samples each, back to back; sample
/// `i` of the result is the fastest of every repetition's sample `i`.
///
/// Co-tenants on a shared host only ever add time, and they come and
/// go within seconds, so the fastest repetition of each step is the
/// steadiest estimate of what the step itself costs.
pub fn best_of_repeats(flat: &[f64], len: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; len];
    for rep in flat.chunks_exact(len.max(1)) {
        for (b, &x) in best.iter_mut().zip(rep) {
            *b = b.min(x);
        }
    }
    if flat.len() < len {
        best.clear();
    }
    best
}

/// One reported number: its name, unit, the value the benchmark prints,
/// and the sample it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the benchmark doc.
    pub name: String,
    /// Unit (`ms`, `ns`, `count`, ...).
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Sample behind the value.
    pub stats: Summary,
}

impl Metric {
    /// A metric reported as the median of `values`.
    pub fn median(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let stats = Summary::of(values);
        Metric {
            name: name.to_owned(),
            unit,
            value: stats.median,
            stats,
        }
    }

    /// A metric reported as the 95th percentile of `values`.
    pub fn p95(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let stats = Summary::of(values);
        Metric {
            name: name.to_owned(),
            unit,
            value: stats.p95,
            stats,
        }
    }

    /// `name.p50` and `name.p95` over one sample.
    pub fn p50_p95(name: &str, unit: &'static str, values: &[f64]) -> [Metric; 2] {
        [
            Metric::median(&format!("{name}.p50"), unit, values),
            Metric::p95(&format!("{name}.p95"), unit, values),
        ]
    }

    /// A single measured value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
            stats: Summary::single(value),
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!((s.p95 - 4.8).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_of_repeats_takes_each_steps_fastest() {
        let flat = [3.0, 5.0, 1.0, 6.0, 2.0, 4.0];
        assert_eq!(best_of_repeats(&flat, 2), vec![1.0, 4.0]);
        assert_eq!(best_of_repeats(&flat[..5], 2), vec![1.0, 5.0]);
        assert!(best_of_repeats(&[], 3).is_empty());
    }
}
