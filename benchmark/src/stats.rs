//! Order statistics, the process's memory readings, and the one PRNG every
//! generated input hangs off.

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples))
}

fn median_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, quartiles and count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        Summary {
            median: median_sorted(&v),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            samples: v.len(),
        }
    }

    pub fn scaled(self, by: f64) -> Summary {
        Summary {
            median: self.median * by,
            q1: self.q1 * by,
            q3: self.q3 * by,
            ..self
        }
    }
}

/// A `/proc/self/status` field in bytes (`VmHWM`, `VmRSS`); 0 where the
/// file is missing, which `peak_rss_mb` then reports as a failed run.
pub fn proc_status_bytes(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// splitmix64: the benchmark's only source of generated randomness, so the
/// program under test receives inputs that depend on `--seed` alone.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn splitmix_is_seeded_and_uniform() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        let mut r = SplitMix(9);
        let mean = (0..20_000).map(|_| r.next_unit()).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
