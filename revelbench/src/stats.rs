//! Summary statistics and failure accounting shared by every workload.

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so figures
/// printed here agree with the spread check run over many benchmark runs.
/// A single sample is its own quartiles; `None` for an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        1 => Some([s[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                // Position i*m/4 (1-based), clamped into the data as Python
                // does; the unclamped remainder extrapolates past the ends.
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// A tail figure: the value at the highest percentile (at most p99) that
/// has at least [`TAIL_BEYOND`] samples above it, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it stands for; `100.0` means the maximum, reported
    /// when the run has too few samples for any percentile to qualify.
    pub percentile: f64,
    /// Samples behind the figure.
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// Picks the tail figure of `xs` (see [`Tail`]); `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some(Tail { value: s[n - 1], percentile: 100.0, samples: n });
    }
    // Nearest rank r (1-based) of percentile p is ceil(p * n / 100); the
    // sample at rank r has n - r samples beyond it. p99 once n >= 1000,
    // otherwise the rank that leaves exactly TAIL_BEYOND above.
    let p99_rank = (99 * n).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_BEYOND);
    let percentile = if rank == p99_rank { 99.0 } else { 100.0 * rank as f64 / n as f64 };
    Some(Tail { value: s[rank - 1], percentile, samples: n })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Per-request accounting for the serving workloads. Every attempted
/// request ends in exactly one bucket; only `ok` counts as served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests the load generator planned and issued.
    pub attempted: u64,
    /// Answered with the oracle's exact bytes.
    pub ok: u64,
    /// Answered with a structured error, a timeout or a dead connection.
    pub failed: u64,
    /// Refused at admission (`overloaded`) once retries ran out.
    pub refused: u64,
    /// Answered, but not with the oracle's bytes.
    pub wrong_bytes: u64,
}

impl Tally {
    /// Requests that count as missing every latency limit.
    pub fn misses(&self) -> u64 {
        self.failed + self.refused + self.wrong_bytes
    }

    /// Misses over attempts (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.misses() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts into this one.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.failed += o.failed;
        self.refused += o.refused;
        self.wrong_bytes += o.wrong_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // Larger samples stay at p99 with more than ten beyond.
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile), (4950.0, 99.0));

        // Fewer than 1000 samples: the highest rank with ten above it.
        let xs: Vec<f64> = (1..=34).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 24.0);
        assert!((t.percentile - 100.0 * 24.0 / 34.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 1.0);
    }

    #[test]
    fn tail_of_tiny_samples_is_the_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_ratio_counts_refused_and_wrong_bytes_as_misses() {
        let t = Tally { attempted: 10, ok: 6, failed: 1, refused: 2, wrong_bytes: 1 };
        assert_eq!(t.misses(), 4);
        assert!((t.failed_ratio() - 0.4).abs() < 1e-12);

        let mut sum = Tally::default();
        assert_eq!(sum.failed_ratio(), 0.0);
        sum.absorb(&t);
        sum.absorb(&Tally { attempted: 10, ok: 10, ..Tally::default() });
        assert!((sum.failed_ratio() - 0.2).abs() < 1e-12);
    }
}
