//! Summary statistics and failure accounting shared by every workload.

/// Samples required beyond a tail percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count); NaN
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(xs);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in (0, 100]. `100` marks a sample too small for the
    /// rule, whose maximum is reported instead.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

impl Tail {
    /// Human-readable percentile label, e.g. `p98.9` or `max`.
    pub fn label(&self) -> String {
        if self.percentile >= 100.0 {
            format!("max (fewer than {} samples)", TAIL_BEYOND + 1)
        } else {
            format!("p{:.1}", self.percentile)
        }
    }
}

/// Applies the tail rule: with `n` samples sorted ascending, the value at
/// rank `n - TAIL_BEYOND - 1` has exactly `TAIL_BEYOND` samples beyond it,
/// which makes it the `100 (n - TAIL_BEYOND) / n` percentile. A sample too
/// small to have any such percentile reports its maximum. `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let sorted = sorted(xs);
    let n = sorted.len();
    let last = *sorted.last()?;
    if n <= TAIL_BEYOND {
        return Some(Tail {
            value: last,
            percentile: 100.0,
            samples: n,
        });
    }
    Some(Tail {
        value: sorted[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// How one attempted request or job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and passed its checks.
    Ok,
    /// `503` — the server shed the request (job slots or queue full).
    Shed503,
    /// `429` — the per-dataset rate limit shed the request.
    Shed429,
    /// Any other `4xx`.
    Client4xx,
    /// Any `5xx` that is not a shed.
    Server5xx,
    /// Connect, read or write failure, or a malformed response.
    IoError,
    /// The job was admitted but ended `failed`, or never completed in time.
    JobFailed,
}

impl Outcome {
    /// Classifies an HTTP status. `503` counts as a shed whether or not it
    /// carries `Retry-After`: either way the request was not served.
    pub fn from_status(status: u16) -> Self {
        match status {
            200..=299 => Outcome::Ok,
            429 => Outcome::Shed429,
            503 => Outcome::Shed503,
            400..=499 => Outcome::Client4xx,
            _ => Outcome::Server5xx,
        }
    }
}

/// Counts of outcomes over every attempted request or job of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests or jobs attempted.
    pub attempted: u64,
    /// Of those, completed.
    pub ok: u64,
    /// `503` sheds.
    pub shed_503: u64,
    /// `429` sheds.
    pub shed_429: u64,
    /// Other `4xx`.
    pub client_4xx: u64,
    /// Non-shed `5xx`.
    pub server_5xx: u64,
    /// I/O errors.
    pub io_errors: u64,
    /// Failed or lost jobs.
    pub job_failures: u64,
}

impl Tally {
    /// Records one attempt.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed503 => self.shed_503 += 1,
            Outcome::Shed429 => self.shed_429 += 1,
            Outcome::Client4xx => self.client_4xx += 1,
            Outcome::Server5xx => self.server_5xx += 1,
            Outcome::IoError => self.io_errors += 1,
            Outcome::JobFailed => self.job_failures += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed_503 += other.shed_503;
        self.shed_429 += other.shed_429;
        self.client_4xx += other.client_4xx;
        self.server_5xx += other.server_5xx;
        self.io_errors += other.io_errors;
        self.job_failures += other.job_failures;
    }

    /// Every attempt that did not complete: sheds, `4xx`, `5xx`, I/O errors
    /// and failed jobs alike.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// `failed / attempted`; 0 for an empty tally.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the 90th value has exactly 10 samples above it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // 1000 samples: p99 is the highest percentile the rule allows.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.label(), "p99.0");
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!(t.value, 9.0);
        assert_eq!(t.percentile, 100.0);
        assert!(t.label().starts_with("max"));
        // Eleven samples are the smallest sample with a real tail.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 1.0);
        assert_eq!(tail(&xs[..10]).unwrap().value, 10.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn every_non_success_feeds_the_fail_ratio() {
        let mut tally = Tally::default();
        for status in [200, 202, 503, 429, 404, 400, 500] {
            tally.record(Outcome::from_status(status));
        }
        tally.record(Outcome::IoError);
        tally.record(Outcome::JobFailed);
        assert_eq!(tally.attempted, 9);
        assert_eq!(tally.ok, 2);
        assert_eq!((tally.shed_503, tally.shed_429), (1, 1));
        assert_eq!(tally.client_4xx, 2);
        assert_eq!(tally.server_5xx, 1);
        assert_eq!((tally.io_errors, tally.job_failures), (1, 1));
        assert_eq!(tally.failed(), 7);
        assert!((tally.fail_ratio() - 7.0 / 9.0).abs() < 1e-12);

        let mut total = Tally::default();
        total.absorb(&tally);
        total.record(Outcome::Ok);
        assert_eq!(total.failed(), 7);
        assert_eq!(total.attempted, 10);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }
}
