//! Small shared pieces: a seeded RNG, quantiles, memory readings and the
//! result record every workload fills in.

use std::time::Duration;

/// SplitMix64: a tiny, fully specified generator, so request schedules
/// depend only on `--seed` and never on a library's stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` distinct values from `0..bound`, in draw order.
    pub fn distinct(&mut self, n: usize, bound: usize) -> Vec<usize> {
        assert!(n <= bound, "cannot draw {n} distinct values below {bound}");
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let v = self.below(bound);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named figure with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: the verdict of its output checks, how many
/// operations it attempted and how many failed, and its figures.
#[derive(Default)]
pub struct Report {
    /// Reasons the outputs were judged wrong; empty means correct.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether a figure of this name is reported.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// `Err` unless the figures are exactly `names`, each once.
    pub fn reports_exactly(&self, names: &[&str]) -> Result<(), String> {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let mut want = names.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got == want {
            Ok(())
        } else {
            let missing: Vec<&&str> = want.iter().filter(|n| !got.contains(n)).collect();
            let extra: Vec<&&str> = got.iter().filter(|n| !want.contains(n)).collect();
            Err(format!(
                "figures differ from the manifest's: missing {missing:?}, unexpected or repeated {extra:?}"
            ))
        }
    }

    /// Records a failed check, keeping the first few reasons.
    pub fn fail_check(&mut self, why: String) {
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Folds one check's verdict in.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            self.fail_check(why);
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON, every digit kept (`{}` on `f64` prints the
/// shortest form that reads back to the same bits).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn rng_is_seeded_and_distinct_draws_are_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let d = Rng::new(3, 2).distinct(50, 60);
        let set: std::collections::HashSet<_> = d.iter().collect();
        assert_eq!(set.len(), 50);
        assert!(d.iter().all(|&x| x < 60));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("p50_ms", 2.0, "ms");
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn reports_exactly_rejects_missing_and_repeated_figures() {
        let mut r = Report::default();
        r.metric("a", 1.0, "s");
        r.metric("b", 1.0, "s");
        assert!(r.reports_exactly(&["b", "a"]).is_ok());
        assert!(r.reports_exactly(&["a", "b", "c"]).is_err());
        r.metric("a", 2.0, "s");
        assert!(r.reports_exactly(&["a", "b"]).is_err());
    }
}
