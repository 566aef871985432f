//! Order statistics, per-class latency records and the small JSON helpers
//! the report needs.

/// Median by midpoint interpolation; `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]`; `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A class reports p90 only with at least this many samples in one run,
/// so that at least ten samples lie beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// Attempts, failures, latencies and CPU times of one request class in
/// one pass.
#[derive(Debug, Clone, Default)]
pub struct Class {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every successful operation, milliseconds.
    pub lat_ms: Vec<f64>,
    /// CPU time the program spent on every successful operation,
    /// milliseconds.
    pub cpu_ms: Vec<f64>,
    /// Chunk of the timed pass every successful operation ran in.
    pub chunk: Vec<usize>,
}

impl Class {
    pub fn new(name: &'static str) -> Self {
        Class {
            name,
            ..Class::default()
        }
    }

    pub fn ok(&mut self, ms: f64, cpu_ms: f64, chunk: usize) {
        self.attempted += 1;
        self.lat_ms.push(ms);
        self.cpu_ms.push(cpu_ms);
        self.chunk.push(chunk);
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn p50(&self) -> f64 {
        median(&self.lat_ms)
    }

    pub fn cpu_p50(&self) -> f64 {
        median(&self.cpu_ms)
    }

    /// CPU-time median over the quieter half of the class's operations:
    /// those whose chunk's steal share is at most the median share of the
    /// chunks they ran in. Never empty when the class has a sample.
    pub fn quiet_cpu_p50(&self, chunks: &[Chunk]) -> f64 {
        let steal: Vec<f64> = self.chunk.iter().map(|c| chunks[*c].steal).collect();
        let cut = median(&steal);
        let v: Vec<f64> = self
            .cpu_ms
            .iter()
            .zip(&steal)
            .filter(|(_, s)| **s <= cut)
            .map(|(ms, _)| *ms)
            .collect();
        median(&v)
    }

    /// `None` below [`P90_MIN_SAMPLES`].
    pub fn p90(&self) -> Option<f64> {
        (self.lat_ms.len() >= P90_MIN_SAMPLES).then(|| percentile(&self.lat_ms, 0.9))
    }
}

/// A stretch of a timed pass: the share of the host's CPU time the
/// hypervisor stole during it, and the program's CPU time and completed
/// operations in it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunk {
    pub steal: f64,
    pub cpu_s: f64,
    pub ops: u64,
}

/// Marks the chunks whose steal share is at most the median share: the
/// quieter half of a pass, or all of it when the host stole nothing.
pub fn quiet(chunks: &[Chunk]) -> Vec<bool> {
    let cut = median(&chunks.iter().map(|c| c.steal).collect::<Vec<_>>());
    chunks.iter().map(|c| c.steal <= cut).collect()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The unsigned integer after `"key": ` in a flat JSON text, first match.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_enough_samples() {
        let mut c = Class::new("x");
        for i in 0..99 {
            c.ok(f64::from(i), 1.0, 0);
        }
        assert_eq!(c.p90(), None);
        c.ok(99.0, 3.0, 0);
        assert_eq!(c.p90(), Some(89.0));
        assert_eq!(c.cpu_p50(), 1.0);
    }

    #[test]
    fn quiet_chunks_are_the_quieter_half() {
        let chunk = |steal| Chunk {
            steal,
            ..Chunk::default()
        };
        let busy = [chunk(0.3), chunk(0.0), chunk(0.1), chunk(0.2)];
        assert_eq!(quiet(&busy), [false, true, true, false]);
        let calm = [chunk(0.0), chunk(0.0), chunk(0.0)];
        assert_eq!(quiet(&calm), [true, true, true]);
        let mut c = Class::new("x");
        c.ok(1.0, 5.0, 0);
        c.ok(1.0, 1.0, 1);
        c.ok(1.0, 2.0, 2);
        c.ok(1.0, 9.0, 3);
        assert_eq!(c.quiet_cpu_p50(&busy), 1.5);
        // A class that ran only in the busier chunks still has a figure.
        let mut c = Class::new("y");
        c.ok(1.0, 5.0, 0);
        c.ok(1.0, 7.0, 3);
        assert_eq!(c.quiet_cpu_p50(&busy), 7.0);
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\n\"");
        let t = "{\"cache\": {\"hits\": 12, \"misses\": 3}}";
        assert_eq!(json_u64(t, "hits"), Some(12));
        assert_eq!(json_u64(t, "misses"), Some(3));
        assert_eq!(json_u64(t, "absent"), None);
    }
}
