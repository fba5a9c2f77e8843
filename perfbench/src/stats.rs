//! Percentiles, medians and the process's peak memory.

/// A percentile of a sample set, with the counts that say how much to
/// trust it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub above: usize,
}

/// Nearest-rank percentile `p` (0–100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Pct> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    Some(Pct {
        value: v[rank - 1],
        n: v.len(),
        above: v.len() - rank,
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0).map(|p| p.value)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 99.0).unwrap();
        assert_eq!((p.value, p.n, p.above), (99.0, 100, 1));
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(percentile(&[3.0], 50.0).unwrap().value, 3.0);
        assert!(percentile(&[], 50.0).is_none());
    }
}
