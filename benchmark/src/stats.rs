//! Order statistics and the few lines of JSON writing the benchmark needs
//! (the offline dependency set has no JSON crate).

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values — a phase that produced no window or cycle has already
/// marked the run incorrect.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Exact nearest-rank percentile of an already **sorted** slice
/// (`q` in `[0, 1]`); 0 when empty.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a measured number for JSON: finite values print with all their
/// digits, anything else as 0 (JSON has no NaN).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON array of numbers.
pub fn num_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

/// A JSON string literal (the benchmark only ever quotes its own names and
/// reasons; quotes, backslashes and control characters are escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.9), 90);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.0), 7);
    }

    #[test]
    fn quoting_escapes() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
