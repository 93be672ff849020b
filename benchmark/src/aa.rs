//! A/A comparison: `run.sh --aa` runs the full benchmark six times back
//! to back, each run writing a `--tsv` file; this splits the runs by
//! parity into two sets of the same code and prints, for every
//! workload × end-to-end metric, the two set medians, their relative
//! difference and the metric's bound.

use crate::metrics::END_TO_END;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `workload<TAB>metric<TAB>value<TAB>unit` lines as `(workload,
/// metric) → value`.
fn parse_tsv(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, metric, value, _unit] = f[..] else {
            return Err(format!("not a result line: {line:?}"));
        };
        let value: f64 = value.parse().map_err(|e| format!("{line:?}: {e}"))?;
        out.insert((workload.to_string(), metric.to_string()), value);
    }
    Ok(out)
}

/// One row of the A/A table.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub even: f64,
    pub odd: f64,
    pub rel_diff: f64,
    pub bound: f64,
}

impl Row {
    pub fn within(&self) -> bool {
        self.rel_diff.abs() <= self.bound
    }
}

/// Splits `runs` (in run order) by parity and compares set medians.
pub fn table(runs: &[BTreeMap<(String, String), f64>]) -> Vec<Row> {
    let mut keys: Vec<&(String, String)> = runs.iter().flat_map(|r| r.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut rows = Vec::new();
    for key in keys {
        let Some(m) = END_TO_END.iter().find(|m| m.name == key.1) else {
            continue;
        };
        let set = |parity: usize| -> Vec<f64> {
            runs.iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .filter_map(|(_, r)| r.get(key).copied())
                .collect()
        };
        let (even, odd) = (stats::median(&set(0)), stats::median(&set(1)));
        rows.push(Row {
            workload: key.0.clone(),
            metric: m.name,
            even,
            odd,
            rel_diff: stats::rel_diff(even, odd),
            bound: m.bound,
        });
    }
    rows
}

/// Prints the table; `Ok(false)` if any pair exceeds its bound.
pub fn compare(files: &[PathBuf]) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("--aa-compare needs at least two result files".into());
    }
    let runs = files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{}: {e}", p.display()))
                .and_then(|t| parse_tsv(&t))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rows = table(&runs);
    println!(
        "A/A over {} runs of the same code (even runs vs odd runs)",
        runs.len()
    );
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "even median", "odd median", "diff", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}% {}",
            r.workload,
            r.metric,
            r.even,
            r.odd,
            r.rel_diff * 100.0,
            r.bound * 100.0,
            if r.within() {
                if r.rel_diff.abs() > r.bound / 2.0 {
                    "over half the bound"
                } else {
                    ""
                }
            } else {
                "EXCEEDS BOUND"
            }
        );
    }
    Ok(rows.iter().all(Row::within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ttk: f64, heap: f64) -> BTreeMap<(String, String), f64> {
        parse_tsv(&format!(
            "enum-deep\tttk_ms_p50\t{ttk}\tms\nenum-deep\tpeak_heap_mb\t{heap}\tMB\nenum-deep\tnot_a_metric\t1\tx\n"
        ))
        .unwrap()
    }

    #[test]
    fn splits_by_parity_and_applies_each_bound() {
        // Even runs 0, 2, 4; odd runs 1, 3, 5.
        let runs = [
            run(10.0, 100.0),
            run(10.5, 100.0),
            run(11.0, 100.0),
            run(9.0, 120.0),
            run(30.0, 100.0),
            run(10.6, 120.0),
        ];
        let rows = table(&runs);
        assert_eq!(rows.len(), 2, "unknown metrics are skipped");
        let heap = rows.iter().find(|r| r.metric == "peak_heap_mb").unwrap();
        assert_eq!((heap.even, heap.odd), (100.0, 120.0));
        assert!(!heap.within(), "20 % is over the heap bound");
        let ttk = rows.iter().find(|r| r.metric == "ttk_ms_p50").unwrap();
        assert_eq!((ttk.even, ttk.odd), (11.0, 10.5));
        assert!(ttk.within());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_tsv("a\tb\tc\n").is_err());
        assert!(parse_tsv("a\tb\tnot-a-number\tms\n").is_err());
        assert!(parse_tsv("\n").unwrap().is_empty());
    }
}
