//! The run's printed result: a human table (every metric with its unit
//! and sample count) and, last, the one-line JSON object.

use crate::stats::Pct;

struct Row {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    samples: Option<usize>,
    /// Part of the JSON `metrics` object (the others are table-only).
    json: bool,
}

/// Collects a run's metrics, then prints them.
#[derive(Default)]
pub struct Report {
    rows: Vec<Row>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// A metric of the JSON object.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.rows.push(Row { name: name.into(), value: Some(value), unit, samples, json: true });
    }

    /// A percentile metric of the JSON object; withheld (and so missing
    /// from the object) when the ten-beyond rule rejects it.
    pub fn pct(&mut self, name: &str, p: Pct, unit: &'static str) {
        self.rows.push(Row {
            name: name.into(),
            value: p.value,
            unit,
            samples: Some(p.n),
            json: true,
        });
    }

    /// A table-only figure.
    pub fn note(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.rows.push(Row { name: name.into(), value, unit, samples, json: false });
    }

    /// Print the table, then the JSON object as the last line.
    pub fn print(&self) {
        println!("{:<28} {:>16} {:<6} {:>9}", "metric", "value", "unit", "samples");
        for r in &self.rows {
            let value = r.value.map_or("withheld".to_string(), |v| format!("{v:.6}"));
            let samples = r.samples.map_or("-".to_string(), |n| n.to_string());
            let mark = if r.json { "" } else { "  (table only)" };
            println!("{:<28} {:>16} {:<6} {:>9}{mark}", r.name, value, r.unit, samples);
        }
        let metrics: Vec<String> = self
            .rows
            .iter()
            .filter(|r| r.json)
            .filter_map(|r| {
                let v = r.value.filter(|v| v.is_finite())?;
                Some(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", r.name, r.unit))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time stolen from this virtual machine by its host, as a share of
/// all CPU time, between two [`cpu_ticks`] readings: how contended the
/// host was while a pass ran.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0).max(1);
    after.1.saturating_sub(before.1) as f64 / total as f64
}

/// (all, steal) CPU ticks from the first line of /proc/stat.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}
