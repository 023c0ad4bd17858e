//! Report rendering and persistence.

use crate::experiments::Scale;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A rendered table: header + rows of equal arity.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table title (e.g. "Table III — Exp-1").
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Build a table.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Write a serializable report to `results/<name>.json`, or to
/// `results/quick/<name>.json` for a [`Scale::Quick`] run, so a quick run
/// never overwrites the checked-in full-scale reports (best effort — the
/// harness still prints everything). The payload is wrapped alongside a
/// `telemetry` section holding the process-global metrics snapshot at save
/// time — span histograms, counters, cache hit rates — and a `profiles`
/// section with any `EXPLAIN ANALYZE` profiles recorded during the run, so
/// a saved experiment carries its own plan-level evidence.
pub fn save_json<T: Serialize>(scale: Scale, name: &str, value: &T) {
    let dir = Path::new(match scale {
        Scale::Full => "results",
        Scale::Quick => "results/quick",
    });
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let wrapped = serde_json::json!({
        "results": value,
        "telemetry": svqa_telemetry::global().snapshot(),
        "profiles": svqa_telemetry::global_profiles().recent(),
    });
    if let Ok(json) = serde_json::to_string_pretty(&wrapped) {
        if std::fs::write(&path, json).is_ok() {
            eprintln!("report written to {}", path.display());
        }
    }
}

/// Format a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a duration in seconds.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["a", "long-header"]);
        t.row(&["x".into(), "y".into()]);
        t.row(&["longer-cell".into(), "z".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("longer-cell"));
        // Leading blank line + title + header + separator + 2 rows.
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    fn pct_and_secs() {
        assert_eq!(pct(0.925), "92.5%");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500s");
    }
}
