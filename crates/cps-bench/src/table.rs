//! Aligned text tables + JSON dumps for experiment output.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table with a title, printed to stdout and
/// serializable to JSON for EXPERIMENTS.md generation.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Title, e.g. `"Figure 17(a): query time (s) vs range (days)"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|&w| "-".repeat(w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Appends the table as JSON to `dir/<slug>.json`.
    pub fn save_json(&self, dir: &Path, slug: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{slug}.json"));
        std::fs::write(
            path,
            serde_json::to_string_pretty(self).expect("table serializes"),
        )
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds with millisecond precision.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        let dir = ScratchDir::new("table");
        t.save_json(&dir, "demo").unwrap();
        let text = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        assert!(text.contains("\"demo\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.156), "15.6%");
        assert_eq!(secs(std::time::Duration::from_millis(1234)), "1.234");
    }
}
