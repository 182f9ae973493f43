//! Table rendering (markdown, and CSV to `target/experiments/`).

use std::fmt::Write as _;
use std::path::PathBuf;

/// One column of a [`Table::of`] table: its header and the cell it renders
/// for an item.
pub type Column<T> = (&'static str, fn(&T) -> String);

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Human-readable experiment title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table with one row per item, one cell per column.
    pub fn of<T>(title: impl Into<String>, columns: &[Column<T>], items: &[T]) -> Self {
        let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
        let mut t = Table::new(title, &headers);
        t.rows = items.iter().map(|i| columns.iter().map(|(_, cell)| cell(i)).collect()).collect();
        t
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Formats a float with sensible precision for display.
    pub fn fmt_f64(x: f64) -> String {
        if x == x.trunc() && x.abs() < 1e9 {
            format!("{x:.0}")
        } else {
            format!("{x:.2}")
        }
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ =
            writeln!(out, "|{}|", self.columns.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV under [`output_dir`] as `<name>.csv` and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = output_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The workspace root under `cargo run` (or the current directory when
/// run elsewhere).
pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/experiments; hop to the workspace root.
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Where experiment CSVs land: `target/experiments/` in the workspace.
pub fn output_dir() -> PathBuf {
    workspace_root().join("target/experiments")
}

/// Where the committed `--quick` CSVs of the paper artifacts and the sweeps
/// live: `artifacts/quick/` in the workspace.
pub fn golden_dir() -> PathBuf {
    workspace_root().join("artifacts/quick")
}

/// Compares a regenerated artifact with the `committed` one line for line:
/// every golden artifact is simulated, so any difference is a moved number.
///
/// # Errors
///
/// The first differing line of the two, as `differs from the committed one
/// at line …` (callers prefix what was regenerated).
pub fn compare_lines(ours: &str, committed: &str) -> Result<(), String> {
    let (mut a, mut b) = (ours.lines(), committed.lines());
    for line in 1.. {
        match (a.next(), b.next()) {
            (None, None) => break,
            (ours, theirs) if ours == theirs => {}
            (ours, theirs) => {
                let show = |l: Option<&str>| l.unwrap_or("<end of file>").to_string();
                return Err(format!(
                    "differs from the committed one at line {line}:\n  this tree: {}\n  \
                     committed: {}",
                    show(ours),
                    show(theirs)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "2.50".into()]);
        t.push_row(vec!["2".into(), "3.00".into()]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| x | y |"));
        assert!(md.contains("| 1 | 2.50 |"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("T", &["a"]);
        t.push_row(vec!["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn compare_lines_names_the_first_differing_line() {
        let csv = sample().to_csv();
        assert_eq!(compare_lines(&csv, &csv), Ok(()));
        let e = compare_lines(&csv, &csv.replace("3.00", "3.01")).unwrap_err();
        assert!(e.contains("line 3") && e.contains("this tree: 2,3.00"), "{e}");
        let e = compare_lines(&csv, "x,y\n").unwrap_err();
        assert!(e.contains("line 2") && e.contains("committed: <end of file>"), "{e}");
    }

    #[test]
    fn fmt_f64_trims_integers() {
        assert_eq!(Table::fmt_f64(3.0), "3");
        assert_eq!(Table::fmt_f64(1.23456), "1.23");
    }
}
