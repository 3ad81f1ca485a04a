//! Minimal fixed-width table formatting for experiment output.

use std::fmt;

/// A simple text table: header row plus data rows, columns padded to fit.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a new instance.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (width must match the header).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{c:>w$}", w = w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a byte count compactly (`1.5 KiB`, `3.2 MiB`).
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "count"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "12345"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("longer"));
        // Right-aligned count column.
        assert!(lines[2].ends_with('1'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(12), "12 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.0 MiB");
    }
}
