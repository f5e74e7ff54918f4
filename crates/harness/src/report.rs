//! Experiment result tables: aligned text output + JSON dumps.

use std::io::Write;
use std::path::Path;

/// One experiment's result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`f1` … `e9`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows, one cell per column.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== [{}] {} ==\n", self.id, self.title));
        let head: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect();
        out.push_str(&head.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(head.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Render as a pretty-printed JSON object (no external dependency —
    /// the build environment is offline, so the harness emits JSON by
    /// hand; every value is a string, array or object, so escaping is
    /// the only subtlety).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!(
            "  \"columns\": {},\n",
            json_str_array(&self.columns)
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_str_array(row));
        }
        if self.rows.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str(&format!("  \"notes\": {}\n", json_str_array(&self.notes)));
        out.push('}');
        out
    }

    /// Write `<dir>/<id>.json`.
    pub fn dump_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Escape and quote one JSON string.
fn json_str(s: &str) -> String {
    format!("\"{}\"", ftmp_telemetry::escape_json(s))
}

/// Render a JSON array of strings on one line.
fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("e0", "Demo", &["a", "column_b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        t.note("hello");
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("== [e0] Demo =="));
        assert!(r.contains("a    column_b"));
        assert!(r.contains("333  4"));
        assert!(r.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", "x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_dump_is_well_formed() {
        let dir = std::env::temp_dir().join("ftmp_table_test");
        sample().dump_json(&dir).unwrap();
        let s = std::fs::read_to_string(dir.join("e0.json")).unwrap();
        assert!(s.contains("\"id\": \"e0\""));
        assert!(s.contains("[\"333\", \"4\"]"));
        assert!(s.contains("\"notes\": [\"hello\"]"));
        // Balanced delimiters (every value here is a flat string).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert_eq!(s.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_escapes_specials() {
        let mut t = Table::new("esc", "Quote \" and \\ and\nnewline", &["c"]);
        t.row(vec!["tab\there".into()]);
        let s = t.to_json();
        assert!(s.contains(r#""Quote \" and \\ and\nnewline""#));
        assert!(s.contains(r#""tab\there""#));
    }
}
