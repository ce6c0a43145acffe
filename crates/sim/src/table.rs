//! A small fixed-width table type shared by every experiment.

use bvf_obs::jsonl::{escape, Record};

/// One labelled row of numeric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (application code, design name, lane index, …).
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
}

/// A figure/table reproduction: an id matching the paper exhibit, a title,
/// column headers and labelled numeric rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Exhibit id, e.g. `"fig18"` or `"table2"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers (not counting the label column).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width does not match the {} columns",
            self.columns.len()
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// The value at (`row_label`, `column`).
    pub fn get(&self, row_label: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        self.rows
            .iter()
            .find(|r| r.label == row_label)
            .map(|r| r.values[c])
    }

    /// Render as CSV (label column first, RFC-4180-style quoting for labels
    /// containing commas or quotes).
    pub fn to_csv(&self) -> String {
        fn quote(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(&quote(c));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&quote(&r.label));
            for v in &r.values {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Render as a JSON object (`{id, title, columns, rows: [{label,
    /// values}]}`), written with `bvf_obs`'s [`Record`] and [`escape`].
    /// Non-finite values are emitted as `null` per JSON's number grammar.
    pub fn to_json(&self) -> String {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("\"{}\"", escape(c)))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                // `Record` writes objects only; this array of numbers
                // follows `Record::f64`'s grammar.
                let vals: Vec<String> = r
                    .values
                    .iter()
                    .map(|&v| {
                        if v.is_finite() {
                            format!("{v}")
                        } else {
                            "null".to_string()
                        }
                    })
                    .collect();
                Record::object()
                    .str("label", &r.label)
                    .raw("values", &format!("[{}]", vals.join(",")))
                    .finish()
            })
            .collect();
        Record::object()
            .str("id", &self.id)
            .str("title", &self.title)
            .raw("columns", &format!("[{}]", cols.join(",")))
            .raw("rows", &format!("[{}]", rows.join(",")))
            .finish()
    }

    /// Mean of one column over all rows; `None` for an unknown column or an
    /// empty table.
    pub fn column_mean(&self, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        if self.rows.is_empty() {
            return None;
        }
        Some(self.rows.iter().map(|r| r.values[c]).sum::<f64>() / self.rows.len() as f64)
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([5])
            .max()
            .unwrap_or(5)
            .min(24);
        write!(f, "{:<label_w$}", "")?;
        for c in &self.columns {
            write!(f, " {c:>14}")?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:<label_w$}", r.label)?;
            for v in &r.values {
                if v.abs() >= 1e5 || (v.abs() < 1e-3 && *v != 0.0) {
                    write!(f, " {v:>14.4e}")?;
                } else {
                    write!(f, " {v:>14.4}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("fig0", "test", vec!["a".into(), "b".into()]);
        t.push("x", vec![1.0, 2.0]);
        t.push("y", vec![3.0, 4.0]);
        t
    }

    #[test]
    fn lookup_and_mean() {
        let t = sample();
        assert_eq!(t.get("x", "b"), Some(2.0));
        assert_eq!(t.get("z", "b"), None);
        assert_eq!(t.get("x", "c"), None);
        assert_eq!(t.column_mean("a"), Some(2.0));
    }

    #[test]
    fn display_contains_everything() {
        let s = sample().to_string();
        for needle in ["fig0", "test", "x", "y", "1.0", "4.0"] {
            assert!(s.contains(needle), "missing {needle} in\n{s}");
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = sample();
        t.push("bad", vec![1.0]);
    }

    #[test]
    fn csv_shape_and_quoting() {
        let mut t = Table::new("f", "t", vec!["v".into()]);
        t.push("plain", vec![1.5]);
        t.push("with,comma", vec![2.0]);
        t.push("with\"quote", vec![3.0]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,v");
        assert_eq!(lines[1], "plain,1.5");
        assert_eq!(lines[2], "\"with,comma\",2");
        assert_eq!(lines[3], "\"with\"\"quote\",3");
    }

    #[test]
    fn json_is_well_formed_for_tricky_content() {
        let mut t = Table::new("f\"x", "ti\ntle", vec!["a\\b".into()]);
        t.push("r1", vec![f64::NAN]);
        t.push("r2", vec![0.25]);
        let j = t.to_json();
        assert!(j.contains("\"id\":\"f\\\"x\""));
        assert!(j.contains("\"ti\\ntle\""));
        assert!(j.contains("\"a\\\\b\""));
        assert!(j.contains("null"), "NaN must serialize as null");
        assert!(j.contains("0.25"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
