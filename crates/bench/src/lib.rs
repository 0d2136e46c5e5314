//! `float-bench` — the experiment harness that regenerates every table and
//! figure of the FLOAT paper's evaluation, plus shared report-rendering
//! helpers.
//!
//! Each `figN` module runs the corresponding experiment and returns a
//! serializable result with a `render()` method that prints the same rows
//! or series the paper reports. The `expfig` binary dispatches on a figure
//! id and supports `--scale paper` for full-scale runs (200 clients, 300
//! rounds) versus the default scaled-down runs that finish in minutes.
//!
//! Absolute numbers will not match the paper (the substrate is a
//! simulator, not the authors' GPU testbed); the *shape* — who wins, by
//! roughly what factor, where the crossovers fall — is the reproduction
//! target, and `EXPERIMENTS.md` records paper-vs-measured for each figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;
pub mod scale;

pub use scale::Scale;

/// Render a float with sensible width for table output.
fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Render a simple aligned table: header row plus data rows.
fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hcells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hcells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render serializable rows as a [`table`]: one column per scalar field in
/// declaration order, except those named in `skip`. Floats print through
/// [`f`], strings bare, other scalars as JSON; array and object fields are
/// left out.
fn rows_table<R: serde::Serialize>(rows: &[R], skip: &[&str]) -> String {
    use serde_json::Value;
    let values: Vec<Value> = rows
        .iter()
        .map(|r| serde_json::to_value(r).expect("table rows serialize"))
        .collect();
    let Some(first) = values.first().and_then(Value::as_object) else {
        return String::new();
    };
    let headers: Vec<&str> = first
        .iter()
        .filter(|(k, v)| !skip.contains(&k.as_str()) && !v.is_array() && !v.is_object())
        .map(|(k, _)| k.as_str())
        .collect();
    let cell = |v: &Value| match v {
        Value::String(s) => s.clone(),
        Value::Number(n) if n.is_f64() => f(n.as_f64()),
        _ => serde_json::to_string(v).expect("scalars serialize"),
    };
    let cells: Vec<Vec<String>> = values
        .iter()
        .map(|v| headers.iter().map(|&h| cell(&v[h])).collect())
        .collect();
    table(&headers, &cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_formats_ranges() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.1234), "0.1234");
        assert_eq!(f(12.345), "12.35");
        assert_eq!(f(1234.5), "1234");
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn rows_table_lists_scalar_fields_in_order() {
        #[derive(serde::Serialize)]
        struct Row {
            name: String,
            n: u64,
            acc: f64,
            curve: Vec<u64>,
        }
        let rows = [Row {
            name: "a".into(),
            n: 3,
            acc: 0.5,
            curve: vec![1],
        }];
        let t = rows_table(&rows, &["name"]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(
            lines[0].split_whitespace().collect::<Vec<_>>(),
            ["n", "acc"]
        );
        assert_eq!(
            lines[2].split_whitespace().collect::<Vec<_>>(),
            ["3", "0.5000"]
        );
    }
}
