//! Plain-text report rendering for the experiment harnesses.

use crate::sweep::RecordingEval;

/// Renders a simple aligned table. `headers` sets column count; every row
/// must have that many cells.
///
/// # Panics
///
/// Panics when a row's width differs from the header's.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width must match header");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(headers.to_vec(), &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Renders a Fig. 4-style sweep: one row per IoU threshold, one
/// precision/recall column pair per tracker.
///
/// # Panics
///
/// Panics when tracker sweep lengths disagree.
#[must_use]
pub fn render_pr_sweep(trackers: &[(&str, Vec<RecordingEval>)]) -> String {
    assert!(!trackers.is_empty());
    let n = trackers[0].1.len();
    for (_, sweep) in trackers {
        assert_eq!(sweep.len(), n, "all sweeps must cover the same thresholds");
    }
    let mut headers: Vec<String> = vec!["IoU thr".into()];
    for (name, _) in trackers {
        headers.push(format!("{name} P"));
        headers.push(format!("{name} R"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::with_capacity(n);
    for k in 0..n {
        let mut row = vec![format!("{:.1}", trackers[0].1[k].iou_threshold)];
        for (_, sweep) in trackers {
            row.push(format!("{:.3}", sweep[k].pr.precision));
            row.push(format!("{:.3}", sweep[k].pr.recall));
        }
        rows.push(row);
    }
    render_table(&header_refs, &rows)
}

/// Renders an ASCII bar of `value` relative to `max`, `width` chars wide.
#[must_use]
pub fn render_bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round().clamp(0.0, width as f64) as usize
    };
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PrecisionRecall;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("|--"));
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn pr_sweep_renders_all_trackers() {
        let eval = |t: f32, p: f64, r: f64| RecordingEval {
            iou_threshold: t,
            pr: PrecisionRecall { precision: p, recall: r },
            true_positives: 0,
            proposals: 0,
            ground_truths: 0,
        };
        let out = render_pr_sweep(&[
            ("EBBIOT", vec![eval(0.1, 0.9, 0.8), eval(0.5, 0.85, 0.75)]),
            ("KF", vec![eval(0.1, 0.7, 0.6), eval(0.5, 0.5, 0.4)]),
        ]);
        assert!(out.contains("EBBIOT P"));
        assert!(out.contains("KF R"));
        assert!(out.contains("0.850"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(render_bar(5.0, 10.0, 10), "#####.....");
        assert_eq!(render_bar(20.0, 10.0, 10), "##########");
        assert_eq!(render_bar(0.0, 10.0, 4), "....");
        assert_eq!(render_bar(1.0, 0.0, 4), "....");
    }
}
