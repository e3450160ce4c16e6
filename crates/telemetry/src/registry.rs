//! [`Registry`]: named, labelled instruments and the text exposition.
//!
//! Instruments are registered once — under a *family name* plus a fixed
//! label set — and handed out as `Arc`s; the hot path only ever touches
//! the instrument's atomics. Registration is **idempotent**: asking for
//! the same `(name, labels)` again returns the existing instrument, so
//! independent components (a pipeline, the engine, a bench harness) can
//! all "register" the same metric and share one underlying series.
//!
//! [`Registry::render`] produces the Prometheus-style text exposition
//! served by `ebbiot_server`'s STATS listener and specified in
//! `ARCHITECTURE.md` §7; [`validate_exposition`] is the parser the CI
//! scrape asserts with.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::{Counter, Gauge, Histogram, BUCKETS};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone totals.
    Counter,
    /// Instantaneous signed values.
    Gauge,
    /// Log2-bucket sample distributions.
    Histogram,
}

impl MetricKind {
    /// The exposition `# TYPE` keyword.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    const fn kind(&self) -> MetricKind {
        match self {
            Self::Counter(_) => MetricKind::Counter,
            Self::Gauge(_) => MetricKind::Gauge,
            Self::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A set of named, labelled instruments with a text exposition.
///
/// Registration takes a short lock; recording into the returned `Arc`
/// handles is lock-free. Families render grouped in first-registration
/// order, so the exposition is stable across scrapes.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(is_valid_name(name), "invalid metric name {name:?}");
        for (key, _) in labels {
            assert!(is_valid_name(key), "invalid label name {key:?}");
        }
        let mut entries = lock(&self.entries);
        if let Some(existing) =
            entries.iter().find(|e| e.name == name && labels_match(&e.labels, labels))
        {
            return existing.instrument.clone();
        }
        let instrument = make();
        if let Some(family) = entries.iter().find(|e| e.name == name) {
            assert!(
                family.instrument.kind() == instrument.kind(),
                "metric family {name:?} registered with conflicting kinds"
            );
        }
        entries.push(Entry {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or when `name` already
    /// holds a different instrument kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, labels, || Instrument::Counter(Arc::new(Counter::new()))) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, labels, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Registers (or retrieves) a histogram.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, labels, || Instrument::Histogram(Arc::new(Histogram::new()))) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Renders the Prometheus-style text exposition: one `# TYPE` line
    /// per family (in first-registration order), then one sample line
    /// per series — histograms expand into cumulative `_bucket{le=…}`
    /// lines plus `_sum` and `_count`.
    #[must_use]
    pub fn render(&self) -> String {
        let entries = lock(&self.entries);
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for family in entries.iter() {
            if seen.contains(&family.name.as_str()) {
                continue;
            }
            seen.push(&family.name);
            out.push_str(&format!(
                "# TYPE {} {}\n",
                family.name,
                family.instrument.kind().as_str()
            ));
            for entry in entries.iter().filter(|e| e.name == family.name) {
                render_entry(&mut out, entry);
            }
        }
        out
    }
}

fn render_entry(out: &mut String, entry: &Entry) {
    let labels = |extra: Option<(&str, String)>| -> String {
        let mut pairs: Vec<String> =
            entry.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
        if let Some((k, v)) = extra {
            pairs.push(format!("{k}=\"{v}\""));
        }
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    };
    match &entry.instrument {
        Instrument::Counter(c) => {
            out.push_str(&format!("{}{} {}\n", entry.name, labels(None), c.get()));
        }
        Instrument::Gauge(g) => {
            out.push_str(&format!("{}{} {}\n", entry.name, labels(None), g.get()));
        }
        Instrument::Histogram(h) => {
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (i, count) in counts.iter().enumerate() {
                cumulative += count;
                // Trailing all-empty buckets add nothing; stop at the
                // last non-empty one and let +Inf carry the total.
                if counts[i..].iter().all(|&c| c == 0) {
                    break;
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    entry.name,
                    labels(Some(("le", Histogram::upper_bound(i).to_string()))),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                entry.name,
                labels(Some(("le", "+Inf".to_string()))),
                h.count()
            ));
            out.push_str(&format!("{}_sum{} {}\n", entry.name, labels(None), h.sum()));
            out.push_str(&format!("{}_count{} {}\n", entry.name, labels(None), h.count()));
        }
    }
    let _ = BUCKETS; // bucket count is fixed; `le` bounds are 2^i
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have.iter().zip(want).all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses a text exposition, returning the number of sample lines.
///
/// This is the STATS-scrape assertion of the server parity suite: every
/// line must be a `# TYPE`/`# HELP` comment or a
/// `name[{label="v",…}] value` sample with a numeric value (`+Inf`
/// bucket bounds included).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment.starts_with("TYPE ") || comment.starts_with("HELP ") {
                continue;
            }
            return Err(format!("line {}: unknown comment {line:?}", number + 1));
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator in {line:?}", number + 1))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {}: non-numeric value {value:?}", number + 1));
        }
        let name = series.split('{').next().unwrap_or(series);
        if !is_valid_name(name) {
            return Err(format!("line {}: invalid metric name {name:?}", number + 1));
        }
        if let Some(open) = series.find('{') {
            if !series.ends_with('}') {
                return Err(format!("line {}: unterminated label set in {series:?}", number + 1));
            }
            let body = &series[open + 1..series.len() - 1];
            for pair in body.split(',') {
                let (key, val) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: malformed label {pair:?}", number + 1))?;
                if !is_valid_name(key) || !val.starts_with('"') || !val.ends_with('"') {
                    return Err(format!("line {}: malformed label {pair:?}", number + 1));
                }
            }
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("ebbiot_test_total", &[("worker", "0")]);
        let b = registry.counter("ebbiot_test_total", &[("worker", "0")]);
        a.add(3);
        assert_eq!(b.get(), 3, "same (name, labels) is the same series");
        let other = registry.counter("ebbiot_test_total", &[("worker", "1")]);
        assert_eq!(other.get(), 0, "different labels are a different series");
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn kind_conflicts_panic() {
        let registry = Registry::new();
        let _ = registry.counter("ebbiot_test_total", &[]);
        let _ = registry.gauge("ebbiot_test_total", &[("x", "y")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        let _ = Registry::new().counter("7bad name", &[]);
    }

    #[test]
    fn render_groups_families_and_orders_stably() {
        let registry = Registry::new();
        registry.counter("ebbiot_a_total", &[("worker", "1")]).add(5);
        registry.gauge("ebbiot_b", &[]).set(-2);
        registry.counter("ebbiot_a_total", &[("worker", "0")]).add(7);
        let text = registry.render();
        let expected = "# TYPE ebbiot_a_total counter\n\
                        ebbiot_a_total{worker=\"1\"} 5\n\
                        ebbiot_a_total{worker=\"0\"} 7\n\
                        # TYPE ebbiot_b gauge\n\
                        ebbiot_b -2\n";
        assert_eq!(text, expected);
        assert_eq!(validate_exposition(&text), Ok(3));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let registry = Registry::new();
        let h = registry.histogram("ebbiot_lat_ns", &[("stage", "median")]);
        h.record(0);
        h.record(1);
        h.record(3);
        let text = registry.render();
        assert!(text.contains("# TYPE ebbiot_lat_ns histogram"));
        assert!(text.contains("ebbiot_lat_ns_bucket{stage=\"median\",le=\"1\"} 1"));
        assert!(text.contains("ebbiot_lat_ns_bucket{stage=\"median\",le=\"2\"} 2"));
        assert!(text.contains("ebbiot_lat_ns_bucket{stage=\"median\",le=\"4\"} 3"));
        assert!(text.contains("ebbiot_lat_ns_bucket{stage=\"median\",le=\"+Inf\"} 3"));
        assert!(text.contains("ebbiot_lat_ns_sum{stage=\"median\"} 4"));
        assert!(text.contains("ebbiot_lat_ns_count{stage=\"median\"} 3"));
        assert!(!text.contains("le=\"8\""), "trailing empty buckets are elided");
        assert_eq!(validate_exposition(&text).unwrap(), 6);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_exposition("just words\n").is_err());
        assert!(validate_exposition("name_only\n").is_err());
        assert!(validate_exposition("ok 1\nbad{x=y} 2\n").is_err());
        assert!(validate_exposition("ok{x=\"y\"} notanumber\n").is_err());
        assert!(validate_exposition("# BOGUS comment\n").is_err());
        assert_eq!(validate_exposition("# TYPE t counter\nt 4\n\n"), Ok(1));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry.counter("ebbiot_esc_total", &[("name", "a\"b\\c")]).inc();
        let text = registry.render();
        assert!(text.contains("name=\"a\\\"b\\\\c\""));
        assert!(validate_exposition(&text).is_ok());
    }
}
