//! Prometheus text exposition: a renderer for `GET /metrics` bodies and
//! a validating parser for the test suite and CI.
//!
//! The dialect is Prometheus text format 0.0.4 restricted to what the
//! workspace emits: `# TYPE` comments, `name{label="value",...} value`
//! samples, histograms as cumulative `_bucket{le="..."}` series closed by
//! `le="+Inf"` plus `_sum`/`_count`, and OpenMetrics-style exemplars on
//! `_bucket` lines (`... count # {trace_id="<32 hex>"} value`) linking
//! each latency bucket to a recent fetchable trace. The parser checks
//! structure — every line parses, bucket series are cumulative-monotone,
//! `+Inf` equals `_count`, exemplars appear only on buckets — because
//! "emits valid exposition" is an acceptance test, not a hope.

use crate::hist::{bucket_upper_bound, Exemplar, HistSnapshot, BUCKETS};
use crate::span::{registered, trace_hex};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builder for one `/metrics` body. Families are typed once (the first
/// sample of a name emits its `# TYPE` line).
#[derive(Debug, Default)]
pub struct MetricsText {
    buf: String,
    typed: Vec<String>,
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{inner}}}")
}

/// Formats a sample value: integers exactly, floats via `{}` (shortest
/// roundtrip), never scientific-exponent forms the parser would choke on.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsText {
    /// An empty body.
    #[must_use]
    pub fn new() -> MetricsText {
        MetricsText::default()
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        if !self.typed.iter().any(|t| t == name) {
            let _ = writeln!(self.buf, "# TYPE {name} {kind}");
            self.typed.push(name.to_string());
        }
    }

    /// Appends one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(name, "counter");
        let _ = writeln!(self.buf, "{name}{} {value}", label_block(labels));
    }

    /// Appends one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.type_line(name, "gauge");
        let _ = writeln!(
            self.buf,
            "{name}{} {}",
            label_block(labels),
            fmt_value(value)
        );
    }

    /// Appends one histogram: cumulative `_bucket` series over the
    /// occupied prefix of the log2 buckets, `+Inf`, `_sum`, `_count`.
    /// Empty trailing buckets are elided (the `+Inf` bucket closes the
    /// series), keeping bodies small without losing any count.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistSnapshot) {
        self.histogram_with_exemplars(name, labels, snap, &[]);
    }

    /// [`MetricsText::histogram`] plus per-bucket exemplars: a bucket
    /// with an [`Exemplar`] renders the OpenMetrics suffix
    /// `# {trace_id="<32 hex>"} <value>` on its `_bucket` line, so a
    /// latency band in a dashboard links to a `GET /trace/{id}`-fetchable
    /// request.
    pub fn histogram_with_exemplars(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistSnapshot,
        exemplars: &[Exemplar],
    ) {
        self.type_line(name, "histogram");
        let top = (0..BUCKETS)
            .rev()
            .find(|&i| snap.buckets[i] > 0)
            .map_or(0, |i| (i + 1).min(BUCKETS - 1));
        let mut cumulative = 0u64;
        for i in 0..=top {
            cumulative += snap.buckets[i];
            let mut le_labels: Vec<(&str, String)> =
                labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
            le_labels.push(("le", bucket_upper_bound(i).to_string()));
            let rendered = le_labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(self.buf, "{name}_bucket{{{rendered}}} {cumulative}");
            if let Some(ex) = exemplars.iter().find(|e| e.bucket == i) {
                let _ = write!(
                    self.buf,
                    " # {{trace_id=\"{}\"}} {}",
                    trace_hex(ex.trace),
                    ex.value
                );
            }
            let _ = writeln!(self.buf);
        }
        let mut inf_labels: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        inf_labels.push("le=\"+Inf\"".to_string());
        let _ = writeln!(
            self.buf,
            "{name}_bucket{{{}}} {}",
            inf_labels.join(","),
            snap.count
        );
        let _ = writeln!(self.buf, "{name}_sum{} {}", label_block(labels), snap.sum);
        let _ = writeln!(
            self.buf,
            "{name}_count{} {}",
            label_block(labels),
            snap.count
        );
    }

    /// The rendered body.
    #[must_use]
    pub fn into_string(self) -> String {
        self.buf
    }
}

/// Renders every histogram in the global registry (request latency per
/// endpoint, per-phase pipeline histograms) into `out`. Shared by the
/// service and router `/metrics` handlers.
pub fn render_registered(out: &mut MetricsText) {
    for reg in registered() {
        out.histogram_with_exemplars(
            reg.family,
            &[(reg.label_key, reg.label_value)],
            &reg.series.hist.snapshot(),
            &reg.series.hist.exemplars(),
        );
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// An exemplar parsed off a `_bucket` line's ` # {...} value` suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedExemplar {
    /// Exemplar labels (for our emitters, exactly `trace_id`).
    pub labels: Vec<(String, String)>,
    /// The exemplar's measured value.
    pub value: f64,
}

impl ParsedExemplar {
    /// The `trace_id` exemplar label, when present.
    #[must_use]
    pub fn trace_id(&self) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == "trace_id")
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Labels in appearance order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// The exemplar suffix, when the line carried one.
    pub exemplar: Option<ParsedExemplar>,
}

/// A parsed (and structurally validated) exposition body.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: name → kind.
    pub types: Vec<(String, String)>,
}

impl Exposition {
    /// The value of the sample whose name matches and whose labels
    /// include every pair in `labels` (subset match).
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }

    /// Every distinct label value of `key` across samples named `name`.
    #[must_use]
    pub fn label_values(&self, name: &str, key: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in self.samples.iter().filter(|s| s.name == name) {
            for (k, v) in &s.labels {
                if k == key && !out.iter().any(|e| e == v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

fn parse_labels(block: &str, line: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {line}"))?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}: {line}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value: {line}"));
        }
        // Scan the quoted value, honoring backslash escapes.
        let bytes = rest.as_bytes();
        let mut i = 1;
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err(format!("unterminated label value: {line}"));
            }
            match bytes[i] {
                b'"' => break,
                b'\\' => {
                    if i + 1 >= bytes.len() {
                        return Err(format!("dangling escape: {line}"));
                    }
                    match bytes[i + 1] {
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        b'n' => value.push('\n'),
                        other => return Err(format!("bad escape \\{}: {line}", other as char)),
                    }
                    i += 2;
                }
                _ => {
                    // Multi-byte UTF-8 is passed through byte-by-byte; the
                    // source is a &str so the bytes reassemble validly.
                    let ch_len = {
                        let s = &rest[i..];
                        s.chars().next().map_or(1, char::len_utf8)
                    };
                    value.push_str(&rest[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
        labels.push((key, value));
        rest = &rest[i + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {line}"));
        }
    }
    Ok(labels)
}

/// Parses an exemplar suffix: the `{labels} value` text after a ` # `
/// separator. Returns `None` when the text is not exemplar-shaped — the
/// caller then parses the whole line as a plain sample instead.
fn parse_exemplar(s: &str, line: &str) -> Option<ParsedExemplar> {
    let (block, value_str) = s.rsplit_once(' ')?;
    let inner = block.strip_prefix('{')?.strip_suffix('}')?;
    let labels = parse_labels(inner, line).ok()?;
    let value = value_str.trim().parse::<f64>().ok()?;
    Some(ParsedExemplar { labels, value })
}

/// Parses one exposition body, validating every line and the histogram
/// structure (see [`validate_histograms`]).
///
/// # Errors
/// A human-readable description of the first malformed line or broken
/// histogram invariant.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut expo = Exposition::default();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("TYPE without name: {line}"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("TYPE without kind: {line}"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("unknown TYPE kind {kind:?}: {line}"));
                }
                expo.types.push((name.to_string(), kind.to_string()));
            }
            continue; // other comments (# HELP, ...) are free-form
        }
        // name[{labels}] value [# {exemplar labels} exemplar_value]
        //
        // The exemplar separator is searched from the right and only
        // honored when the suffix actually parses as an exemplar, so a
        // (legal, if weird) label value containing " # " cannot be
        // misread as one.
        let (line_sample, exemplar) = match line.rfind(" # ") {
            Some(pos) => match parse_exemplar(&line[pos + 3..], line) {
                Some(ex) => (&line[..pos], Some(ex)),
                None => (line, None),
            },
            None => (line, None),
        };
        let (name_and_labels, value_str) = line_sample
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without value: {line}"))?;
        let value = value_str
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {value_str:?}: {line}"))?;
        let (name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                let close = name_and_labels
                    .rfind('}')
                    .filter(|&c| c > open)
                    .ok_or_else(|| format!("unbalanced labels: {line}"))?;
                if close != name_and_labels.len() - 1 {
                    return Err(format!("junk after labels: {line}"));
                }
                (
                    &name_and_labels[..open],
                    parse_labels(&name_and_labels[open + 1..close], line)?,
                )
            }
            None => (name_and_labels, Vec::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("bad metric name {name:?}: {line}"));
        }
        if exemplar.is_some() && !name.ends_with("_bucket") {
            return Err(format!("exemplar on non-bucket sample: {line}"));
        }
        expo.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
            exemplar,
        });
    }
    validate_histograms(&expo)?;
    Ok(expo)
}

/// Checks every histogram family in `expo`: per label-set, the `_bucket`
/// series must be cumulative-monotone in `le`, must end with `le="+Inf"`,
/// and the `+Inf` count must equal the family's `_count` sample.
///
/// # Errors
/// Describes the first violated invariant.
pub fn validate_histograms(expo: &Exposition) -> Result<(), String> {
    // Group buckets by (base name, labels-minus-le).
    type SeriesKey = (String, Vec<(String, String)>);
    let mut series: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    for s in &expo.samples {
        let Some(base) = s.name.strip_suffix("_bucket") else {
            continue;
        };
        let le = s
            .labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("{}: bucket sample without le label", s.name))?;
        let le_value = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>()
                .map_err(|_| format!("{}: bad le value {le:?}", s.name))?
        };
        let rest: Vec<(String, String)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        series
            .entry((base.to_string(), rest))
            .or_default()
            .push((le_value, s.value));
    }
    for ((base, labels), mut buckets) in series {
        let label_desc = labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le values are not NaN"));
        let mut prev = -1.0f64;
        for &(_, count) in &buckets {
            if count < prev {
                return Err(format!(
                    "{base}{{{label_desc}}}: bucket counts are not cumulative-monotone"
                ));
            }
            prev = count;
        }
        let Some(&(last_le, inf_count)) = buckets.last() else {
            continue;
        };
        if last_le != f64::INFINITY {
            return Err(format!(
                "{base}{{{label_desc}}}: missing le=\"+Inf\" bucket"
            ));
        }
        let labels_ref: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let count = expo
            .value(&format!("{base}_count"), &labels_ref)
            .ok_or_else(|| format!("{base}{{{label_desc}}}: missing _count sample"))?;
        if (count - inf_count).abs() > f64::EPSILON {
            return Err(format!(
                "{base}{{{label_desc}}}: +Inf bucket {inf_count} != _count {count}"
            ));
        }
        if expo.value(&format!("{base}_sum"), &labels_ref).is_none() {
            return Err(format!("{base}{{{label_desc}}}: missing _sum sample"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn render_then_parse_roundtrips() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 900, 7_000, 7_001, 1_000_000] {
            h.record(v);
        }
        let mut out = MetricsText::new();
        out.counter("graphio_requests_total", &[("endpoint", "/analyze")], 7);
        out.gauge("graphio_uptime_seconds", &[], 12.5);
        out.histogram(
            "graphio_request_duration_microseconds",
            &[("endpoint", "/analyze")],
            &h.snapshot(),
        );
        let text = out.into_string();
        let expo = parse(&text).expect("rendered body parses");
        assert_eq!(
            expo.value("graphio_requests_total", &[("endpoint", "/analyze")]),
            Some(7.0)
        );
        assert_eq!(expo.value("graphio_uptime_seconds", &[]), Some(12.5));
        assert_eq!(
            expo.value(
                "graphio_request_duration_microseconds_count",
                &[("endpoint", "/analyze")]
            ),
            Some(7.0)
        );
        assert_eq!(
            expo.value(
                "graphio_request_duration_microseconds_bucket",
                &[("endpoint", "/analyze"), ("le", "+Inf")]
            ),
            Some(7.0)
        );
        assert!(expo
            .types
            .iter()
            .any(|(n, k)| n == "graphio_request_duration_microseconds" && k == "histogram"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "no_value_here",
            "name{unterminated=\"x} 3",
            "name{bad-label=\"x\"} 3",
            "name{a=\"x\"}junk 3",
            "1leading_digit 3",
            "name not_a_number",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parser_rejects_non_monotone_buckets() {
        let text = "\
m_bucket{le=\"1\"} 5
m_bucket{le=\"3\"} 4
m_bucket{le=\"+Inf\"} 6
m_sum 10
m_count 6
";
        assert!(parse(text).unwrap_err().contains("monotone"));
    }

    #[test]
    fn parser_requires_inf_and_count_agreement() {
        let no_inf = "m_bucket{le=\"1\"} 5\nm_sum 1\nm_count 5\n";
        assert!(parse(no_inf).unwrap_err().contains("+Inf"));
        let mismatch = "m_bucket{le=\"+Inf\"} 5\nm_sum 1\nm_count 6\n";
        assert!(parse(mismatch).unwrap_err().contains("!= _count"));
    }

    #[test]
    fn escaped_label_values_roundtrip() {
        let mut out = MetricsText::new();
        out.counter("m", &[("path", "a\"b\\c")], 1);
        let expo = parse(&out.into_string()).unwrap();
        assert_eq!(expo.value("m", &[("path", "a\"b\\c")]), Some(1.0));
    }

    /// Satellite: every escapable character class — backslash, quote,
    /// newline, and combinations a hostile backend address could carry —
    /// must render as valid exposition and parse back verbatim, for
    /// counters, gauges and full histogram series alike.
    #[test]
    fn hostile_label_values_roundtrip_through_render_and_parse() {
        let hostile = [
            "plain",
            "back\\slash",
            "quo\"te",
            "new\nline",
            "\\",
            "\"",
            "\n",
            "tab\tand space end\\",
            "127.0.0.1:7878\n\"evil\\addr\"",
            "trailing newline\n",
            "a # b",
            "μs/λ unicode",
        ];
        for value in hostile {
            let h = Histogram::new();
            h.record(5);
            h.record(900);
            let mut out = MetricsText::new();
            out.counter("m_total", &[("backend", value)], 3);
            out.gauge("m_gauge", &[("backend", value)], 1.5);
            out.histogram("m_hist", &[("backend", value)], &h.snapshot());
            let text = out.into_string();
            let expo = parse(&text)
                .unwrap_or_else(|e| panic!("render of {value:?} must parse: {e}\n{text}"));
            assert_eq!(
                expo.value("m_total", &[("backend", value)]),
                Some(3.0),
                "counter label {value:?} round-trips"
            );
            assert_eq!(expo.value("m_gauge", &[("backend", value)]), Some(1.5));
            assert_eq!(
                expo.value("m_hist_count", &[("backend", value)]),
                Some(2.0),
                "histogram labels {value:?} round-trip"
            );
        }
    }

    #[test]
    fn exemplars_render_and_parse_back() {
        let h = Histogram::new();
        h.record_with_exemplar(3, 0xDEAD_BEEF);
        h.record_with_exemplar(70_000, 0xCAFE);
        let mut out = MetricsText::new();
        out.histogram_with_exemplars(
            "m",
            &[("endpoint", "/analyze")],
            &h.snapshot(),
            &h.exemplars(),
        );
        let text = out.into_string();
        let expo = parse(&text).expect("exemplar body parses");
        let with_exemplars: Vec<_> = expo
            .samples
            .iter()
            .filter(|s| s.exemplar.is_some())
            .collect();
        assert_eq!(with_exemplars.len(), 2, "{text}");
        let first = with_exemplars[0].exemplar.as_ref().unwrap();
        assert_eq!(first.trace_id(), Some("000000000000000000000000deadbeef"));
        assert_eq!(first.value, 3.0);
        let second = with_exemplars[1].exemplar.as_ref().unwrap();
        assert_eq!(second.trace_id(), Some("0000000000000000000000000000cafe"));
        assert_eq!(second.value, 70_000.0);
        // The bucket counts themselves are unaffected by exemplar suffixes.
        assert_eq!(
            expo.value("m_count", &[("endpoint", "/analyze")]),
            Some(2.0)
        );
    }

    #[test]
    fn exemplars_are_rejected_off_bucket_lines_but_hash_labels_are_not_exemplars() {
        let bad = "m_total 3 # {trace_id=\"00ff\"} 3\n";
        assert!(parse(bad).unwrap_err().contains("non-bucket"));
        // A label value containing the separator text parses as a plain
        // sample, not an exemplar.
        let sneaky = "m_total{path=\"a # b\"} 3\n";
        let expo = parse(sneaky).unwrap();
        assert_eq!(expo.value("m_total", &[("path", "a # b")]), Some(3.0));
        assert!(expo.samples[0].exemplar.is_none());
    }

    #[test]
    fn registered_histograms_render_with_exemplars() {
        let h = crate::span::histogram("expo_test_exemplar_family", "endpoint", "/t");
        h.record_with_exemplar(9, 0xF00D);
        let mut out = MetricsText::new();
        render_registered(&mut out);
        let text = out.into_string();
        let expo = parse(&text).expect("registry body parses");
        assert!(
            expo.samples.iter().any(|s| {
                s.name == "expo_test_exemplar_family_bucket"
                    && s.exemplar
                        .as_ref()
                        .and_then(ParsedExemplar::trace_id)
                        .is_some_and(|t| t.ends_with("f00d"))
            }),
            "{text}"
        );
    }
}
