//! The one writer behind every committed `BENCH_*.json` document.
//!
//! Every bench renders through [`Envelope`], so all documents share one
//! frame:
//!
//! ```text
//! {
//!   "bench": "<name>",
//!   "smoke": <bool>,            // the CI-sized profile, not the committed one
//!   "host_cores": <int>,        // CPUs the OS made available to the run
//!   "peak_rss_bytes": <int|null>,
//!   "note": "<what the numbers mean>",   // omitted when a bench has none
//!   "<bench field>": <value>,   // each bench's own fields, one per line
//!   ...
//!   "points": [                 // omitted when a bench has no points
//!     {<one point per line>},
//!     ...
//!   ]
//! }
//! ```
//!
//! Scalars sit one per line, so line tools (`sed`, `grep`) can pull a
//! field out of a document; lists and objects render inline on one line.
//!
//! `peak_rss_bytes` is Linux's `VmHWM` ("high-water mark") from
//! `/proc/self/status`, the kernel's own peak-RSS counter for the whole
//! process since start. There is no portable equivalent, so on other
//! platforms it is `null` rather than a fabricated number.

use std::fmt::Write as _;

/// One JSON value of a bench document.
#[derive(Debug)]
pub enum Value {
    /// A non-negative integer.
    Int(u64),
    /// A float with a fixed number of decimals (`null` if not finite).
    Float(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// A list, rendered inline.
    List(Vec<Value>),
    /// An object of scalar fields, rendered inline.
    Object(Vec<(&'static str, Value)>),
}

impl Value {
    /// A 64-bit digest as its 16-digit lowercase hex string.
    pub fn hex(v: u64) -> Value {
        Value::Str(format!("{v:016x}"))
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v, d) if v.is_finite() => {
                let _ = write!(out, "{v:.d$}");
            }
            Value::Float(..) | Value::Null => out.push_str("null"),
            Value::Str(s) => render_str(s, out),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<Option<u64>> for Value {
    fn from(v: Option<u64>) -> Value {
        v.map_or(Value::Null, Value::Int)
    }
}

/// One bench document: the fixed header, the bench's own fields, and its
/// points.
#[derive(Debug)]
pub struct Envelope {
    /// The bench's name (`repro <bench>`).
    pub bench: &'static str,
    /// Whether the run used the CI-sized smoke profile.
    pub smoke: bool,
    /// CPUs the OS made available to the run.
    pub host_cores: usize,
    /// Peak resident set of the process (`None` off-Linux).
    pub peak_rss_bytes: Option<u64>,
    /// What the numbers mean, if the bench says.
    pub note: Option<&'static str>,
    /// The bench's own fields, in output order.
    pub fields: Vec<(&'static str, Value)>,
    /// One value per measured point, if the bench has points.
    pub points: Option<Vec<Value>>,
}

impl Envelope {
    /// Render as the document's JSON text.
    pub fn render(&self) -> String {
        let header = [
            ("bench", self.bench.into()),
            ("smoke", self.smoke.into()),
            ("host_cores", self.host_cores.into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
        ];
        let note = self.note.map(|n| ("note", n.into()));
        let entries = header.iter().chain(&note).chain(&self.fields);
        let mut out = String::from("{\n");
        for (i, (k, v)) in entries.enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            render_str(k, &mut out);
            out.push_str(": ");
            v.render(&mut out);
        }
        if let Some(points) = &self.points {
            out.push_str(",\n  \"points\": [");
            for (i, p) in points.iter().enumerate() {
                out.push_str(if i > 0 { ",\n    " } else { "\n    " });
                p.render(&mut out);
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

/// The process's peak resident set in bytes (`VmHWM`), or `None` where
/// `/proc/self/status` does not exist or cannot be parsed.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Write `json` to `path` and say so on stdout, or exit 1 with the error.
pub fn write_or_exit(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_value_kind_exactly() {
        let doc = Envelope {
            bench: "demo",
            smoke: true,
            host_cores: 2,
            peak_rss_bytes: None,
            note: Some("a \"quoted\" C:\\path"),
            fields: vec![
                ("count", 7u64.into()),
                ("ratio", Value::Float(1.23456, 3)),
                ("whole", Value::Float(10.0, 0)),
                ("nan", Value::Float(f64::NAN, 2)),
                ("digest", Value::hex(0xbeef)),
                ("ok", false.into()),
                ("missing", Value::Null),
                ("ids", Value::List(vec![1u64.into(), 2u64.into()])),
                (
                    "fit",
                    Value::Object(vec![("mb", Value::Float(8.31, 1)), ("n", 3u64.into())]),
                ),
            ],
            points: Some(vec![
                Value::Object(vec![("pipes", 1u64.into()), ("tag", "a\tb".into())]),
                Value::Object(vec![("pipes", 2u64.into()), ("tag", "\u{1}".into())]),
            ]),
        };
        let want = r#"{
  "bench": "demo",
  "smoke": true,
  "host_cores": 2,
  "peak_rss_bytes": null,
  "note": "a \"quoted\" C:\\path",
  "count": 7,
  "ratio": 1.235,
  "whole": 10,
  "nan": null,
  "digest": "000000000000beef",
  "ok": false,
  "missing": null,
  "ids": [1, 2],
  "fit": {"mb": 8.3, "n": 3},
  "points": [
    {"pipes": 1, "tag": "a\tb"},
    {"pipes": 2, "tag": "\u0001"}
  ]
}
"#;
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn omits_absent_note_and_points() {
        let doc = Envelope {
            bench: "replay",
            smoke: false,
            host_cores: 1,
            peak_rss_bytes: Some(4096),
            note: None,
            fields: vec![("ok", true.into())],
            points: None,
        };
        let want = "{\n  \"bench\": \"replay\",\n  \"smoke\": false,\n  \"host_cores\": 1,\n  \
                    \"peak_rss_bytes\": 4096,\n  \"ok\": true\n}\n";
        assert_eq!(doc.render(), want);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_reports_a_positive_peak() {
        // Touch a few megabytes so the high-water mark is unambiguous.
        let buf = vec![1u8; 4 << 20];
        assert!(buf.iter().map(|&b| b as u64).sum::<u64>() > 0);
        let rss = peak_rss_bytes().expect("VmHWM exists on Linux");
        assert!(rss > 4 << 20, "peak rss {rss} implausibly small");
    }
}
