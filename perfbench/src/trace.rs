//! Spans recorded by the benchmark around its calls into each layer: kept
//! in memory while a phase runs and written out once the run is over.

use std::fmt::Write as _;
use std::path::Path;

/// One timed call or request: `start_ns`/`end_ns` count from the run's
/// epoch; `cause` names what the span belongs to (the phase of a request,
/// the decided tier of an admission, ...), and `id` ties the spans of one
/// request together.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cause: String,
    pub id: String,
}

/// The run's span store.
#[derive(Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, cause: &str, id: &str) {
        self.0.push(Span { name, start_ns, end_ns, cause: cause.to_string(), id: id.to_string() });
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.0.len() * 96);
        for s in &self.0 {
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"cause":"{}","id":"{}"}}"#,
                s.name, s.start_ns, s.end_ns, s.cause, s.id
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
