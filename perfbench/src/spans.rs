//! The benchmark's own spans around calls into each layer, recorded with
//! `psj_obs::TraceSink` and written as Chrome-trace JSONL. The program's
//! internal trace hooks stay off, so traced and untraced runs measure the
//! same program.

use psj_obs::TraceSink;
use std::path::Path;
use std::sync::Arc;

/// Thread row of the benchmark's main thread.
pub const MAIN: u32 = 0;

/// Thread row of serving client `c`.
pub fn client_row(c: usize) -> u32 {
    100 + c as u32
}

/// A span recorder; the disabled form records nothing.
#[derive(Clone, Default)]
pub struct Spans {
    sink: Option<Arc<TraceSink>>,
}

impl Spans {
    /// A recorder that drops everything.
    pub fn off() -> Spans {
        Spans { sink: None }
    }

    /// A recorder keeping up to `max_events` events.
    pub fn on(max_events: usize) -> Spans {
        let sink = TraceSink::new(max_events);
        sink.set_thread_name(MAIN, "benchmark main");
        Spans { sink: Some(sink) }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Names thread row `tid` in the trace.
    pub fn name_row(&self, tid: u32, name: &str) {
        if let Some(s) = &self.sink {
            s.set_thread_name(tid, name);
        }
    }

    /// Runs `f` inside a span `name` on row `tid`. Spans of one op pass
    /// the same `op` id.
    pub fn span<R>(&self, tid: u32, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        match &self.sink {
            None => f(),
            Some(s) => {
                let start = s.now_ns();
                let r = f();
                s.span(tid, name, "bench", start, &[("op", op)]);
                r
            }
        }
    }

    /// This recorder with spans forced off when `on` is false, so one
    /// loop can alternate traced and untraced ops.
    pub fn only_if(&self, on: bool) -> Spans {
        if on {
            self.clone()
        } else {
            Spans::off()
        }
    }

    /// Writes the trace to `path` and checks it with
    /// `psj_obs::validate_jsonl`; returns the number of spans.
    pub fn write_validated(&self, path: &Path) -> Result<usize, String> {
        let sink = self.sink.as_ref().ok_or("tracing is off")?;
        if sink.dropped() > 0 {
            return Err(format!("trace dropped {} events", sink.dropped()));
        }
        sink.write_to_file(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let summary = psj_obs::validate_jsonl(&text)
            .map_err(|e| format!("{} does not validate: {e}", path.display()))?;
        Ok(summary.spans)
    }
}
