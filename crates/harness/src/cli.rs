//! Shared handling of the observability flags every harness binary
//! accepts:
//!
//! * `--stats [text|json]` — after the normal output, print the metrics
//!   registry (everything the instrumented crates counted during the run);
//! * `--trace-out <file.json>` — write the phase trace as Chrome
//!   `trace_event` JSON (loadable in `chrome://tracing` / Perfetto);
//! * `--provenance-out <file.jsonl>` — enable the decision-provenance sink
//!   and write every [`hli_obs::DecisionRecord`] the optimizers emitted as
//!   one JSON object per line.
//!
//! [`ObsArgs::extract`] strips the flags out of an argument vector before
//! the binary's own parsing, so every binary gains them with two lines.

use hli_obs::MetricsSnapshot;

/// Output format for `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    Text,
    Json,
}

/// The parsed observability flags.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    pub stats: Option<StatsFormat>,
    pub trace_out: Option<String>,
    pub provenance_out: Option<String>,
}

impl ObsArgs {
    /// Remove `--stats [text|json]`, `--trace-out <file>` and
    /// `--provenance-out <file>` from `args` (leaving the binary's own
    /// arguments untouched) and return them. Seeing `--provenance-out`
    /// enables the global decision sink, so the passes that run afterwards
    /// record; without the flag they take the disabled fast path.
    pub fn extract(args: &mut Vec<String>) -> Result<ObsArgs, String> {
        let mut obs = ObsArgs::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--stats" => {
                    args.remove(i);
                    obs.stats = Some(match args.get(i).map(String::as_str) {
                        Some("json") => {
                            args.remove(i);
                            StatsFormat::Json
                        }
                        Some("text") => {
                            args.remove(i);
                            StatsFormat::Text
                        }
                        // Bare `--stats` defaults to the human format.
                        _ => StatsFormat::Text,
                    });
                }
                "--trace-out" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--trace-out needs a file path".into());
                    }
                    obs.trace_out = Some(args.remove(i));
                }
                "--provenance-out" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--provenance-out needs a file path".into());
                    }
                    obs.provenance_out = Some(args.remove(i));
                    hli_obs::provenance::global().set_enabled(true);
                }
                _ => i += 1,
            }
        }
        Ok(obs)
    }

    /// Emit whatever was requested, reading the global registry/tracer.
    pub fn emit(&self) {
        let mut snap = hli_obs::metrics::global().snapshot();
        if self.stats.is_some() {
            // Surface the lossy span buffer's drop count alongside the
            // metrics so a truncated trace is visible in the same snapshot
            // that would otherwise silently under-report.
            let trace = hli_obs::trace::global().dropped();
            if trace > 0 {
                snap.counters.insert("obs.trace.dropped".into(), trace);
            }
            // Memory gauges ride the same snapshot: machine/run dependent,
            // so they are gauges (`obsdiff` skips gauges by default and the
            // jobs-determinism gates only compare scoped snapshots, which
            // never pass through this global-emit path).
            hli_obs::mem::stamp_rss(&mut snap);
        }
        self.emit_snapshot(&snap);
    }

    /// Emit with an explicit metrics snapshot (stats go to stdout after
    /// the normal output; the trace goes to the requested file).
    pub fn emit_snapshot(&self, snap: &MetricsSnapshot) {
        match self.stats {
            Some(StatsFormat::Text) => print!("{}", snap.to_text()),
            Some(StatsFormat::Json) => print!("{}", snap.to_json()),
            None => {}
        }
        if let Some(path) = &self.trace_out {
            let tracer = hli_obs::trace::global();
            match std::fs::write(path, tracer.to_chrome_json()) {
                Ok(()) => eprintln!(
                    "wrote {} span(s) to {path} (chrome://tracing format)",
                    tracer.finished_spans().len()
                ),
                Err(e) => {
                    eprintln!("cannot write trace to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.provenance_out {
            let records = hli_obs::provenance::global().drain();
            // A header record leads the file so consumers can reject
            // artifacts from a different schema generation. It is added at
            // the file-write layer only: in-memory `to_jsonl` output (what
            // the determinism tests byte-compare) stays header-free.
            let body = format!(
                "{{\"schema_version\": {}, \"kind\": \"provenance\"}}\n{}",
                hli_obs::SCHEMA_VERSION,
                hli_obs::provenance::to_jsonl(&records)
            );
            match std::fs::write(path, body) {
                Ok(()) => eprintln!("wrote {} decision record(s) to {path} (JSONL)", records.len()),
                Err(e) => {
                    eprintln!("cannot write provenance to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_strips_obs_flags_only() {
        let mut args = v(&["64", "--stats", "json", "12", "--trace-out", "t.json"]);
        let obs = ObsArgs::extract(&mut args).unwrap();
        assert_eq!(obs.stats, Some(StatsFormat::Json));
        assert_eq!(obs.trace_out.as_deref(), Some("t.json"));
        assert_eq!(args, v(&["64", "12"]));
    }

    #[test]
    fn bare_stats_defaults_to_text() {
        let mut args = v(&["--stats"]);
        let obs = ObsArgs::extract(&mut args).unwrap();
        assert_eq!(obs.stats, Some(StatsFormat::Text));
        assert!(args.is_empty());
    }

    #[test]
    fn trace_out_requires_a_path() {
        let mut args = v(&["--trace-out"]);
        assert!(ObsArgs::extract(&mut args).is_err());
    }

    #[test]
    fn provenance_out_extracts_and_enables_the_global_sink() {
        let mut args = v(&["build", "x.c", "--provenance-out", "p.jsonl", "--cse"]);
        let obs = ObsArgs::extract(&mut args).unwrap();
        assert_eq!(obs.provenance_out.as_deref(), Some("p.jsonl"));
        assert_eq!(args, v(&["build", "x.c", "--cse"]));
        assert!(hli_obs::provenance::global().is_enabled());
        // Other unit tests in this process assert plain-run behaviour;
        // put the global sink back the way the process started.
        hli_obs::provenance::global().set_enabled(false);
        hli_obs::provenance::global().drain();
        let mut bare = v(&["--provenance-out"]);
        assert!(ObsArgs::extract(&mut bare).is_err());
    }

    #[test]
    fn untouched_without_flags() {
        let mut args = v(&["build", "x.c", "--cse"]);
        let obs = ObsArgs::extract(&mut args).unwrap();
        assert!(obs.stats.is_none() && obs.trace_out.is_none());
        assert_eq!(args, v(&["build", "x.c", "--cse"]));
    }
}
