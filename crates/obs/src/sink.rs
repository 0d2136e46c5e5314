//! Event-stream sinks: JSONL encoding, decoding, and file output.
//!
//! JSONL (one JSON document per line) keeps the format greppable and
//! streamable: `obsdump` and the CI reconciliation step parse it back
//! with [`from_jsonl`] without loading any schema machinery.

use crate::event::Event;
use serde::Serialize;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Encode events as JSONL: one event per line, in stream order, each
/// written straight into the one output buffer.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Decode a JSONL event stream. Blank lines are skipped.
///
/// # Errors
///
/// Returns a message naming the 1-based line number and the parse error
/// for the first malformed line.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event: Event = serde_json::from_str(line)
            .map_err(|e| format!("line {}: malformed event ({e}): {line}", i + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// Write events as JSONL to `path`, creating parent directories as
/// needed.
///
/// # Errors
///
/// Propagates any I/O failure from directory creation or the write.
pub fn write_jsonl<P: AsRef<Path>>(path: P, events: &[Event]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut file = fs::File::create(path)?;
    file.write_all(to_jsonl(events).as_bytes())?;
    file.flush()
}

/// Slugify a free-form trial label for use in a filename: lowercase
/// alphanumerics, runs of anything else collapsed to single dashes, outer
/// dashes trimmed. Deterministic, so trial filenames are stable across
/// runs and worker counts.
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Trial-scoped sink: write one trial's event stream under `dir` as
/// `trial_<idx>_<label-slug>.jsonl` and return the path written. The
/// sweep orchestrator gives each concurrent trial its own file, so
/// streams never interleave and a trial's JSONL is replayable in
/// isolation (`obsdump`-compatible).
///
/// # Errors
///
/// Propagates any I/O failure from directory creation or the write.
pub fn write_trial_jsonl<P: AsRef<Path>>(
    dir: P,
    trial_idx: usize,
    label: &str,
    events: &[Event],
) -> io::Result<PathBuf> {
    let slugged = slug(label);
    let name = if slugged.is_empty() {
        format!("trial_{trial_idx:03}.jsonl")
    } else {
        format!("trial_{trial_idx:03}_{slugged}.jsonl")
    };
    let path = dir.as_ref().join(name);
    write_jsonl(&path, events)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OutcomeKind, Phase};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RoundStart {
                round: 0,
                sim_s: 0.0,
                eligible: 20,
                selected: 8,
            },
            Event::PhaseSpan {
                round: 0,
                phase: Phase::Execute,
                wall_us: 0,
            },
            Event::ClientOutcome {
                round: 0,
                client: 5,
                attempt: 1,
                outcome: OutcomeKind::Completed,
                sim_duration_s: 431.25,
            },
            Event::RoundEnd {
                round: 0,
                sim_s: 1800.0,
                completed: 7,
                dropped: 1,
                quarantined: 0,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_stream_order() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).expect("parses");
        assert_eq!(back, events);
    }

    #[test]
    fn blank_lines_are_skipped_and_bad_lines_located() {
        let events = sample_events();
        let mut text = to_jsonl(&events[..2]);
        text.push_str("\n\n");
        text.push_str(&to_jsonl(&events[2..]));
        let back = from_jsonl(&text).expect("parses despite blanks");
        assert_eq!(back, events);

        let err = from_jsonl("{\"NotAnEvent\":{}}").expect_err("must fail");
        assert!(err.contains("line 1"), "error was: {err}");
    }

    /// Streams written while spans could carry an overlap payload (a
    /// number, or `null` on spans without one) still replay; the extra key
    /// is ignored.
    #[test]
    fn old_phase_span_lines_with_overlap_still_parse() {
        let old = r#"{"PhaseSpan":{"round":0,"phase":"Execute","wall_us":9,"overlapped_us":7}}"#;
        let want = Event::PhaseSpan {
            round: 0,
            phase: Phase::Execute,
            wall_us: 9,
        };
        assert_eq!(from_jsonl(old).expect("parses"), vec![want.clone()]);
        let old_null = old.replace(":7}", ":null}");
        assert_eq!(from_jsonl(&old_null).expect("parses"), vec![want.clone()]);
        assert_eq!(
            to_jsonl(&[want]),
            "{\"PhaseSpan\":{\"round\":0,\"phase\":\"Execute\",\"wall_us\":9}}\n"
        );
    }

    #[test]
    fn trial_sink_slugs_labels_and_replays() {
        let dir = std::env::temp_dir().join("float_obs_trial_sink_test");
        let _ = fs::remove_dir_all(&dir);
        let events = sample_events();
        let path = write_trial_jsonl(&dir, 7, "cohort10-ep2-lr0.05/Oort @fedyogi", &events)
            .expect("writes");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some("trial_007_cohort10-ep2-lr0-05-oort-fedyogi.jsonl")
        );
        let text = fs::read_to_string(&path).expect("readable");
        assert_eq!(from_jsonl(&text).expect("replays"), events);
        // Empty/degenerate labels still produce a valid, indexed name.
        let path = write_trial_jsonl(&dir, 3, "///", &events).expect("writes");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some("trial_003.jsonl")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_jsonl_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("float_obs_sink_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("events.jsonl");
        let events = sample_events();
        write_jsonl(&path, &events).expect("writes");
        let text = fs::read_to_string(&path).expect("readable");
        assert_eq!(from_jsonl(&text).expect("parses"), events);
        let _ = fs::remove_dir_all(&dir);
    }
}
