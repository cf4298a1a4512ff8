//! Readers for what the `dtn-scenario` CLI leaves behind: the sweep
//! checkpoint (one JSON object per finished cell), the `fleet:` summary
//! line on stderr, and `VmHWM` in `/proc/<pid>/status`.
//!
//! Malformed input is an `Err`, never a panic: the benchmark counts it
//! as a failed operation.

use sdsrp::validate::ReportFingerprint;
use serde_json::Value;
use std::path::Path;

/// The fields of one checkpoint line the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointCell {
    /// Position in the sweep's job list.
    pub index: usize,
    /// Hash of the cell's canonical config JSON.
    pub config_hash: String,
    /// Wall-clock time of the cell, seconds.
    pub duration_secs: f64,
    /// The cell's run fingerprint.
    pub fingerprint: ReportFingerprint,
}

/// Parses checkpoint JSONL text. Every non-blank line must be a
/// complete cell record.
pub fn parse_checkpoint(text: &str) -> Result<Vec<CheckpointCell>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_cell(line).map_err(|e| format!("checkpoint line {}: {e}", i + 1)))
        .collect()
}

/// Reads and parses a checkpoint file; a missing file is an error.
pub fn read_checkpoint(path: &Path) -> Result<Vec<CheckpointCell>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    parse_checkpoint(&text)
}

fn parse_cell(line: &str) -> Result<CheckpointCell, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not JSON ({e:?})"))?;
    let field = |name: &str| v.get(name).ok_or_else(|| format!("no `{name}`"));
    let index = field("index")?
        .as_u64()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or("`index` is not an index")?;
    let config_hash = field("config_hash")?
        .as_str()
        .ok_or("`config_hash` is not a string")?
        .to_string();
    let duration_secs = field("duration_secs")?
        .as_f64()
        .filter(|d| d.is_finite() && *d >= 0.0)
        .ok_or("`duration_secs` is not a duration")?;
    let fingerprint = serde_json::from_value(field("fingerprint")?)
        .map_err(|e| format!("bad `fingerprint` ({e:?})"))?;
    Ok(CheckpointCell {
        index,
        config_hash,
        duration_secs,
        fingerprint,
    })
}

/// Counters from the coordinator's `fleet:` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetSummary {
    /// Cells re-dispatched after a worker was lost.
    pub retries: u64,
    /// Workers lost during the sweep.
    pub workers_lost: u64,
}

/// Finds the summary line (`fleet: N workers (T), D dispatched, R
/// retries, L lost, S wall`) in `stderr`. `Ok(None)` when there is
/// none (an in-process sweep); `Err` when one is there but unreadable.
pub fn parse_fleet_line(stderr: &str) -> Result<Option<FleetSummary>, String> {
    // Progress output redraws with '\r'; a line's text is what follows
    // the last one.
    let Some(line) = stderr
        .lines()
        .map(|l| l.rsplit('\r').next().unwrap_or(l).trim())
        .find(|l| l.starts_with("fleet: ") && l.contains(" dispatched"))
    else {
        return Ok(None);
    };
    let count = |suffix: &str| {
        line.split(", ")
            .find_map(|part| part.strip_suffix(suffix))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("fleet line without a `{}` count: {line:?}", suffix.trim()))
    };
    Ok(Some(FleetSummary {
        retries: count(" retries")?,
        workers_lost: count(" lost")?,
    }))
}

/// `VmHWM` of a `/proc/<pid>/status` text, in kB; `None` when absent
/// (the process already exited) or unreadable.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}
