//! `BENCH_pipeline.json` history: loading, normalizing, and appending.
//!
//! The file is an append-only trajectory — one JSON object per recorded run
//! under a `"history"` array — written and read by `perfbench` and
//! `loadgen` without any JSON library: entries are flat-ish objects whose
//! strings never contain braces, so brace balancing splits them and
//! substring scans extract fields.
//!
//! The schema has grown across sessions: early entries predate the
//! `entry`/`rev` stamps, and entries before the execution-tier and
//! cache-mode work lack `exec_tier`/`cache_mode`. [`load_history`] absorbs
//! all vintages: every entry is backfilled with defaults on read
//! ([`normalize_entry`]) and the result is ordered by its `entry` index —
//! so tooling downstream can rely on every stamp existing and on
//! chronological order, without this file ever rewriting history it did not
//! append.

use std::fmt::Write as _;

/// Splits the objects of a JSON array body by brace balancing (entries are
/// flat-ish objects written by this tool family; strings never contain
/// braces).
pub fn split_objects(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(body[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts the numeric value following `"key":` inside `scope`.
pub fn json_field(scope: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let pos = scope.find(&pat)? + pat.len();
    let rest = scope[pos..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string value following `"key":` inside `scope` (no escape
/// handling — history strings are plain identifiers).
pub fn json_string_field(scope: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let pos = scope.find(&pat)? + pat.len();
    let rest = scope[pos..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// This entry's `entry` index, if stamped.
pub fn entry_index(entry: &str) -> Option<u64> {
    json_field(entry, "entry").map(|v| v as u64)
}

/// Backfills the stamps an entry's vintage may predate, so every entry a
/// reader sees carries `entry`, `rev`, `exec_tier`, and `cache_mode`:
/// missing index and revision default to the positional index `i` and
/// `"unknown"` (as before), and the PR-6-era execution-tier / cache-mode
/// stamps default to `"unknown"` too — absent keys must read as "not
/// recorded", never crash a reader or collate entries wrongly.
pub fn normalize_entry(e: &str, i: usize) -> String {
    let mut inserts = String::new();
    if !e.contains("\"entry\":") {
        let _ = write!(inserts, "\"entry\": {i}, ");
    }
    if !e.contains("\"rev\":") {
        inserts.push_str("\"rev\": \"unknown\", ");
    }
    if !e.contains("\"exec_tier\":") {
        inserts.push_str("\"exec_tier\": \"unknown\", ");
    }
    if !e.contains("\"cache_mode\":") {
        inserts.push_str("\"cache_mode\": \"unknown\", ");
    }
    if inserts.is_empty() {
        return e.to_string();
    }
    let body = e.trim_start().strip_prefix('{').unwrap_or(e).trim_start();
    format!("{{{inserts}{body}")
}

/// The most recent entry a suite run may print per-stage deltas against:
/// it has a `"sequential"` scope (`loadgen`'s daemon entries and the
/// incremental entries do not) and the same `exec_tier` and `cache_mode`,
/// read with [`normalize_entry`]'s defaults. A cold dense run is never
/// compared with a warm or super-tier one.
pub fn last_comparable_entry<'a>(
    history: &'a [String],
    exec_tier: &str,
    cache_mode: &str,
) -> Option<&'a String> {
    let stamp =
        |e: &str, key: &str| json_string_field(e, key).unwrap_or_else(|| "unknown".to_string());
    history.iter().rev().find(|e| {
        e.contains("\"sequential\"")
            && stamp(e, "exec_tier") == exec_tier
            && stamp(e, "cache_mode") == cache_mode
    })
}

/// Loads the history entries of `path`, normalized and ordered by `entry`
/// index. A legacy single-snapshot file (no `"history"` key) becomes the
/// first entry; a missing file is an empty history.
pub fn load_history(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let raw = match text.find("\"history\"") {
        Some(pos) => {
            let Some(open) = text[pos..].find('[') else {
                return Vec::new();
            };
            let Some(close) = text.rfind(']') else {
                return Vec::new();
            };
            split_objects(&text[pos + open + 1..close])
        }
        None => {
            let t = text.trim();
            if t.starts_with('{') {
                vec![t.to_string()]
            } else {
                Vec::new()
            }
        }
    };
    let mut entries: Vec<String> = raw
        .iter()
        .enumerate()
        .map(|(i, e)| normalize_entry(e, i))
        .collect();
    // Order by stamp, not file position: a hand-edited or merged file must
    // not flip "previous entry" semantics. Normalization guarantees the
    // stamp exists; the positional fallback is belt-and-braces. The sort is
    // stable, so same-index entries keep file order.
    entries.sort_by_key(|e| entry_index(e).unwrap_or(u64::MAX));
    entries
}

/// The index a new entry should carry: one past the largest recorded, which
/// survives gaps and out-of-order files where `len()` would collide.
pub fn next_entry_index(history: &[String]) -> u64 {
    history
        .iter()
        .filter_map(|e| entry_index(e))
        .max()
        .map_or(0, |m| m + 1)
}

/// Writes `entries` back as the canonical `{"history": [...]}` layout.
///
/// # Errors
///
/// Filesystem errors from the write.
pub fn write_history(path: &str, entries: &[String]) -> std::io::Result<()> {
    let mut json = String::from("{\n  \"history\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str("    ");
        json.push_str(e);
        if i + 1 < entries.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json)
}

/// The git revision being measured, or `"unknown"` outside a checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), or 0
/// where unavailable. Cumulative over the process, so it is reported once.
pub fn peak_rss_kb() -> u64 {
    if cfg!(target_os = "linux") {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's own checked-in trajectory: every vintage of entry
    /// must load with all four stamps present and in `entry` order — the
    /// oldest records predate `exec_tier`/`cache_mode` (and that is exactly
    /// what this test pins the tolerance for).
    #[test]
    fn checked_in_history_loads_normalized() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
        let entries = load_history(&path.to_string_lossy());
        assert!(
            entries.len() >= 4,
            "expected the checked-in history, got {} entries",
            entries.len()
        );
        let mut prev = None;
        for e in &entries {
            let idx = entry_index(e).expect("entry stamp after normalization");
            if let Some(p) = prev {
                assert!(idx > p, "history not ordered: {idx} after {p}");
            }
            prev = Some(idx);
            for key in ["rev", "exec_tier", "cache_mode"] {
                assert!(
                    json_string_field(e, key).is_some(),
                    "entry {idx} missing {key:?} after normalization: {e}"
                );
            }
        }
        assert_eq!(next_entry_index(&entries), prev.unwrap() + 1);
    }

    #[test]
    fn legacy_entry_is_backfilled_without_touching_payload() {
        let legacy = r#"{"config": "best", "sequential": {"wall_s": 1.5}}"#;
        let n = normalize_entry(legacy, 7);
        assert_eq!(entry_index(&n), Some(7));
        assert_eq!(json_string_field(&n, "rev").as_deref(), Some("unknown"));
        assert_eq!(
            json_string_field(&n, "exec_tier").as_deref(),
            Some("unknown")
        );
        assert_eq!(
            json_string_field(&n, "cache_mode").as_deref(),
            Some("unknown")
        );
        assert_eq!(json_field(&n, "wall_s"), Some(1.5));
        // A fully stamped entry passes through untouched.
        let modern =
            r#"{"entry": 3, "rev": "abc", "exec_tier": "superblock", "cache_mode": "warm"}"#;
        assert_eq!(normalize_entry(modern, 9), modern);
    }

    #[test]
    fn load_orders_by_entry_stamp_not_position() {
        let dir = std::env::temp_dir().join(format!("spt-history-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        std::fs::write(
            &path,
            r#"{
  "history": [
    {"entry": 5, "rev": "e", "exec_tier": "t", "cache_mode": "m"},
    {"entry": 2, "rev": "b", "exec_tier": "t", "cache_mode": "m"},
    {"config": "legacy-no-stamp"}
  ]
}
"#,
        )
        .unwrap();
        let entries = load_history(&path.to_string_lossy());
        let idx: Vec<u64> = entries.iter().filter_map(|e| entry_index(e)).collect();
        // The legacy entry backfills to its position (2) and sorts between.
        assert_eq!(idx, vec![2, 2, 5]);
        assert_eq!(next_entry_index(&entries), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("spt-history-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let entries = vec![
            r#"{"entry": 0, "rev": "a", "exec_tier": "t", "cache_mode": "cold", "x": 1}"#
                .to_string(),
            r#"{"entry": 1, "rev": "b", "exec_tier": "t", "cache_mode": "warm", "x": 2}"#
                .to_string(),
        ];
        write_history(&path.to_string_lossy(), &entries).unwrap();
        assert_eq!(load_history(&path.to_string_lossy()), entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deltas_compare_only_like_entries() {
        let seq = r#""sequential": {"wall_s": 1.0}"#;
        let history: Vec<String> = [
            format!(r#"{{"entry": 0, {seq}}}"#),
            format!(r#"{{"entry": 1, "exec_tier": "dense", "cache_mode": "cold", {seq}}}"#),
            format!(r#"{{"entry": 2, "exec_tier": "super", "cache_mode": "cold", {seq}}}"#),
            r#"{"entry": 3, "kind": "daemon", "exec_tier": "dense", "cache_mode": "cold"}"#
                .to_string(),
        ]
        .iter()
        .enumerate()
        .map(|(i, e)| normalize_entry(e, i))
        .collect();
        let index = |e: Option<&String>| e.and_then(|e| entry_index(e));
        // The super-tier entry is the newest suite entry, but not a match.
        assert_eq!(
            index(last_comparable_entry(&history, "dense", "cold")),
            Some(1)
        );
        assert_eq!(
            index(last_comparable_entry(&history, "super", "cold")),
            Some(2)
        );
        // Legacy entries match only under their backfilled stamps.
        assert_eq!(
            index(last_comparable_entry(&history, "unknown", "unknown")),
            Some(0)
        );
        assert_eq!(last_comparable_entry(&history, "dense", "warm"), None);
    }

    #[test]
    fn missing_file_is_empty_history() {
        assert!(load_history("/nonexistent/spt/history.json").is_empty());
        assert_eq!(next_entry_index(&[]), 0);
    }
}
