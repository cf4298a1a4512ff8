//! Per-worker shard checkpoints and their merge-on-resume naming
//! scheme.
//!
//! Subprocess workers stream every finished cell to a private *shard*
//! file next to the main checkpoint (`ck.jsonl` →
//! `ck.shard-<slot>.jsonl`). Shards are write-only crash insurance: on
//! resume the coordinator discovers them, feeds them to
//! [`dtn_sim::sweep::SweepLedger::open`] as merge sources (main
//! checkpoint first, so it wins dedup ties), and the rewrite folds
//! every survivor — including torn tails — into the main file. The
//! coordinator then deletes consumed shards; workers recreate them
//! fresh on spawn.

use std::path::{Path, PathBuf};

/// The shard checkpoint path for worker slot `slot` of a fleet whose
/// main checkpoint is `main`: `<stem>.shard-<slot>.jsonl` (the
/// `.jsonl` extension is re-appended if `main` had it).
pub fn shard_path(main: &Path, slot: usize) -> PathBuf {
    let s = main.to_string_lossy();
    let stem = s.strip_suffix(".jsonl").unwrap_or(&s);
    PathBuf::from(format!("{stem}.shard-{slot}.jsonl"))
}

/// Finds every shard checkpoint a previous (killed) fleet run left next
/// to `main`, in deterministic (sorted-path) order. Missing directory
/// or unreadable entries simply yield nothing — discovery is
/// best-effort, like checkpoint loading itself.
pub fn discover_shards(main: &Path) -> Vec<PathBuf> {
    let s = main.to_string_lossy();
    let stem = s.strip_suffix(".jsonl").unwrap_or(&s).to_string();
    let stem_name = match Path::new(&stem).file_name() {
        Some(name) => name.to_string_lossy().into_owned(),
        None => return Vec::new(),
    };
    let dir = match main.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{stem_name}.shard-");
    let mut shards = Vec::new();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return shards;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(middle) = name
            .strip_prefix(prefix.as_str())
            .and_then(|rest| rest.strip_suffix(".jsonl"))
        else {
            continue;
        };
        // Only accept `<prefix><digits>.jsonl` — don't swallow an
        // unrelated file that happens to share the stem.
        if !middle.is_empty() && middle.bytes().all(|b| b.is_ascii_digit()) {
            shards.push(dir.join(name.as_ref()));
        }
    }
    shards.sort();
    shards
}

/// Removes shard files that were folded into the main checkpoint.
/// Best-effort: a shard that cannot be removed is merely re-merged (and
/// deduplicated) on the next resume.
pub fn remove_shards(shards: &[PathBuf]) {
    for shard in shards {
        let _ = std::fs::remove_file(shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_paths_keep_the_jsonl_extension() {
        assert_eq!(
            shard_path(Path::new("/tmp/ck.jsonl"), 2),
            PathBuf::from("/tmp/ck.shard-2.jsonl")
        );
        assert_eq!(
            shard_path(Path::new("ck"), 0),
            PathBuf::from("ck.shard-0.jsonl")
        );
    }

    #[test]
    fn discovery_finds_only_matching_numbered_shards() {
        let dir = std::env::temp_dir().join(format!("dtn-fleet-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let main = dir.join("ck.jsonl");
        for name in [
            "ck.shard-0.jsonl",
            "ck.shard-1.jsonl",
            "ck.shard-10.jsonl",
            "ck.shard-x.jsonl",    // non-numeric: not a shard
            "other.shard-0.jsonl", // different stem
            "ck.jsonl",
        ] {
            std::fs::write(dir.join(name), "").expect("touch");
        }
        let found = discover_shards(&main);
        assert_eq!(
            found,
            vec![
                dir.join("ck.shard-0.jsonl"),
                dir.join("ck.shard-1.jsonl"),
                dir.join("ck.shard-10.jsonl"),
            ]
        );
        remove_shards(&found);
        assert!(found.iter().all(|p| !p.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discovery_of_missing_directory_is_empty() {
        assert!(discover_shards(Path::new("/no/such/dir/ck.jsonl")).is_empty());
    }
}
