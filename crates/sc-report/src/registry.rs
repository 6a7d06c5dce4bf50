//! Loading record files from disk: single files or whole registry
//! directories (`results/runs/`, `results/golden/`).

use std::path::{Path, PathBuf};

use crate::record::{parse_record_file, RunRecord};

/// Load every record reachable from `path`: the file itself, or every
/// `*.json` file directly inside it when it is a directory (sorted by
/// file name, so registry iteration order is stable across platforms).
///
/// # Errors
///
/// I/O failures and record-file parse errors, prefixed with the
/// offending path.
pub fn load_path(path: &Path) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    for file in record_files(path)? {
        let doc = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let mut batch = parse_record_file(&doc).map_err(|e| format!("{}: {e}", file.display()))?;
        records.append(&mut batch);
    }
    Ok(records)
}

/// Load records from several paths (files or directories), concatenated
/// in argument order.
///
/// # Errors
///
/// Propagates the first [`load_path`] failure.
pub fn load_paths(paths: &[PathBuf]) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    for p in paths {
        records.extend(load_path(p)?);
    }
    Ok(records)
}

/// The record files `path` denotes: itself for a file, its sorted
/// `*.json` children for a directory.
///
/// # Errors
///
/// Nonexistent paths and unreadable directories. A directory with no
/// `*.json` files is an error too — an empty registry where records are
/// expected is the kind of silent no-op a gate must reject.
pub fn record_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no *.json record files found", path.display()));
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{render_record_file, RunRecord, SCHEMA_VERSION};

    fn sample(bench: &str, workload: &str) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: workload.into(),
            git_sha: "sha".into(),
            config_digest: 7,
            checksum: 9,
            cycles: 100,
            baseline_cycles: None,
            wall_ms: 1.0,
            attr: [20, 20, 20, 20, 20],
            cost: None,
            host: None,
        }
    }

    #[test]
    fn loads_files_and_directories() {
        let dir = std::env::temp_dir().join("sc_report_registry_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.json"), render_record_file(&[sample("b", "w")])).unwrap();
        std::fs::write(dir.join("a.json"), render_record_file(&[sample("a", "w")])).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a record file").unwrap();

        let records = load_path(&dir).unwrap();
        // Sorted by file name: a.json before b.json.
        assert_eq!(records.iter().map(|r| r.bench.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        let single = load_path(&dir.join("b.json")).unwrap();
        assert_eq!(single.len(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_registries_are_errors() {
        let dir = std::env::temp_dir().join("sc_report_registry_empty_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_path(&dir).unwrap_err().contains("no *.json"));
        assert!(load_path(Path::new("/nonexistent/registry")).is_err());
        // A schema-mismatched file fails loudly with its path.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, format!("{{\"schema\":{},\"records\":[]}}", SCHEMA_VERSION + 1))
            .unwrap();
        let err = load_path(&dir).unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
