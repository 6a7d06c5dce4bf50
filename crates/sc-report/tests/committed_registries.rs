//! The committed registries, `results/golden` and `results/runs`, are
//! canonical: every file parses under the current record schema, every
//! record round-trips, and each file is byte for byte what
//! `render_record_file` writes for its own parse.

use std::path::{Path, PathBuf};

fn record_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn committed_registries_are_canonical() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for dir in ["golden", "runs"] {
        let files = record_files(&results.join(dir));
        assert!(!files.is_empty(), "results/{dir} holds no record file");
        for path in files {
            let doc = std::fs::read_to_string(&path).expect("a readable record file");
            let records = sc_report::parse_record_file(&doc)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(!records.is_empty(), "{} holds no record", path.display());
            for r in &records {
                r.round_trip().unwrap_or_else(|e| panic!("{}: {}: {e}", path.display(), r.key()));
            }
            assert!(
                doc == sc_report::render_record_file(&records),
                "{} is not what render_record_file writes for its records",
                path.display()
            );
        }
    }
}
