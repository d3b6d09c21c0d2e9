//! The committed bench files are blessed full runs in the one row
//! format.
//!
//! Every `BENCH_*.json` at the repo root must parse line by line as
//! [`iixml_bench::row`] rows from a full (non-`--quick`) run, each file
//! must belong to a gated bench area and carry only that area's rows,
//! and every area must commit a file that reports each of its gated
//! metrics as a bounded row that passes. This is CONTRIBUTING's "never
//! bless a `--quick` run, never bless a failing gate" rule, checked.

use iixml_bench::{row, AREAS};
use std::path::Path;

#[test]
fn committed_bench_files_are_full_runs_with_every_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    files.sort();
    let mut expected: Vec<String> = AREAS
        .iter()
        .map(|a| format!("BENCH_{}.json", a.name))
        .collect();
    expected.sort();
    assert_eq!(files, expected, "one committed BENCH file per bench area");

    for area in &AREAS {
        let text = std::fs::read_to_string(row::bench_path(area.name)).unwrap();
        let mut rows = Vec::new();
        for line in text.lines() {
            let (r, host) = row::parse(line)
                .unwrap_or_else(|| panic!("{}: not a bench row: {line}", area.name));
            assert!(!host.quick, "{}: blessed from a --quick run", area.name);
            assert!(host.cores >= 1);
            assert_eq!(r.area, area.name, "row filed under the wrong area");
            rows.push(r);
        }
        assert_eq!(
            row::gated(&rows),
            area.gates,
            "{}: the bounded rows must be exactly the area's gates",
            area.name
        );
        for r in &rows {
            assert!(
                r.passes(),
                "{}: committed row fails its bound: {r:?}",
                area.name
            );
        }
    }
}
