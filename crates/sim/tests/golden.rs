//! Golden outputs: every byte the `reproduce` binary prints, checked
//! against the reference files committed under `tests/golden/` at the
//! repository root.
//!
//! - `full.stdout`: the full run at `--jobs 1`;
//! - `quick.stdout`: the `quick` run;
//! - `quick-export/`: the `quick --export` files;
//! - `quick.metrics.jsonl`: the `quick --metrics` stream with every
//!   record's `"timing"` removed.
//!
//! A mismatch names the first exhibit and row that differ. After a change
//! that is meant to move an exhibit, regenerate the files with
//! `BVF_BLESS=1 cargo test -p bvf-sim --test golden`.

use std::path::{Path, PathBuf};
use std::process::Command;

use bvf_obs::json::{self, Value};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("BVF_BLESS").is_some_and(|v| v == "1")
}

/// Run `reproduce` with `args` and return its stdout and stderr.
fn reproduce(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "reproduce {args:?} failed:\n{stderr}");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), stderr)
}

/// A temporary directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bvf_golden_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temporary dir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The label of a fixed-width table row: the text before the first run
/// of two spaces.
fn row_label(line: &str) -> &str {
    line.split("  ").next().unwrap_or(line).trim()
}

/// A line of output as a mismatch message shows it.
fn shown(line: Option<&str>) -> String {
    line.map_or("nothing".to_string(), |l| format!("{l:?}"))
}

/// Where two stdout captures first differ: the exhibit (the last
/// `== id — title ==` header) and the row.
fn stdout_difference(expected: &str, actual: &str) -> Option<String> {
    let mut exhibit = "(before the first exhibit)";
    let mut actual_lines = actual.lines();
    for (n, want) in expected.lines().enumerate() {
        if let Some(header) = want.strip_prefix("== ") {
            exhibit = header.split(' ').next().unwrap_or(header);
        }
        match actual_lines.next() {
            Some(got) if got == want => {}
            got => {
                return Some(format!(
                    "exhibit {exhibit}, row {:?} (line {}): expected {want:?}, got {}",
                    row_label(want),
                    n + 1,
                    shown(got)
                ))
            }
        }
    }
    if let Some(extra) = actual_lines.next() {
        return Some(format!(
            "unexpected output after the last exhibit: {extra:?}"
        ));
    }
    (expected != actual).then(|| "the trailing newlines differ".to_string())
}

/// Where two exhibit tables (`Table::to_json` values) first differ.
fn table_difference(expected: &Value, actual: &Value) -> String {
    let id = expected.get("id").and_then(Value::as_str).unwrap_or("?");
    for key in ["id", "title", "columns"] {
        if expected.get(key) != actual.get(key) {
            return format!("exhibit {id}: its {key} differs");
        }
    }
    let rows = |v: &Value| match v.get("rows") {
        Some(Value::Array(rows)) => rows.clone(),
        _ => Vec::new(),
    };
    let (want, got) = (rows(expected), rows(actual));
    for (i, w) in want.iter().enumerate() {
        if got.get(i) != Some(w) {
            let label = w.get("label").and_then(Value::as_str).unwrap_or("?");
            return format!(
                "exhibit {id}, row {label:?}: expected {}, got {}",
                w.to_json_string(),
                got.get(i)
                    .map_or("no row".to_string(), Value::to_json_string)
            );
        }
    }
    format!(
        "exhibit {id}: {} rows expected, {} printed",
        want.len(),
        got.len()
    )
}

/// Where two scrubbed `--metrics` streams first differ: the exhibit and
/// row of an exhibit record, or the campaign and app of another.
fn metrics_difference(expected: &str, actual: &str) -> Option<String> {
    let mut actual_lines = actual.lines();
    for (n, want) in expected.lines().enumerate() {
        let got = actual_lines.next();
        if got == Some(want) {
            continue;
        }
        let want = json::parse(want).expect("golden metrics parse");
        let what = |key| {
            want.get(key)
                .and_then(Value::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let at = match (want.get("table"), got.and_then(|g| json::parse(g).ok())) {
            (Some(table), Some(got)) => {
                table_difference(table, got.get("table").unwrap_or(&Value::Null))
            }
            _ => format!(
                "{} record, campaign {}, app {}",
                what("record"),
                what("campaign"),
                what("app")
            ),
        };
        return Some(format!("record {}: {at}; got {}", n + 1, shown(got)));
    }
    actual_lines
        .next()
        .map(|extra| format!("unexpected record after the last one: {extra}"))
}

/// Where two `--export` files of one exhibit first differ.
fn export_difference(name: &str, expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exhibit = name.rsplit_once('.').map_or(name, |(stem, _)| stem);
    if name.ends_with(".json") {
        let parse = |text: &str| json::parse(text).unwrap_or(Value::Null);
        return Some(format!(
            "{name}: {}",
            table_difference(&parse(expected), &parse(actual))
        ));
    }
    let mut actual_lines = actual.lines();
    for want in expected.lines() {
        let got = actual_lines.next();
        if got != Some(want) {
            let label = want.split(',').next().unwrap_or(want);
            return Some(format!(
                "{name}: exhibit {exhibit}, row {label:?}: expected {want:?}, got {}",
                shown(got)
            ));
        }
    }
    Some(format!("{name}: exhibit {exhibit} has extra rows"))
}

/// Compare `actual` with golden file `name`, or rewrite it when blessing.
fn check(name: &str, actual: &str, difference: impl Fn(&str, &str) -> Option<String>) {
    let path = golden_dir().join(name);
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if let Some(at) = difference(&expected, actual) {
        panic!(
            "{name} differs from the golden output at {at}\n\
             (if the change is intended: BVF_BLESS=1 cargo test -p bvf-sim --test golden)"
        );
    }
}

/// The files of a directory, sorted by name.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    names.sort();
    names
}

#[test]
fn the_full_run_prints_the_golden_exhibits() {
    let (stdout, stderr) = reproduce(&["--jobs", "1"]);
    check("full.stdout", &stdout, stdout_difference);
    // Each (configuration, ISA, app) key is simulated once, and each
    // app's inputs are generated once per campaign pass: main, the
    // sensitivity set, and the pivot ablation.
    assert!(
        stderr.contains("store: 116 hits, 290 misses (0 corrupt), 290 writes in memory"),
        "{stderr}"
    );
    assert!(stderr.contains("inputs: 120 images generated"), "{stderr}");
}

#[test]
fn the_quick_run_prints_exports_and_records_the_golden_bytes() {
    let dir = TempDir::new("quick");
    let export = dir.0.join("export");
    let metrics = dir.0.join("metrics.jsonl");
    let (stdout, _) = reproduce(&[
        "quick",
        "--jobs",
        "1",
        "--export",
        export.to_str().expect("utf-8 path"),
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
    ]);
    check("quick.stdout", &stdout, stdout_difference);

    let scrubbed: String = std::fs::read_to_string(&metrics)
        .expect("metrics file")
        .lines()
        .map(|line| {
            let record = json::parse(line).expect("metrics line parses");
            record.without("timing").to_json_string() + "\n"
        })
        .collect();
    check("quick.metrics.jsonl", &scrubbed, metrics_difference);

    let golden_export = golden_dir().join("quick-export");
    if blessing() {
        let _ = std::fs::remove_dir_all(&golden_export);
    }
    let names = files(&export);
    if !blessing() {
        assert_eq!(
            files(&golden_export),
            names,
            "the exported file set differs"
        );
    }
    for name in names {
        let actual = std::fs::read_to_string(export.join(&name)).expect("exported file");
        check(&format!("quick-export/{name}"), &actual, |e, a| {
            export_difference(&name, e, a)
        });
    }
}

#[test]
fn differences_name_the_exhibit_and_row() {
    let golden = "== fig05 — energy ==\n        a    b\n6T       1.0  2.0\n8T       3.0  4.0\n";
    let moved = golden.replace("4.0", "4.5");
    let at = stdout_difference(golden, &moved).expect("a difference");
    assert!(at.starts_with("exhibit fig05, row \"8T\" (line 4)"), "{at}");
    assert_eq!(stdout_difference(golden, golden), None);

    let table = r#"{"id":"fig05","title":"t","columns":["a"],"rows":[{"label":"6T","values":[1]},{"label":"8T","values":[3]}]}"#;
    let record = format!(r#"{{"record":"exhibit","exhibit":"fig05","table":{table}}}"#);
    let moved = record.replace("[3]", "[3.5]");
    let at = metrics_difference(&record, &moved).expect("a difference");
    assert!(at.contains("exhibit fig05, row \"8T\""), "{at}");
    let at = export_difference("fig05.json", table, &table.replace("[3]", "[3.5]"));
    assert!(at.expect("a difference").contains("row \"8T\""));
    let at = export_difference(
        "fig05.csv",
        "label,a\n6T,1\n8T,3\n",
        "label,a\n6T,1\n8T,4\n",
    );
    assert!(at
        .expect("a difference")
        .contains("exhibit fig05, row \"8T\""));
}
