//! Short runs of every workload through the built `sptbench` binary: each
//! must end with no failed op and print every metric `BENCHMARK.json`
//! names, with its unit. Run with `cargo test --release` — a debug build
//! of the compiler is too slow for even a short run.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["suite-cold", "suite-warm", "edit-recompile", "daemon-mixed"];

/// `(name, unit)` of every metric in the `section` array of
/// `BENCHMARK.json` (a flat array of flat objects).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn field(obj: &str, key: &str) -> String {
    let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &obj[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("string closes");
    rest[open..close].to_string()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sptbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .env_remove("SPT_THREADS")
        .env_remove("SPT_EXEC_TIER")
        .output()
        .expect("sptbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    (stdout, stderr)
}

fn check(workload: &str, trace: u8, section: &str) {
    let (stdout, stderr) = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0,"),
        "{workload}: {last}\n{stderr}"
    );
    let declared = declared(section);
    assert_eq!(
        last.matches("\"value\": ").count(),
        declared.len(),
        "{workload}: prints other metrics than BENCHMARK.json declares"
    );
    for (name, unit) in declared {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let rest = &last[at + entry.len()..];
        let comma = rest.find(',').expect("value ends");
        let value: f64 = rest[..comma]
            .parse()
            .unwrap_or_else(|e| panic!("{workload}: {name}: {e}"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest[comma + 1..].starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
        // A layer reading 0 must say why.
        if value == 0.0 && trace == 1 {
            assert!(
                stdout.contains(&format!("# layer {name} reads 0")),
                "{workload}: {name} reads 0 without a reason"
            );
        }
    }
    assert!(
        stdout.contains("# env {"),
        "{workload}: no environment stamp"
    );
}

#[test]
fn every_workload_passes_and_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, 0, "end_to_end");
    }
}

#[test]
fn every_workload_passes_and_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, 1, "per_layer");
    }
}

#[test]
fn contradicting_environment_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_sptbench"))
        .args([
            "--workload",
            "suite-cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("SPT_EXEC_TIER", "super")
        .output()
        .expect("sptbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
