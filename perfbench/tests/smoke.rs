//! The benchmark's own test: a tiny run of every workload prints every
//! declared metric with its unit and consistent op counts, and a
//! deliberately corrupted expected output is counted as a failed op.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["vit_wire", "cnn_wire", "lpq_search", "edge_echo"];

/// Runs the benchmark binary and returns its stdout; panics on failure.
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench");
    assert!(
        out.status.success(),
        "perfbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn tiny_run(workload: &str, trace: &str, extra: &str) -> String {
    let args = format!("--workload {workload} --seed 3 --seconds 1 --trace {trace} --tiny {extra}");
    bench(&args.split_whitespace().collect::<Vec<_>>())
}

/// The value of a top-level integer field of the result line.
fn count(line: &str, key: &str) -> u64 {
    let start = line.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
    line[start..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .expect("integer field")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let body = json
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("section present");
    let quoted = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
        line[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (quoted(l, "name"), quoted(l, "unit")))
        .collect()
}

#[test]
fn benchmark_json_is_rendered_from_the_registry() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(bench(&["--emit-benchmark-json"]), committed);
}

#[test]
fn every_workload_prints_every_metric_with_consistent_counts() {
    for w in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = tiny_run(w, trace, "");
            let line = out.lines().last().expect("result line");
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{w} trace {trace}: {line}"
            );
            let (attempted, failed) = (count(line, "attempted"), count(line, "failed"));
            assert!(attempted >= 1 && failed == 0, "{w} trace {trace}: {line}");
            let summary = format!(
                "ops attempted {attempted}, succeeded {}, failed {failed}",
                attempted - failed
            );
            assert!(
                out.contains(&summary),
                "{w} trace {trace}: no line {summary:?}"
            );
            for (name, unit) in declared(section) {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                let rest = &line[at + key.len()..];
                let (value, tail) = rest.split_once(',').expect("value then unit");
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{w}: {name} = {value}"
                );
                assert!(
                    tail.trim_start()
                        .starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{w}: {name} has the wrong unit: {tail}"
                );
            }
        }
    }
}

#[test]
fn corrupted_expected_output_is_a_failed_op() {
    for w in WORKLOADS {
        let out = tiny_run(w, "0", "--corrupt 1");
        let line = out.lines().last().expect("result line");
        assert!(line.starts_with("{\"correct\": false, "), "{w}: {line}");
        let (attempted, failed) = (count(line, "attempted"), count(line, "failed"));
        assert!(failed >= 1 && failed <= attempted, "{w}: {line}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload edge_echo --seed 1 --seconds 1 --trace 2",
        "--seed 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("spawn perfbench");
        assert!(!out.status.success(), "{args} succeeded");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
