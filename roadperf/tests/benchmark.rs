//! The benchmark's own tests: a tiny run of every workload emits exactly
//! the metrics `BENCHMARK.json` names, and a wrong answer fails the run.

use roadperf::run::{run, RunConfig, Workload, TINY};

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        size: TINY,
        trace_out: None,
        corrupt_one_answer: false,
    }
}

/// The `name` fields of one array of `BENCHMARK.json` (read as text: the
/// benchmark has no JSON dependency).
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|chunk| {
            let value = &chunk[chunk.find('"').expect("quoted name") + 1..];
            value[..value.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed("workloads"), names);
}

#[test]
fn a_tiny_run_emits_every_named_metric() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = listed(section);
        for workload in Workload::ALL {
            let out = run(&tiny(workload, trace)).expect("tiny run");
            let got: Vec<String> = out.metrics.0.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            assert!(
                out.correct,
                "{} trace={trace}: {} of {} failed",
                workload.name(),
                out.failed,
                out.attempted
            );
            for m in &out.metrics.0 {
                assert!(
                    m.value.is_finite() && m.value >= 0.0 || m.name == "trace.overhead_frac",
                    "{}: {}",
                    m.name,
                    m.value
                );
            }
            if !trace {
                for m in &out.metrics.0 {
                    assert!(m.value > 0.0, "{} {} is 0", workload.name(), m.name);
                }
            }
        }
    }
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    for workload in Workload::ALL {
        let cfg = RunConfig { corrupt_one_answer: true, ..tiny(workload, false) };
        let out = run(&cfg).expect("tiny run");
        assert!(!out.correct, "{}: corrupted answer not caught", workload.name());
        assert!(out.failed >= 1, "{}", workload.name());
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_roadperf"))
        .args(["--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
