//! Tiny-sized run of every workload, untraced and traced: every check
//! passes, and exactly the metrics BENCHMARK.json names are emitted.

use perfbench::{run, Options, Size, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

/// Metric names listed under `key` in the repository's BENCHMARK.json.
fn declared(key: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    assert_eq!(declared("end_to_end"), names(&END_TO_END));
    assert_eq!(declared("per_layer"), names(PER_LAYER));
    let workloads = declared("workloads");
    let all: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, all);
}

fn smoke(workload: Workload, trace: bool) {
    let r = run(&Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    });
    assert!(r.correct, "{}", r.lines.join("\n"));
    assert!(r.attempted > 0);
    let want = if trace {
        names(PER_LAYER)
    } else {
        names(&END_TO_END)
    };
    let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(got, want);
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    if !trace {
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
    }
    assert_eq!(r.trace_json.is_some(), trace);
    let json = r.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    // The same seed reproduces the same simulation byte for byte.
    let again = run(&Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
    });
    assert_eq!(again.sim_digest, r.sim_digest);
}

#[test]
fn svcload_open_smoke() {
    smoke(Workload::SvcloadOpen, false);
    smoke(Workload::SvcloadOpen, true);
}

#[test]
fn scenario_faulted_smoke() {
    smoke(Workload::ScenarioFaulted, false);
    smoke(Workload::ScenarioFaulted, true);
}

#[test]
fn paper_single_node_smoke() {
    smoke(Workload::PaperSingleNode, false);
    smoke(Workload::PaperSingleNode, true);
}

#[test]
fn seeds_change_the_inputs() {
    let digest = |seed| {
        run(&Options {
            workload: Workload::SvcloadOpen,
            seed,
            seconds: 0.0,
            trace: false,
            size: Size::Tiny,
        })
        .sim_digest
    };
    assert_ne!(digest(1), digest(2));
}
