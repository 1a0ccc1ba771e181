//! Smoke test at tiny sizes: every workload emits every metric with its
//! unit, a planted wrong reference answer is reported as failed operations
//! and withholds the numbers, and one seed always makes the same inputs.

use ktbench::record::{Input, Size};
use ktbench::{run, Opts, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn opts(workload: &str, seed: u64, trace: bool, plant: bool) -> Opts {
    Opts {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::TINY,
        plant,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run(&opts(workload, 5, trace, false)).unwrap();
            assert!(out.correct, "{workload} trace={trace}: {:?}", out.problems);
            assert!(out.attempted > 0 && out.failed == 0, "{workload}: {out:?}");
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, names, "{workload} trace={trace}");
            let json = out.to_json();
            for (name, unit) in names {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} in {json}"
                );
                assert!(
                    json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{unit} in {json}"
                );
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{workload} {} reads {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn a_planted_wrong_reference_fails_and_withholds_the_numbers() {
    for workload in WORKLOADS {
        let out = run(&opts(workload, 6, false, true)).unwrap();
        assert!(
            !out.correct,
            "{workload}: the planted answer went unnoticed"
        );
        assert!(out.failed > 0, "{workload}: {out:?}");
        assert!(
            out.to_json().ends_with("\"metrics\": {}}"),
            "{workload}: {}",
            out.to_json()
        );
    }
}

#[test]
fn one_seed_makes_the_same_inputs() {
    for workload in WORKLOADS {
        let a = Input::build(workload, 9, Size::TINY, 2).unwrap();
        let b = Input::build(workload, 9, Size::TINY, 2).unwrap();
        let c = Input::build(workload, 10, Size::TINY, 2).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "{workload}");
        assert_ne!(a.fingerprint(), c.fingerprint(), "{workload}");
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            text.contains(&entry),
            "{entry} missing from {}",
            path.display()
        );
    }
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}
