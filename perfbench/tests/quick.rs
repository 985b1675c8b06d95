//! The quick tier of every workload: each run must check its outputs,
//! pass its digest gate, and emit every metric `BENCHMARK.json` names.

use std::path::PathBuf;
use vfc_perfbench::report::{self, Meta};
use vfc_perfbench::{run, Golden, RunConfig, Tier, Workload, END_TO_END, PER_LAYER};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden() -> Golden {
    Golden::load(&manifest_dir().join("golden.txt")).expect("golden.txt parses")
}

fn quick(workload: Workload, seed: u64, traced: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.2,
        traced,
        tier: Tier::Quick,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("quick-{}-{seed}-{traced}", workload.name())),
    }
}

/// Names of a `BENCHMARK.json` metric list, in file order.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = doc
        .get(key)
        .and_then(|v| v.as_array())
        .expect("metric list");
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), names(&END_TO_END));
    assert_eq!(declared("per_layer"), names(&PER_LAYER));
}

#[test]
fn every_workload_passes_its_gate_and_emits_every_metric() {
    let golden = golden();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let r = run(quick(workload, 1, traced), &golden);
            let name = workload.name();
            assert!(r.correct, "{name} traced={traced}: {:?}", r.out.checks);
            assert_eq!(r.failed, 0, "{name}");
            assert_eq!(
                r.golden,
                vfc_perfbench::GoldenCheck::Matched,
                "{name}: quick-tier seed 1 is blessed"
            );
            let line = report::result_line(&r);
            let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (metric, unit) in list {
                let key = format!(r#""{metric}": {{"value": "#);
                assert!(line.contains(&key), "{name}: {metric} missing from {line}");
                assert!(line.contains(&format!(r#""unit": "{unit}""#)));
            }
            if !traced {
                for m in r.line_metrics() {
                    assert!(m.value > 0.0, "{name}: {} reads {}", m.name, m.value);
                }
            }
            let human = report::human(&r, &Meta::from_env());
            for m in &r.out.named {
                assert!(human.contains(&m.name), "{name}: {} not printed", m.name);
            }
        }
    }
}

#[test]
fn a_wrong_golden_digest_fails_every_operation() {
    let mut wrong = Golden::default();
    for workload in Workload::ALL {
        wrong.insert(Tier::Quick, workload, 2, "0000000000000000");
        let r = run(quick(workload, 2, false), &wrong);
        assert!(!r.correct, "{}", workload.name());
        assert_eq!(r.failed, r.attempted, "{}", workload.name());
        assert!(report::result_line(&r).starts_with(r#"{"correct": false"#));
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let empty = Golden::default();
    for workload in Workload::ALL {
        let a = run(quick(workload, 3, false), &empty);
        let b = run(quick(workload, 3, false), &empty);
        let c = run(quick(workload, 4, false), &empty);
        assert!(a.correct && b.correct && c.correct, "{}", workload.name());
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_ne!(a.digest, c.digest, "{}", workload.name());
    }
}
