//! Self-test of the benchmark: every workload at a tiny scale, untraced
//! and traced, prints exactly the metrics `BENCHMARK.json` names, with
//! their units; and the answer checks catch a dropped pair and a wrong oid.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use psj_obs::json::{parse, Value};
use psj_perfbench::check::{self, Expected};
use psj_perfbench::input::{query_stream, Maps, Query};
use psj_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use psj_perfbench::serving::{Answer, Oracle};
use psj_perfbench::spans::Spans;
use psj_perfbench::{joins, layers, serving, Params, Workload};
use psj_rtree::PagedTree;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
    match doc.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn metric_lists_match_benchmark_json() {
    let doc = benchmark_json();
    for (key, want) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let got: Vec<(&str, &str)> = list(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(
            got, want,
            "{key} differs between BENCHMARK.json and report.rs"
        );
    }
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let names: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

fn tiny(workload: Workload, dir: &Path) -> Params {
    std::fs::create_dir_all(dir).expect("work dir");
    let mut p = Params::new(workload, 7, Duration::from_millis(500), dir);
    p.scale = 0.01;
    p.setup_reps = 2;
    p.min_ops = 20;
    p
}

fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-selftest-{name}"))
}

/// Checks the result line the way a consumer reads it.
fn assert_result_line(out: &Outcome, want: &[(&str, &str)], what: &str) {
    let line = out
        .json_line(want)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let v = parse(&line).unwrap_or_else(|e| panic!("{what}: result line: {e}"));
    let Value::Obj(top) = &v else {
        panic!("{what}: not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{what}: {line}");
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0), "{what}");
    assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            (name.as_str(), field(m, "unit"))
        })
        .collect();
    assert_eq!(got, want, "{what}");
}

fn assert_note(out: &Outcome, prefix: &str, unit: &str) {
    assert!(
        out.notes
            .iter()
            .any(|n| n.starts_with(prefix) && n.contains(&format!(" {unit}"))),
        "no `{prefix} ... {unit}` line in {:?}",
        out.notes
    );
}

#[test]
fn every_workload_prints_every_metric() {
    for w in Workload::ALL {
        let dir = work_dir(w.name());
        let p = tiny(w, &dir);
        let maps = Maps::generate(p.seed, p.scale);

        let mut out = match w {
            Workload::JoinFile | Workload::JoinPaged => joins::run(&p, &maps),
            Workload::ServeMix | Workload::ClusterMix => serving::run(&p, &maps),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        out.set("peak_rss_mb", psj_perfbench::host::peak_rss_mb().unwrap());
        assert_result_line(&out, END_TO_END, w.name());
        // The per-kind latency names, on the informational lines.
        match w {
            Workload::JoinFile | Workload::JoinPaged => assert_note(&out, "join_ms.p50 =", "ms"),
            _ => {
                assert_note(&out, "window_ms.p50 =", "ms");
                assert_note(&out, "nearest_ms.p50 =", "ms");
            }
        }
        assert_note(&out, "fail_ratio = 0", "ratio");

        let trace = dir.join("trace.jsonl");
        let out = layers::run(&p, &maps, &trace).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_result_line(&out, PER_LAYER, &format!("{} traced", w.name()));
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let summary = psj_obs::validate_jsonl(&text).expect("trace validates");
        assert!(summary.spans > 0);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

fn tiny_trees(maps: &Maps) -> (PagedTree, PagedTree) {
    (
        serving::build_str(&maps.a.items, &maps.a.geoms),
        serving::build_str(&maps.b.items, &maps.b.geoms),
    )
}

#[test]
fn a_dropped_pair_or_a_wrong_oid_fails_the_join_check() {
    let maps = Maps::generate(3, 0.01);
    let (a, b) = tiny_trees(&maps);
    let oracle = psj_core::join_refined(&a, &b);
    assert!(oracle.len() > 2);
    assert!(check::join_ok(&oracle, &oracle));

    let mut dropped = oracle.clone();
    dropped.remove(oracle.len() / 2);
    assert!(!check::join_ok(&dropped, &oracle));

    let mut wrong = oracle.clone();
    wrong[0].1 = u64::MAX;
    assert!(!check::join_ok(&wrong, &oracle));
}

#[test]
fn a_dropped_or_wrong_oid_fails_the_query_checks() {
    let maps = Maps::generate(3, 0.01);
    let (a, b) = tiny_trees(&maps);
    let stream = query_stream(&maps, 3, 64);
    let oracle = Oracle::new(&[&a, &b], &maps, &stream);
    let trees = [&a, &b];
    let (mut windows, mut nearests) = (0, 0);
    for (i, q) in stream.iter().enumerate() {
        let answer = match *q {
            Query::Window { tree, rect } => Answer::Window(
                trees[usize::from(tree)]
                    .window_query(&rect)
                    .iter()
                    .map(|e| e.oid)
                    .rev()
                    .collect(),
            ),
            Query::Nearest { .. } => match &oracle.expected[i] {
                Expected::Nearest(nn) => Answer::Nearest(nn.iter().rev().copied().collect()),
                Expected::Window { .. } => unreachable!("a nearest query"),
            },
        };
        assert!(
            oracle.ok(&stream, i, &answer),
            "query {i}: a correct answer fails"
        );
        match answer {
            Answer::Window(oids) if oids.len() > 1 => {
                windows += 1;
                let mut dropped = oids.clone();
                dropped.pop();
                assert!(!oracle.ok(&stream, i, &Answer::Window(dropped)));
                let mut wrong = oids.clone();
                wrong[0] = u64::MAX;
                assert!(!oracle.ok(&stream, i, &Answer::Window(wrong)));
            }
            Answer::Nearest(nn) if nn.len() > 1 => {
                nearests += 1;
                let mut dropped = nn.clone();
                dropped.pop();
                assert!(!oracle.ok(&stream, i, &Answer::Nearest(dropped)));
                // A wrong oid both among the strictly nearer neighbours and
                // at the k-th distance, where ties may be picked freely.
                for at in [0, nn.len() - 1] {
                    let mut wrong = nn.clone();
                    wrong[at].1 = u64::MAX;
                    assert!(!oracle.ok(&stream, i, &Answer::Nearest(wrong)), "at {at}");
                }
            }
            _ => {}
        }
    }
    assert!(
        windows > 0 && nearests > 0,
        "the stream exercised both checks"
    );
}

/// The loops count an answer that differs from the oracle as failed: here
/// the oracle, not the program, carries the dropped pair or wrong oid.
#[test]
fn the_loops_fail_ops_whose_answer_differs_from_the_oracle() {
    let dir = work_dir("corrupted");
    let p = tiny(Workload::JoinPaged, &dir);
    let maps = Maps::generate(p.seed, p.scale);
    let s = joins::setup(p.workload, &maps, &dir, &Spans::off()).unwrap();
    let oracle = psj_core::join_refined(&s.trees[0], &s.trees[1]);
    let mut dropped = oracle.clone();
    dropped.pop();
    let mut wrong = oracle.clone();
    wrong[0].0 = u64::MAX;
    for bad in [dropped, wrong] {
        let st = joins::run_loop(
            p.workload,
            &s,
            &bad,
            Duration::from_millis(50),
            5,
            &Spans::off(),
        );
        assert!(st.plain.is_empty() && st.failed == st.attempted && st.failed > 0);
    }

    let stream = query_stream(&maps, 5, 256);
    let served = serving::setup(Workload::ServeMix, &maps, &stream, &Spans::off()).unwrap();
    let refs: Vec<&PagedTree> = served.trees.iter().map(|t| t.as_ref()).collect();
    let mut oracle = Oracle::new(&refs, &maps, &stream);
    for e in &mut oracle.expected {
        match e {
            Expected::Window { len, .. } => *len += 1,
            Expected::Nearest(nn) => nn[0].1 = u64::MAX,
        }
    }
    let log = serving::run_loop(
        served.addr,
        &stream,
        &oracle,
        Duration::from_millis(200),
        0,
        &Spans::off(),
    );
    served.stop();
    let log = log.unwrap();
    assert!(!log.samples.is_empty() && log.samples.iter().all(|x| !x.ok));
    assert!(log.first_failure.unwrap().contains("wrong answer"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
