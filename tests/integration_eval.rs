//! Integration tests of the eval harness: the shipped suites run green,
//! the fig12 suite reproduces the Figure 12 ordering, seeds pin runs
//! bit-identical, and reports persist with the spec'd JSON shape.

use neupims_eval::{
    load_suite, run_eval, run_suite, score_suite, store_report, verdict, CheckStatus,
    EvalOverrides, EvalReport, SuiteSpec, SUITE_NAMES,
};

/// Overrides that only pin the workload/sampling seed (the CLI's `--seed`).
fn seeded(seed: u64) -> EvalOverrides {
    EvalOverrides {
        seed: Some(seed),
        ..Default::default()
    }
}

/// The CI gate: the shipped smoke suite passes every golden check.
#[test]
fn smoke_suite_is_green() {
    let suite = load_suite("smoke").expect("smoke suite loads");
    let report = run_eval(&suite, &EvalOverrides::default()).expect("smoke suite runs");
    let (_, _, fail) = report.counts();
    assert_eq!(
        fail,
        0,
        "smoke suite has fail-severity violations:\n{}",
        report.render()
    );
}

/// The acceptance criterion: `eval fig12` reproduces the paper's
/// NeuPIMs-vs-baseline throughput ordering within the spec'd tolerances.
#[test]
fn fig12_suite_reproduces_the_throughput_ordering() {
    let suite = load_suite("fig12").expect("fig12 suite loads");
    let runs = run_suite(&suite, &EvalOverrides::default()).expect("fig12 suite runs");
    let tps = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .and_then(|r| r.metric("tokens_per_sec"))
            .unwrap_or_else(|| panic!("scenario {name} missing tokens_per_sec"))
    };
    // Figure 12 ordering on ShareGPT at B=256: NeuPIMs > NPU+PIM >
    // {GPU-only, NPU-only}.
    let neupims = tps("sharegpt-neupims");
    let npu_pim = tps("sharegpt-npu-pim");
    assert!(neupims > npu_pim && npu_pim > tps("sharegpt-gpu"));
    assert!(neupims > tps("sharegpt-npu-only"));
    // And the improvement factor sits in the paper's band.
    let ratio = neupims / npu_pim;
    assert!(
        (1.4..=2.3).contains(&ratio),
        "NeuPIMs/NPU+PIM = {ratio:.2}, expected ~1.6x"
    );
    // Every spec'd golden check agrees.
    let checks = score_suite(&suite, &runs);
    assert_eq!(
        verdict(&checks),
        CheckStatus::Pass,
        "fig12 golden checks failed: {checks:#?}"
    );
}

/// The remaining shipped suites parse, run, and grade without
/// fail-severity violations.
#[test]
fn all_shipped_suites_are_green() {
    for name in SUITE_NAMES {
        let suite = load_suite(name).unwrap_or_else(|e| panic!("suite {name}: {e}"));
        let report = run_eval(&suite, &EvalOverrides::default())
            .unwrap_or_else(|e| panic!("suite {name}: {e}"));
        let (_, _, fail) = report.counts();
        assert_eq!(fail, 0, "suite {name} failed:\n{}", report.render());
    }
}

/// `--seed` pins workload generation: two same-seed runs of a serving
/// suite produce identical metrics, and a different seed moves them.
#[test]
fn seeded_eval_runs_are_deterministic() {
    let suite = load_suite("smoke").expect("smoke suite loads");
    let a = run_suite(&suite, &seeded(0xD5)).unwrap();
    let b = run_suite(&suite, &seeded(0xD5)).unwrap();
    assert_eq!(a, b, "same seed must reproduce bit-identical metrics");
    let c = run_suite(&suite, &seeded(0xD6)).unwrap();
    let serving = |runs: &[neupims_eval::ScenarioRun]| {
        runs.iter()
            .find(|r| r.kind == "serving")
            .expect("smoke has a serving scenario")
            .metrics
            .clone()
    };
    assert_ne!(
        serving(&a),
        serving(&c),
        "a different seed should shift the serving workload"
    );
}

/// Reports persist under `<dir>/<suite>/<rev>.json` with the structured
/// shape CI consumes, and `latest.json` aliases the same content.
#[test]
fn eval_reports_persist_with_the_documented_shape() {
    let suite = SuiteSpec::parse(
        r#"
[suite]
name = "store-shape"
description = "integration store test"

[[scenario]]
name = "thr"
kind = "throughput"
batch = 32
samples = 1

[[scenario.expect]]
metric = "tokens_per_sec"
min = 1.0
"#,
    )
    .unwrap();
    let mut report: EvalReport = run_eval(&suite, &seeded(3)).unwrap();
    report.rev = "testrev".to_owned();
    let dir = std::env::temp_dir().join(format!("neupims-eval-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (keyed, latest) = store_report(&dir, &report).unwrap();
    assert!(keyed.ends_with("store-shape/testrev.json"));
    let text = std::fs::read_to_string(&keyed).unwrap();
    assert_eq!(text, std::fs::read_to_string(&latest).unwrap());
    for needle in [
        "\"suite\": \"store-shape\"",
        "\"rev\": \"testrev\"",
        "\"seed_override\": 3",
        "\"verdict\": \"pass\"",
        "\"scenarios\":",
        "\"checks\":",
        "\"tokens_per_sec\":",
    ] {
        assert!(
            text.contains(needle),
            "report JSON missing {needle}:\n{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec'd golden violation is a fail verdict, not a run error — and
/// warn severity downgrades it.
#[test]
fn golden_violations_grade_not_crash() {
    let text = r#"
[suite]
name = "violating"

[[scenario]]
name = "thr"
kind = "throughput"
batch = 32
samples = 1

[[scenario.expect]]
metric = "tokens_per_sec"
max = 0.5

[[scenario.expect]]
metric = "tokens_per_sec"
max = 0.5
severity = "warn"
"#;
    let suite = SuiteSpec::parse(text).unwrap();
    let report = run_eval(&suite, &EvalOverrides::default()).unwrap();
    assert_eq!(report.verdict(), CheckStatus::Fail);
    let (pass, warn, fail) = report.counts();
    assert_eq!((pass, warn, fail), (0, 1, 1));
}

/// A typo'd key or an out-of-range value in an on-disk suite is a spec
/// error naming the key, its table and the file — not a run with the
/// misspelled setting defaulted, or a panic mid-run.
#[test]
fn unknown_suite_keys_fail_to_load() {
    let dir = std::env::temp_dir().join(format!("neupims-eval-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shipped = neupims_eval::builtin_suite("pressure").unwrap();
    for (name, text, want) in [
        (
            "typo.toml",
            shipped.replacen("channels = 4", "chanels = 0", 1),
            "unknown key \"chanels\" in [[scenario]]",
        ),
        (
            "system.toml",
            format!("[system]\nbackend = \"gpu\"\n\n{shipped}"),
            "unknown key \"system\" in the top level",
        ),
        (
            "swap.toml",
            shipped.replacen("swap-gbps = 32.0", "swap-gbps = 0.0", 1),
            "\"swap-gbps\" must be positive",
        ),
        // A non-positive rate is the same error whether the scenario
        // sets it directly or in its arrival table.
        (
            "rate.toml",
            shipped.replacen(
                "[scenario.arrival]\nprocess = \"bursty\"\nrate = 4.0\nburst-size = 8\n",
                "rate = 0.0\n",
                1,
            ),
            "arrival rate must be positive",
        ),
        (
            "arrival.toml",
            shipped.replacen("rate = 4.0", "rate = -1.0", 1),
            "arrival rate must be positive",
        ),
    ] {
        assert_ne!(text, shipped, "{name}: edit not in the shipped suite");
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let e = load_suite(path.to_str().unwrap()).unwrap_err();
        let msg = e.to_string();
        assert!(matches!(e, neupims_eval::EvalError::Spec(_)), "{msg}");
        assert!(msg.contains(want) && msg.contains(name), "{msg}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
