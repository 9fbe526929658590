//! The `neupims-sim` serving commands, end to end through the built
//! binary: every path `serve` and `fleet` can take exits 0 and prints the
//! rows that prove the path ran (trace pricing, sharding, heterogeneous
//! replicas, the orchestrator's tenant table).

use std::process::Command;

/// Runs the binary and returns its stdout, failing on a non-zero exit.
fn neupims(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
        .args(args)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn assert_rows(out: &str, rows: &[&str]) {
    for row in rows {
        assert!(out.contains(row), "missing {row:?} in:\n{out}");
    }
}

#[test]
fn serve_runs_trace_priced_chunked_with_swap() {
    let out = neupims(&[
        "serve",
        "--requests",
        "16",
        "--cost-model",
        "trace",
        "--scheduler",
        "chunked",
        "--preemption",
        "swap",
    ]);
    assert_rows(
        &out,
        &[
            "(chunked scheduler, swap preemption, trace cost model)",
            "| completed requests | 16 |",
            "| PIM trace: row-buffer hits / misses |",
            "| PIM trace: streams simulated / memoized |",
        ],
    );
}

#[test]
fn serve_shards_the_replica_over_tp_and_pp() {
    let out = neupims(&["serve", "--requests", "16", "--tp", "2", "--pp", "2"]);
    assert_rows(
        &out,
        &[
            "through NeuPIMs x4 (tp2 pp2, pcie) serving GPT3-7B",
            "| completed requests | 16 |",
        ],
    );
}

#[test]
fn fleet_cycles_backends_and_schedulers_under_trace_pricing() {
    let out = neupims(&[
        "fleet",
        "--requests",
        "32",
        "--backend",
        "neupims,gpu",
        "--scheduler",
        "interleaved,lump",
        "--cost-model",
        "trace",
    ]);
    assert_rows(
        &out,
        &[
            "| submitted / completed / dropped | 32 / 32 / 0 |",
            "| PIM trace: streams simulated / memoized |",
            "| 0 | NeuPIMs (interleaved) |",
            "| 1 | GPU-only (lump) |",
            "| 2 | NeuPIMs (interleaved) |",
            "| 3 | GPU-only (lump) |",
        ],
    );
}

#[test]
fn fleet_shards_every_replica() {
    let out = neupims(&[
        "fleet",
        "--requests",
        "32",
        "--tp",
        "2",
        "--interconnect",
        "noc",
    ]);
    assert_rows(
        &out,
        &[
            "| submitted / completed / dropped | 32 / 32 / 0 |",
            "| 0 | NeuPIMs x2 (tp2 pp1, noc) (lump) |",
            "| 3 | NeuPIMs x2 (tp2 pp1, noc) (lump) |",
        ],
    );
}

#[test]
fn orchestrated_fleet_reports_every_tenant() {
    let out = neupims(&[
        "fleet",
        "--requests",
        "32",
        "--autoscale",
        "predictive",
        "--router",
        "capability",
        "--tenants",
        "chat:2:220,batch:1:40",
    ]);
    assert_rows(
        &out,
        &[
            "over 4 slots (capability router, predictive autoscale, 2 tenants)",
            "| tenant | prio | share |",
            "| chat | 220 | 67% |",
            "| batch | 40 | 33% |",
        ],
    );
}

/// Policy names are case-insensitive, the static autoscale floor
/// included: `Static` holds every slot on from the start, like `static`.
#[test]
fn static_autoscale_name_is_case_insensitive() {
    let fleet = |name| neupims(&["fleet", "--requests", "32", "--autoscale", name]);
    let upper = fleet("Static");
    assert_eq!(upper, fleet("static"));
    assert_rows(
        &upper,
        &[
            "| peak / max replicas | 4 / 4 |",
            "| warmups (scale-ups / scale-downs) | 0 (0 / 0) |",
        ],
    );
}
