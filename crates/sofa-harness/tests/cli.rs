//! End-to-end tests of the `harness` binary's `exp` subcommand: the JSON
//! artifact is the registry's tables byte for byte, and bad input exits 2
//! with a message instead of panicking.

use sofa_bench::registry::find;
use sofa_bench::report::tables_to_json;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("the harness binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = harness(args);
    assert_eq!(out.status.code(), Some(2), "harness {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("harness: "),
        "harness {args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "harness {args:?}: {stderr}");
}

#[test]
fn exp_json_is_the_registry_tables() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("table3_area_power.json");
    let out = harness(&["exp", "table3_area_power", "--json", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let want = tables_to_json(&(find("table3_area_power").unwrap().run)().tables);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
}

#[test]
fn unknown_experiment_exits_2() {
    assert_usage_error(&["exp", "no_such_experiment"]);
}

#[test]
fn flag_without_value_exits_2() {
    assert_usage_error(&["exp", "serve_fleet", "--requests"]);
}

#[test]
fn invalid_fleet_scale_exits_2() {
    assert_usage_error(&["exp", "serve_fleet", "--requests", "10", "--nodes", "0"]);
}

#[test]
fn scale_flags_on_another_experiment_exit_2() {
    assert_usage_error(&["exp", "fig01_breakdown", "--requests", "10"]);
}
