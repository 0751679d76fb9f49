//! The `figures` binary rejects arguments it does not understand:
//! usage on stderr, exit code 2, and no simulation run.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!(
        "figures_cli_{}_{}",
        std::process::id(),
        args.join("_")
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run figures");
    // A rejected command line must not get as far as writing a RunLog.
    assert!(!dir.join("RUNLOG_figures.jsonl").exists());
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn assert_rejected(args: &[&str]) {
    let out = figures(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a figure");
}

#[test]
fn unknown_effort_exits_2_with_usage() {
    assert_rejected(&["fast"]);
    assert_rejected(&["--sampled", "quik", "10"]);
}

#[test]
fn unknown_figure_exits_2_with_usage() {
    assert_rejected(&["quick", "17"]);
    assert_rejected(&["quick", "10", "atrib"]);
}
