//! `figures` is driven by scripts and CI jobs that read its exit status, so
//! a name it does not know must fail loudly instead of selecting nothing.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("run figures")
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_names() {
    for args in [&["e99"][..], &["--fast", "e1", "replay"], &["--e0"]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the name check");
        let err = String::from_utf8(out.stderr).expect("utf-8");
        assert!(err.contains("unknown experiment"), "{args:?}: {err}");
        assert!(err.contains("e1 e2 ") && err.contains(" e17 e18"), "{args:?}: {err}");
    }
}

#[test]
fn known_experiment_still_runs() {
    let out = figures(&["--fast", "e1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("evaluation harness"));
    assert!(figures(&["--help"]).status.success());
}
