//! `figures` is driven by scripts and CI jobs that read its exit status: a
//! bad command line must fail loudly instead of selecting nothing, and
//! `--check` must fail on any byte that differs from the checked-in
//! baseline.

use std::path::{Path, PathBuf};
use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("run figures")
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("potemkin-figures-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_names() {
    for args in [&["e99"][..], &["--fast", "e1", "replay"], &["e15"]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the name check");
        let err = stderr(&out);
        assert!(err.contains("unknown experiment"), "{args:?}: {err}");
        assert!(err.contains("e1 e2 ") && err.contains(" e17 e18"), "{args:?}: {err}");
    }
}

#[test]
fn bad_flags_and_unwritable_out_dir_exit_2_with_one_line() {
    let not_a_dir = temp_dir("flags").join("file");
    std::fs::write(&not_a_dir, "").expect("create file");
    let under_a_file = not_a_dir.join("out");
    for (args, expect) in [
        (&["--e0"][..], "unknown flag '--e0'"),
        // A per-file alias removed with the flags it belonged to.
        (&["--bench-out", "x.json", "e1"], "unknown flag '--bench-out'"),
        (&["--fast", "e1", "--out-dir"], "--out-dir needs a directory"),
        (&["e1", "--check"], "--check needs a directory"),
        (&["--out-dir", under_a_file.to_str().expect("utf-8"), "e1"], "cannot create --out-dir"),
    ] {
        let out = figures(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run on a bad command line");
        assert!(err.contains(expect) && err.lines().count() == 1, "{args:?}: {err}");
    }
}

#[test]
fn known_experiment_still_runs() {
    let out = figures(&["--fast", "e1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("evaluation harness"));
    assert!(figures(&["--help"]).status.success());
}

#[test]
fn check_passes_on_the_checked_in_baseline_and_fails_on_a_pinned_difference() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let check = |dir: &Path| figures(&["--fast", "--check", dir.to_str().expect("utf-8"), "e17"]);
    let out = check(&repo);
    assert!(out.status.success(), "checked-in baseline: {}", stderr(&out));

    let dir = temp_dir("check");
    let out = check(&dir);
    assert_eq!(out.status.code(), Some(1), "a missing baseline must fail");
    assert!(stderr(&out).contains("cannot read baseline"), "{}", stderr(&out));

    let baseline = std::fs::read_to_string(repo.join("BENCH_services.json")).expect("baseline");
    let digest = "\"digest\": \"8ca15fea54008d7c\"";
    assert!(baseline.contains(digest), "the pinned E17 digest moved: {baseline}");
    let digest_line = 1 + baseline.lines().position(|l| l.contains(digest)).expect("digest");
    let copy = dir.join("BENCH_services.json");

    // A one-byte change anywhere fails, naming the file and the line: the
    // last digit of the digest, one more space, and the final newline.
    for (changed, line) in [
        (baseline.replace(digest, "\"digest\": \"8ca15fea54008d7d\""), digest_line),
        (baseline.replace(digest, "\"digest\":  \"8ca15fea54008d7c\""), digest_line),
        (baseline.trim_end().to_string(), baseline.lines().count() + 1),
    ] {
        std::fs::write(&copy, changed).expect("write copy");
        let out = check(&dir);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "a one-byte change must fail: {err}");
        assert!(err.contains(&format!("BENCH_services.json at line {line}:")), "{err}");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
