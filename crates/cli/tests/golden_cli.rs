//! Golden stdout of the `repro` binary: the standard evaluation and
//! characterization commands must print exactly the bytes recorded in
//! `tests/golden/`, and the options of the removed event engines must fail
//! with a one-line message. The `*_paper.txt` files pin `fig5`, `fig11`,
//! `fig14`, `sweep-qd` and the replicated GC-stress array at paper scale;
//! CI diffs them against the release binary.
//!
//! The golden files pin the simulated results byte for byte, so any change
//! to them shows up here as a diff. To re-record after an intended output
//! change, run the release `repro` with the arguments (and stdin) a test
//! passes and redirect its stdout over that test's file.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary starts");
    {
        let mut pipe = child.stdin.take().expect("stdin is piped");
        if let Some(input) = stdin {
            pipe.write_all(input.as_bytes())
                .expect("stdin accepts input");
        }
    }
    child.wait_with_output().expect("repro runs to completion")
}

fn assert_golden(name: &str, args: &[&str], stdin: Option<&str>) {
    let out = repro(args, stdin);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "repro {args:?} stdout differs from {name} at line {}:\n  got:      {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

#[test]
fn fig14_quick_matches_golden() {
    assert_golden("fig14_quick.txt", &["fig14", "--quick"], None);
}

#[test]
fn sweep_qd_quick_matches_golden() {
    assert_golden(
        "sweep_qd_quick.txt",
        &["sweep-qd", "--quick", "--queue-depth", "1,4"],
        None,
    );
}

#[test]
fn sweep_rate_quick_matches_golden() {
    assert_golden(
        "sweep_rate_quick.txt",
        &["sweep-rate", "--quick", "--rate", "1,4"],
        None,
    );
}

#[test]
fn replicated_gc_stress_array_matches_golden() {
    assert_golden(
        "gc_array_quick.txt",
        &[
            "sweep-qd",
            "--quick",
            "--gc-stress",
            "--devices",
            "4",
            "--placement",
            "hash",
            "--redundancy",
            "replicate:2",
            "--queue-depth",
            "16",
        ],
        None,
    );
}

#[test]
fn serve_quick_matches_golden() {
    assert_golden(
        "serve_quick.txt",
        &["serve", "--quick"],
        Some("mds_1 PnAR2 8\nmds_1 Baseline 4\nquit\n"),
    );
}

#[test]
fn characterization_figures_quick_match_golden() {
    for fig in ["fig4b", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11"] {
        assert_golden(&format!("{fig}_quick.txt"), &[fig, "--quick"], None);
    }
}

#[test]
fn fig15_extensions_and_ablation_quick_match_golden() {
    for (name, cmd) in [
        ("fig15_quick.txt", "fig15"),
        ("extensions_quick.txt", "extensions"),
        ("ablation_quick.txt", "ablation"),
    ] {
        assert_golden(name, &[cmd, "--quick"], None);
    }
}

#[test]
fn tables_and_rpt_match_golden() {
    for cmd in ["table1", "table2", "rpt"] {
        assert_golden(&format!("{cmd}.txt"), &[cmd], None);
    }
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    // `repro serve` answers each query only after reading it, so the reply
    // to a query sent after the reader left is always written to a closed
    // pipe: the run must end with status 141 (SIGPIPE's) and no panic text.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--quick"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    stdout
        .read_line(&mut first)
        .expect("the ready line arrives");
    assert!(first.starts_with("ready "), "{first:?}");
    drop(stdout);
    {
        let mut stdin = child.stdin.take().expect("stdin is piped");
        stdin
            .write_all(b"mds_1 Baseline 4\nquit\n")
            .expect("stdin accepts the query");
    }
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
}

#[test]
fn removed_engine_options_fail_with_one_line() {
    for args in [
        &["fig14", "--quick", "--shards", "1"][..],
        &["fig14", "--quick", "--timing-wheel"][..],
        &["fig14", "--quick", "--event-backend", "heap"][..],
    ] {
        let out = repro(args, None);
        assert!(!out.status.success(), "repro {args:?} must fail");
        assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert_eq!(stderr.lines().count(), 1, "repro {args:?}: {stderr}");
        assert!(
            stderr.starts_with(args[2]) && stderr.contains("has been removed"),
            "repro {args:?}: {stderr}"
        );
    }
}

#[test]
fn help_no_longer_lists_removed_engine_options() {
    let out = repro(&["--help"], None);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    for removed in ["--shards", "--timing-wheel", "--event-backend"] {
        assert!(!help.contains(removed), "--help still lists {removed}");
    }
}
