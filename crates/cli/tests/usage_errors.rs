//! Where the shipped `rect-addr` binary writes: a usage or I/O error goes
//! to stderr, with exit status 2 and nothing on stdout, whichever
//! subcommand reports it; a proof `certcheck` rejects is a verdict, on
//! stdout with exit status 1; and a reader that closes stdout early is
//! no error at all.

use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Command, Output, Stdio};

/// Runs the binary on `args` with `stdin` piped in.
fn rect_addr(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rect-addr"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rect-addr");
    // A subcommand that fails before it reads may close its stdin first.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    child.wait_with_output().expect("rect-addr output")
}

#[test]
fn usage_errors_go_to_stderr() {
    for args in [
        &["batch"][..],
        &["batch", "-", "--workers", "lots"],
        &["solve", "/nonexistent/matrix.txt"],
        &["batch", "/nonexistent/jobs.jsonl"],
        &["serve", "--listen"],
    ] {
        let out = rect_addr(args, "");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} wrote to stdout: {stdout}");
    }
}

#[test]
fn rejected_proof_is_a_verdict_on_stdout() {
    let prefix = std::env::temp_dir().join(format!("rect-addr-usage-{}", std::process::id()));
    let prefix = prefix.to_str().unwrap();
    // Fig. 1b: depth 5 over a rank floor of 4, so optimality rests on a
    // refutation the solve exports.
    let fig1b = "101100\n010011\n101010\n010101\n111000\n000111\n";
    let solve = rect_addr(&["solve", "-", "--certify", prefix], fig1b);
    assert_eq!(
        solve.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&solve.stderr)
    );
    let (cnf, drat) = (format!("{prefix}.cnf"), format!("{prefix}.drat"));
    let proof = std::fs::read_to_string(&drat).unwrap();
    let truncated: String = proof
        .lines()
        .take(proof.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();

    let out = rect_addr(&["certcheck", &cnf, "-"], &truncated);
    let _ = std::fs::remove_file(&cnf);
    let _ = std::fs::remove_file(&drat);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.starts_with("s NOT VERIFIED"), "{stdout}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `… | rect-addr batch - | head -1`: once the reader has gone, the
/// second answer meets a closed pipe. The queued work is abandoned,
/// nothing goes to stderr, and the exit status is 0.
#[test]
fn batch_into_a_closed_stdout_exits_quietly() {
    // The second job is a dense 13×13 that takes seconds to prove, cut
    // to 300 ms by its budget, so it is answered well after the reader
    // has closed its end.
    let gen = Command::new(env!("CARGO_BIN_EXE_rect-addr"))
        .args(["gen", "rand", "13", "13", "60", "3"])
        .output()
        .expect("gen runs");
    let dense = String::from_utf8(gen.stdout).unwrap();
    let dense = dense.trim().replace('\n', ";");
    let jobs = format!(
        "{{\"id\":\"a\",\"matrix\":\"10;01\"}}\n\
         {{\"id\":\"b\",\"matrix\":\"{dense}\",\"budget_ms\":300}}\n"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_rect-addr"))
        .args(["batch", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rect-addr");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(jobs.as_bytes())
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.contains("\"id\": \"a\""), "{first}");
    drop(stdout);
    let out = child.wait_with_output().expect("rect-addr exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
