//! `repro`'s exit-code contract, on the built binary: a selection an
//! experiment refuses is its message on stderr, nothing on stdout and
//! exit 1, so a script (CI's "Full-scale plans execute under their own
//! predictions" step) cannot take a mistyped invocation for a passing run.

use std::process::Command;

#[test]
fn a_refused_selection_is_stderr_and_exit_1_a_well_formed_one_exit_0() {
    let repro = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let text = |bytes| String::from_utf8(bytes).expect("UTF-8");
        (out.status.code(), text(out.stdout), text(out.stderr))
    };
    let scales = "at most one scale selector (small/default/full) is allowed";
    let budget = "--q-budget value 'abc' is not a number";
    let refused: [(&[&str], &str); 7] = [
        (&["plan", "--q-budget", "abc"], budget),
        (&["dag", "small", "small"], scales),
        (&["trace", "--out"], "--out requires a path"),
        (&["frontier", "small", "full"], scales),
        (&["delta", "small", "full"], scales),
        // A value flag does not swallow the flag after it.
        (
            &["trace", "small", "--out", "--trace"],
            "--out requires a path",
        ),
        (
            &["plan", "--q-budget", "--trace"],
            "--q-budget requires a value",
        ),
    ];
    for (args, reason) in refused {
        let stderr = format!("{} selection error: {reason}\n", args[0]);
        assert_eq!(repro(args), (Some(1), String::new(), stderr), "{args:?}");
    }
    // Every selected experiment checks the selection before any runs, so
    // frontier, which would accept it, prints nothing ahead of plan's
    // refusal.
    let (code, stdout, stderr) = repro(&["frontier", "plan", "small", "triangles-gnm"]);
    assert_eq!((code, stdout.as_str()), (Some(1), ""));
    assert!(
        stderr.starts_with("plan selection error: unknown plan selector 'triangles-gnm'"),
        "{stderr}"
    );
    let (code, stdout, stderr) = repro(&["plan", "small"]);
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    assert!(stdout.contains("[plan]"), "{stdout}");
    // `plan` and `dag` read their tokens through one shared selector, so
    // a repeated family or workload selects it once: the same report
    // from the JSON marker on (the tables above carry wall-clock).
    let semantic = |(code, out, err): (_, String, String)| {
        let json = out.split_once("JSON").map(|(_, json)| json.to_string());
        (code, err, json)
    };
    for experiment in ["plan", "dag"] {
        let once = semantic(repro(&[experiment, "small", "matmul"]));
        assert!(once.2.is_some(), "{experiment}: {once:?}");
        let twice = semantic(repro(&[experiment, "small", "matmul", "matmul"]));
        assert_eq!(twice, (Some(0), String::new(), once.2), "{experiment}");
    }
}

/// `std::env::args` panics on a token that is not UTF-8; `repro` refuses
/// it as an unknown token instead.
#[cfg(unix)]
#[test]
fn a_token_that_is_not_utf8_is_refused_not_a_panic() {
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(std::ffi::OsStr::from_bytes(b"small\xff"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8");
    assert_eq!(
        (out.status.code(), out.stdout.len()),
        (Some(1), 0),
        "{stderr}"
    );
    assert!(
        stderr.starts_with("unknown experiment(s) [\"small\u{fffd}\"]\n"),
        "{stderr}"
    );
}
