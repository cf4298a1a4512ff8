//! Exit statuses of the figure binaries: a usage error is exit 2 (in
//! `dtn-bench` and `dtn-fuzz` too), and a sweep group with a panicked
//! run or an invariant violation makes the binary exit 1 once every
//! group has printed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

fn fig8(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_fig8"), args)
}

fn temp_stem(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtn-bench-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn unknown_or_malformed_flags_are_usage_errors() {
    let cases: [(&str, &[&str]); 19] = [
        (env!("CARGO_BIN_EXE_fig8"), &["--wokers", "4"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--seeds"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--seeds", "0"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--sweep", "bogus"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--workers", "many"]),
        // Flags another binary reads are rejected where nothing reads them.
        (env!("CARGO_BIN_EXE_fig3"), &["--seeds", "1"]),
        (env!("CARGO_BIN_EXE_fig3"), &["--workers", "2"]),
        (env!("CARGO_BIN_EXE_fig4"), &["--quick"]),
        (env!("CARGO_BIN_EXE_fig4"), &["--workers", "2"]),
        (env!("CARGO_BIN_EXE_fig4"), &["--checkpoint", "x.jsonl"]),
        (env!("CARGO_BIN_EXE_ablations"), &["--out", "o"]),
        (env!("CARGO_BIN_EXE_ablations"), &["--sweep", "copies"]),
        (env!("CARGO_BIN_EXE_ablations"), &["--latency"]),
        (env!("CARGO_BIN_EXE_dtn-bench"), &["--out"]),
        (env!("CARGO_BIN_EXE_dtn-bench"), &["--iters"]),
        (env!("CARGO_BIN_EXE_dtn-bench"), &["--iters", "three"]),
        (env!("CARGO_BIN_EXE_dtn-bench"), &["--iters", "0"]),
        (env!("CARGO_BIN_EXE_dtn-bench"), &["--seeds", "1"]),
        (env!("CARGO_BIN_EXE_dtn-fuzz"), &["--cells", "0"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    }
}

#[test]
fn a_violation_fails_the_run_after_every_group_prints() {
    let stem = temp_stem("f8.jsonl");
    let stem_arg = stem.to_str().unwrap();
    let first = fig8(&[
        "--quick",
        "--seeds",
        "1",
        "--sweep",
        "copies",
        "--checkpoint",
        stem_arg,
    ]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );

    // A restored run keeps the violation count it was checkpointed with,
    // so one doctored record makes the copies group fail on resume.
    let group = stem.with_file_name("f8-fig-8-initial-copies-l.jsonl");
    let body = std::fs::read_to_string(&group).expect("copies group checkpoint");
    assert!(body.contains("\"violations\":0"), "{body}");
    std::fs::write(
        &group,
        body.replacen("\"violations\":0", "\"violations\":1", 1),
    )
    .unwrap();

    let out = fig8(&[
        "--quick",
        "--seeds",
        "1",
        "--checkpoint",
        stem_arg,
        "--resume",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("Fig.8: 1 invariant violation(s) across cells"),
        "{stderr}"
    );
    assert!(stderr.contains("(0 executed, 12 resumed)"), "{stderr}");
    for panel in ["Fig.8(a)", "Fig.8(f)", "Fig.8(i)"] {
        assert!(stdout.contains(panel), "{panel} missing from: {stdout}");
    }
    let _ = std::fs::remove_dir_all(stem.parent().unwrap());
}
