//! Integration tests for the `dtn-scenario` command-line runner.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dtn-scenario"))
}

#[test]
fn emit_config_roundtrips_through_a_run() {
    // --emit-config produces JSON that --config accepts.
    let out = bin()
        .args(["--preset", "smoke", "--emit-config"])
        .output()
        .expect("run dtn-scenario");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8 config");
    assert!(json.contains("\"n_nodes\": 40"));

    let dir = std::env::temp_dir().join("sdsrp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke.json");
    std::fs::write(&path, &json).unwrap();

    let out = bin()
        .args([
            "--config",
            path.to_str().unwrap(),
            "--duration",
            "600",
            "--json",
        ])
        .output()
        .expect("run dtn-scenario from config");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("\"delivery_ratio\""));
    assert!(report.contains("\"created\""));
}

#[test]
fn json_output_is_parseable_and_deterministic() {
    let run = || {
        let out = bin()
            .args([
                "--preset",
                "smoke",
                "--policy",
                "sdsrp",
                "--seed",
                "4",
                "--duration",
                "600",
                "--json",
            ])
            .output()
            .expect("run dtn-scenario");
        assert!(out.status.success());
        let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
        (
            v["created"].as_u64().unwrap(),
            v["delivered"].as_u64().unwrap(),
            v["policy"].as_str().unwrap().to_string(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, different results");
    assert_eq!(a.2, "SDSRP");
}

#[test]
fn unknown_arguments_fail_with_usage() {
    let out = bin().args(["--nonsense"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "no usage text in: {err}");
}

#[test]
fn zero_seeds_is_a_usage_error() {
    let out = bin()
        .args(["--preset", "smoke", "--sweep", "buffer", "--seeds", "0"])
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("usage:"), "no usage text in: {err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn an_out_of_range_config_field_is_a_usage_error() {
    // A copy of scenarios/smoke.json with one field no run can use: the
    // binary names the file and the field, and exits 2 without a panic.
    let smoke = include_str!("../scenarios/smoke.json");
    let dir = std::env::temp_dir().join("sdsrp_cli_bad_config");
    std::fs::create_dir_all(&dir).unwrap();
    for (from, to, field) in [
        (
            "\"bits_per_sec\": 250000.0",
            "\"bits_per_sec\": 0.0",
            "link.rate",
        ),
        ("\"ttl\": 3600.0", "\"ttl\": -5.0", "ttl"),
    ] {
        assert!(smoke.contains(from), "smoke.json no longer has {from}");
        let path = dir.join(format!("{field}.json"));
        std::fs::write(&path, smoke.replace(from, to)).unwrap();
        let out = bin()
            .args(["--config", path.to_str().unwrap()])
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        let expect = format!("invalid config {}: {field}", path.display());
        assert!(err.starts_with(&expect), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn the_config_is_validated_after_the_flag_edits() {
    // A flag can break a valid preset: a usage error, not a panic.
    let out = bin()
        .args(["--preset", "smoke", "--duration", "0"])
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("invalid config: duration_secs"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // A flag can also mend a file: a warm-up past the file's own end is
    // refused alone and accepted once `--duration` covers it.
    let smoke = include_str!("../scenarios/smoke.json");
    let dir = std::env::temp_dir().join("sdsrp_cli_mended_config");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("late_warmup.json");
    let from = "\"warmup_secs\": 0.0";
    assert!(smoke.contains(from), "smoke.json no longer has {from}");
    std::fs::write(&path, smoke.replace(from, "\"warmup_secs\": 5000.0")).unwrap();
    let path = path.to_str().unwrap();
    let alone = bin().args(["--config", path]).output().expect("run");
    assert_eq!(alone.status.code(), Some(2));
    let mended = bin()
        .args(["--config", path, "--duration", "6000", "--emit-config"])
        .output()
        .expect("run");
    assert!(
        mended.status.success(),
        "{}",
        String::from_utf8_lossy(&mended.stderr)
    );
}

#[test]
fn telemetry_flag_writes_jsonl_and_matching_manifest() {
    let dir = std::env::temp_dir().join("sdsrp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let manifest_path = dir.join("events.jsonl.manifest.json");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&manifest_path);

    let out = bin()
        .args([
            "--preset",
            "smoke",
            "--seed",
            "7",
            "--duration",
            "900",
            "--telemetry",
            path.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("run dtn-scenario");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");

    // Every line of the event log is a JSON object with a kind tag.
    let jsonl = std::fs::read_to_string(&path).expect("telemetry file written");
    let mut delivered_lines = 0u64;
    let mut line_count = 0u64;
    for line in jsonl.lines() {
        line_count += 1;
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
        if v["kind"].as_str() == Some("delivered") && v["first"].as_bool() == Some(true) {
            delivered_lines += 1;
        }
    }
    assert!(line_count > 0, "telemetry log is empty");

    // The manifest totals must exactly match the run's report.
    let manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).expect("manifest written"))
            .expect("valid manifest JSON");
    assert_eq!(manifest["delivered"], report["delivered"]);
    assert_eq!(manifest["created"], report["created"]);
    assert_eq!(
        manifest["dropped"].as_u64().unwrap(),
        report["buffer_drops"].as_u64().unwrap() + report["incoming_rejects"].as_u64().unwrap()
    );
    assert_eq!(
        manifest["events"]["delivered_first"].as_u64(),
        report["delivered"].as_u64()
    );
    // The sink saw every event the recorder counted, so the first-
    // delivery lines in the log equal the report's delivered total.
    assert_eq!(delivered_lines, report["delivered"].as_u64().unwrap());
    assert!(manifest["config_hash"].as_str().unwrap().len() == 16);
}

#[test]
fn validate_flag_emits_estimator_metrics_and_replay_reproduces() {
    let dir = std::env::temp_dir().join("sdsrp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("validated.jsonl");
    let manifest_path = dir.join("validated.jsonl.manifest.json");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&manifest_path);

    let out = bin()
        .args([
            "--preset",
            "smoke",
            "--seed",
            "9",
            "--duration",
            "1200",
            "--validate",
            "--telemetry",
            path.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("run dtn-scenario --validate");
    assert!(
        out.status.success(),
        "validated run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("0 violation(s)"),
        "no validation summary on stderr: {stderr}"
    );

    // Estimator-error metrics must surface in the telemetry output.
    let manifest_text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    assert!(
        manifest_text.contains("estimator_m_mean_rel_err"),
        "estimator metrics missing from manifest"
    );
    let manifest: serde_json::Value = serde_json::from_str(&manifest_text).unwrap();
    assert!(
        manifest["events"]["estimator_samples"].as_u64().unwrap() > 0,
        "no estimator_sample events recorded"
    );
    assert_eq!(manifest["events"]["invariant_violations"].as_u64(), Some(0));
    // The event log carries the estimator samples as structured events.
    let jsonl = std::fs::read_to_string(&path).unwrap();
    assert!(
        jsonl
            .lines()
            .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
            .any(|v| v["kind"].as_str() == Some("estimator_sample")),
        "no estimator_sample events in the JSONL log"
    );

    // Replaying the manifest must reproduce the run bit-for-bit.
    let out = bin()
        .args(["--replay", manifest_path.to_str().unwrap()])
        .output()
        .expect("run dtn-scenario --replay");
    assert!(
        out.status.success(),
        "replay diverged: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("replay OK"));

    // A tampered manifest must be rejected.
    let doctored = manifest_text.replacen("\"delivered\"", "\"delivered_x\"", 1);
    let bad_path = dir.join("doctored.manifest.json");
    std::fs::write(&bad_path, doctored).unwrap();
    let out = bin()
        .args(["--replay", bad_path.to_str().unwrap()])
        .output()
        .expect("run dtn-scenario --replay (tampered)");
    assert!(!out.status.success(), "tampered manifest replayed cleanly");
}

#[test]
fn timeseries_flag_writes_csv() {
    let dir = std::env::temp_dir().join("sdsrp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("occupancy.csv");
    let _ = std::fs::remove_file(&path);
    let out = bin()
        .args([
            "--preset",
            "smoke",
            "--duration",
            "600",
            "--timeseries",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("run dtn-scenario");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&path).expect("timeseries file written");
    assert!(csv.starts_with("t,mean_occupancy"));
    assert!(csv.lines().count() > 10);
}

#[test]
fn sweep_resume_executes_nothing_and_keeps_the_checkpoint() {
    let dir = std::env::temp_dir().join("sdsrp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join(format!("sweep-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);
    let sweep = |resume: bool| {
        let mut cmd = bin();
        cmd.args([
            "--preset",
            "smoke",
            "--duration",
            "300",
            "--sweep",
            "copies",
        ])
        .args(["--seeds", "1", "--checkpoint", checkpoint.to_str().unwrap()]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("run dtn-scenario --sweep");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };

    let (tables, stderr) = sweep(false);
    assert!(
        tables.contains("delivery ratio vs"),
        "no tables in: {tables}"
    );
    assert!(!stderr.contains("(0 executed, "), "stderr: {stderr}");
    // Resume rewrites the file in job order (repairing any torn tail),
    // while the first run appended runs as they finished: compare the
    // records, then the bytes of a second resume.
    let records = || {
        let body = std::fs::read_to_string(&checkpoint).expect("checkpoint written");
        let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
        lines.sort();
        (body, lines)
    };
    let (_, written) = records();
    assert!(!written.is_empty());

    let (resumed_tables, stderr) = sweep(true);
    assert!(stderr.contains("(0 executed, "), "stderr: {stderr}");
    assert_eq!(resumed_tables, tables, "resumed tables differ");
    let (rewritten, resumed) = records();
    assert_eq!(resumed, written, "resume changed the checkpoint's records");

    sweep(true);
    assert_eq!(
        records().0,
        rewritten,
        "a second resume changed the checkpoint"
    );
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn churn_sweep_prints_every_policy_at_every_crash_rate() {
    let out = bin()
        .args([
            "--config",
            concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/churn_smoke.json"),
            "--sweep",
            "churn",
            "--seeds",
            "1",
            "--duration",
            "300",
        ])
        .output()
        .expect("run dtn-scenario --sweep churn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("sweep: faults: "), "{stderr}");

    // The delivery table: a header row, a separator, then one row per
    // policy, up to the blank line that ends it.
    let table: Vec<&str> = stdout
        .split("### delivery ratio vs ")
        .nth(1)
        .expect("delivery table")
        .lines()
        .skip(2)
        .take_while(|line| !line.is_empty())
        .collect();
    assert_eq!(
        table[0], "| crash rate (/node-hour) | 0 | 0.5 | 1 | 2 | 4 |",
        "{stdout}"
    );
    let policies: Vec<&str> = table[2..]
        .iter()
        .map(|row| row.split('|').nth(1).unwrap().trim())
        .collect();
    assert_eq!(
        policies,
        [
            "SprayAndWait",
            "SprayAndWait-O",
            "SprayAndWait-C",
            "SDSRP",
            "OccupancyGate",
            "TieredRetention"
        ],
        "{stdout}"
    );
    assert!(table[2..].iter().all(|row| row.matches('|').count() == 7));
}

#[test]
fn taylor_terms_applies_whatever_the_flag_order() {
    for order in [
        ["--taylor-terms", "3", "--policy", "sdsrp"],
        ["--policy", "sdsrp", "--taylor-terms", "3"],
    ] {
        let out = bin()
            .args(["--preset", "smoke"])
            .args(order)
            .arg("--emit-config")
            .output()
            .expect("run dtn-scenario --emit-config");
        let config = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{order:?}");
        assert!(
            config.contains("\"taylor_terms\": 3"),
            "{order:?}: {config}"
        );
    }
}

#[test]
fn a_flag_the_mode_never_reads_is_a_usage_error() {
    let sweep = ["--sweep", "copies", "--seeds", "1"];
    let single_run_flags: [&[&str]; 11] = [
        &["--seed", "7"],
        &["--policy", "fifo"],
        &["--taylor-terms", "3"],
        &["--no-priority-cache"],
        &["--json"],
        &["--emit-config"],
        &["--timeseries", "ts.csv"],
        &["--telemetry", "ev.jsonl"],
        &["--validate"],
        &["--delay-oracle"],
        &["--replay", "run.manifest.json"],
    ];
    let sweep_flags: [&[&str]; 10] = [
        &["--seeds", "5"],
        &["--validate-cells"],
        &["--checkpoint", "ck.jsonl"],
        &["--resume"],
        &["--workers", "2"],
        &["--worker-bin", "w"],
        &["--cell-timeout", "5"],
        &["--worker-timeout", "5"],
        &["--retries", "1"],
        &["--worker-arg", "x"],
    ];
    let cases = single_run_flags
        .iter()
        .map(|flag| [&sweep[..], flag].concat())
        .chain(sweep_flags.iter().map(|flag| flag.to_vec()));
    for args in cases {
        let out = bin()
            .args(["--preset", "smoke", "--duration", "60"])
            .args(&args)
            .output()
            .expect("run dtn-scenario");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }

    // The base-config flags and the thread counts belong to both modes.
    let out = bin()
        .args(["--preset", "smoke", "--routing", "saw", "--duration", "60"])
        .args(["--copies", "8", "--buffer-mb", "1", "--immunity", "none"])
        .args(["--warmup", "0", "--threads", "2", "--world-threads", "1"])
        .arg("--emit-config")
        .output()
        .expect("run dtn-scenario --emit-config");
    assert!(out.status.success());
}
