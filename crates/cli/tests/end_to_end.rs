//! True end-to-end tests: spawn the built `mcp` binary and drive a full
//! generate → profile → compare → solve pipeline through its CLI.

use std::process::Command;

fn mcp(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = mcp_code(args);
    (code == Some(0), stdout, stderr)
}

fn mcp_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("mcp_e2e_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn help_and_errors() {
    let (ok, stdout, _) = mcp(&[]);
    assert!(ok);
    assert!(stdout.contains("usage: mcp"));
    let (ok, _, stderr) = mcp(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = mcp(&["simulate", "--k"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"));
}

#[test]
fn malformed_capacity_spec_exits_2() {
    let trace = tmp("cap_args.json");
    let (ok, _, stderr) = mcp(&[
        "gen",
        "uniform",
        "--cores",
        "2",
        "--n",
        "20",
        "--universe",
        "8",
        "--out",
        &trace,
    ]);
    assert!(ok, "gen failed: {stderr}");
    // Garbage spec, dangling step, and an initial K disagreeing with --k
    // are all argument errors (exit 2), not crashes or exit 1.
    for spec in ["banana", "4,2@", "8,2@5"] {
        let (code, _, stderr) = mcp_code(&[
            "simulate",
            "--trace",
            &trace,
            "--k",
            "4",
            "--capacity",
            spec,
        ]);
        assert_eq!(code, Some(2), "--capacity {spec}: {stderr}");
        assert!(stderr.contains("capacity"), "--capacity {spec}: {stderr}");
    }
    // And a well-formed schedule is accepted end-to-end.
    let (code, stdout, stderr) = mcp_code(&[
        "simulate",
        "--trace",
        &trace,
        "--k",
        "4",
        "--capacity",
        "4,2@5,4@9",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("K(t) = 4,2@5,4@9"), "{stdout}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn full_pipeline_over_the_shell() {
    let trace = tmp("pipeline.json");

    let (ok, stdout, stderr) = mcp(&[
        "gen",
        "zipf",
        "--cores",
        "2",
        "--n",
        "200",
        "--universe",
        "24",
        "--out",
        &trace,
    ]);
    assert!(ok, "gen failed: {stderr}");
    assert!(stdout.contains("wrote zipf workload"));

    let (ok, stdout, _) = mcp(&["stats", "--trace", &trace]);
    assert!(ok);
    assert!(stdout.contains("disjoint = true"));

    let (ok, stdout, _) = mcp(&["compare", "--trace", &trace, "--k", "8", "--tau", "2"]);
    assert!(ok);
    assert!(stdout.contains("S_LRU"));

    let (ok, stdout, _) = mcp(&[
        "partition",
        "--trace",
        &trace,
        "--k",
        "8",
        "--policy",
        "opt",
    ]);
    assert!(ok);
    assert!(stdout.contains("optimal static partition"));

    let (ok, stdout, _) = mcp(&[
        "simulate",
        "--trace",
        &trace,
        "--k",
        "8",
        "--tau",
        "2",
        "--strategy",
        "lru2",
        "--fairness",
    ]);
    assert!(ok);
    assert!(stdout.contains("S_LRU-2") && stdout.contains("Jain"));

    std::fs::remove_file(&trace).ok();
}

#[test]
fn exact_solvers_over_the_shell() {
    let trace = tmp("solver.json");
    let (ok, _, stderr) = mcp(&[
        "gen", "cycles", "--cores", "2", "--k", "4", "--n", "8", "--out", &trace,
    ]);
    assert!(ok, "{stderr}");

    let (ok, stdout, _) = mcp(&[
        "opt",
        "--trace",
        &trace,
        "--k",
        "4",
        "--tau",
        "1",
        "--schedule",
    ]);
    assert!(ok);
    assert!(stdout.contains("exact minimum total faults"));

    let (ok, stdout, _) = mcp(&[
        "pif",
        "--trace",
        &trace,
        "--k",
        "4",
        "--tau",
        "1",
        "--at",
        "20",
        "--bounds",
        "6,6",
        "--schedule",
    ]);
    assert!(ok);
    assert!(stdout.contains("FEASIBLE") || stdout.contains("no schedule exists"));

    // `--stats` reports the lower bound's cuts in text and in JSON.
    let opt = ["opt", "--trace", &trace, "--k", "4", "--tau", "1"];
    let pif = [
        "pif", "--trace", &trace, "--k", "4", "--tau", "1", "--at", "20", "--bounds", "6,6",
    ];
    for cmd in [&opt[..], &pif[..]] {
        let (ok, _, stderr) = mcp(&[cmd, &["--stats"]].concat());
        assert!(ok && stderr.contains(" bound prunes,"), "{stderr}");
        let (ok, _, stderr) = mcp(&[cmd, &["--stats", "--json"]].concat());
        assert!(ok && stderr.contains("\"bound_pruned\":"), "{stderr}");
    }

    std::fs::remove_file(&trace).ok();
}

#[test]
fn corrupt_traces_exit_2_without_panicking() {
    // Corrupt JSON: truncated mid-array.
    let bad_json = tmp("corrupt.json");
    std::fs::write(&bad_json, "{\"sequences\": [[1, 2, ").unwrap();
    // Corrupt text: a line with a non-numeric page.
    let bad_text = tmp("corrupt.trace");
    std::fs::write(&bad_text, "0: 1 2 three\n").unwrap();

    for trace in [&bad_json, &bad_text] {
        for cmd in [
            &[
                "simulate",
                "--trace",
                trace,
                "--k",
                "4",
                "--strategy",
                "lru",
            ][..],
            &["opt", "--trace", trace, "--k", "3", "--tau", "1"][..],
            &["stats", "--trace", trace][..],
        ] {
            let (code, _, stderr) = mcp_code(cmd);
            assert_eq!(code, Some(2), "{cmd:?} on {trace}: {stderr}");
            assert!(
                stderr.contains("malformed trace"),
                "{cmd:?} must name the parse failure: {stderr}"
            );
            assert!(
                !stderr.contains("panicked"),
                "{cmd:?} must not panic: {stderr}"
            );
        }
    }
    std::fs::remove_file(&bad_json).ok();
    std::fs::remove_file(&bad_text).ok();

    // A genuinely missing file is an I/O error, not a parse error: exit 1.
    let (code, _, _) = mcp_code(&["stats", "--trace", &tmp("nonexistent.json")]);
    assert_eq!(code, Some(1));
}

#[test]
fn opt_deadline_truncates_with_bracket_then_resumes_to_the_exact_answer() {
    let trace = tmp("anytime.json");
    let (ok, _, stderr) = mcp(&[
        "gen", "cycles", "--cores", "2", "--k", "4", "--n", "10", "--out", &trace,
    ]);
    assert!(ok, "{stderr}");

    // The reference answer from an ungoverned run.
    let (ok, full, _) = mcp(&["opt", "--trace", &trace, "--k", "4", "--tau", "1"]);
    assert!(ok);
    assert!(full.contains("exact minimum total faults"));

    // A zero deadline trips at the first bucket boundary: exit 3, a
    // bracket on stderr, and a checkpoint on disk.
    let ckpt = tmp("anytime.ckpt");
    let (code, _, stderr) = mcp_code(&[
        "opt",
        "--trace",
        &trace,
        "--k",
        "4",
        "--tau",
        "1",
        "--deadline",
        "0s",
        "--checkpoint",
        &ckpt,
    ]);
    assert_eq!(code, Some(3), "truncated run must exit 3: {stderr}");
    assert!(
        stderr.contains("anytime bracket") && stderr.contains("<= optimum <="),
        "stderr must print the bracket: {stderr}"
    );
    assert!(
        stderr.contains("checkpoint saved"),
        "stderr must point at the checkpoint: {stderr}"
    );
    assert!(std::path::Path::new(&ckpt).exists());

    // Re-running the same command with a generous deadline resumes from
    // the snapshot, reproduces the exact answer, and removes the file.
    let (code, resumed, stderr) = mcp_code(&[
        "opt",
        "--trace",
        &trace,
        "--k",
        "4",
        "--tau",
        "1",
        "--deadline",
        "5m",
        "--checkpoint",
        &ckpt,
    ]);
    assert_eq!(code, Some(0), "resume must complete: {stderr}");
    assert_eq!(resumed, full, "resumed answer must match the full run");
    assert!(
        !std::path::Path::new(&ckpt).exists(),
        "checkpoint must be removed on completion"
    );

    std::fs::remove_file(&trace).ok();
}

#[test]
fn witness_free_checkpoint_restarts_a_schedule_run() {
    let trace = tmp("witness_ckpt.json");
    let (ok, _, stderr) = mcp(&[
        "gen", "cycles", "--cores", "2", "--k", "4", "--n", "10", "--out", &trace,
    ]);
    assert!(ok, "{stderr}");
    let base = ["opt", "--trace", &trace, "--k", "4", "--tau", "1"];
    let (ok, full, _) = mcp(&[&base[..], &["--schedule"]].concat());
    assert!(ok);

    // A witness-free run's snapshot carries its own fingerprint, so a
    // `--schedule` run warns, starts fresh and still prints the witness.
    let ckpt = tmp("witness_ckpt.ckpt");
    let (code, _, stderr) =
        mcp_code(&[&base[..], &["--deadline", "0s", "--checkpoint", &ckpt]].concat());
    assert_eq!(code, Some(3), "truncated run must exit 3: {stderr}");
    let (code, resumed, stderr) = mcp_code(
        &[
            &base[..],
            &["--schedule", "--deadline", "5m", "--checkpoint", &ckpt],
        ]
        .concat(),
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("ignoring checkpoint") && stderr.contains("restarting from scratch"),
        "{stderr}"
    );
    assert_eq!(resumed, full);

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn exact_solvers_warn_on_shared_pages_only() {
    let shared = tmp("shared_pages.json");
    let disjoint = tmp("disjoint_pages.json");
    std::fs::write(&shared, "{\"sequences\": [[0], [0]]}").unwrap();
    std::fs::write(&disjoint, "{\"sequences\": [[0], [1]]}").unwrap();
    let warning = "warning: cores share pages";
    for (trace, warns) in [(&shared, true), (&disjoint, false)] {
        let (ok, stdout, stderr) = mcp(&["opt", "--trace", trace, "--k", "2", "--tau", "1"]);
        assert!(ok, "{stderr}");
        assert_eq!(stderr.contains(warning), warns, "opt on {trace}: {stderr}");
        // stdout stays the answer: on `[[0], [0]]` the DP prints 1 while
        // the engine faults 2 (below), which is what the warning is for.
        let answer = if warns { 1 } else { 2 };
        assert!(
            stdout.starts_with(&format!("exact minimum total faults: {answer} (")),
            "{stdout}"
        );
        let pif = [
            "pif", "--trace", trace, "--k", "2", "--tau", "1", "--at", "5", "--bounds", "1,1",
        ];
        let (ok, _, stderr) = mcp(&pif);
        assert!(ok, "{stderr}");
        assert_eq!(stderr.contains(warning), warns, "pif on {trace}: {stderr}");
    }
    let (_, stdout, _) = mcp(&[
        "simulate",
        "--trace",
        &shared,
        "--k",
        "2",
        "--tau",
        "1",
        "--strategy",
        "fitf",
    ]);
    assert!(stdout.contains("total: 2 faults"), "{stdout}");

    std::fs::remove_file(&shared).ok();
    std::fs::remove_file(&disjoint).ok();
}

#[test]
fn pif_deadline_truncates_then_resumes_to_the_same_decision() {
    let trace = tmp("pif_anytime.json");
    let (ok, _, stderr) = mcp(&[
        "gen", "cycles", "--cores", "2", "--k", "4", "--n", "10", "--out", &trace,
    ]);
    assert!(ok, "{stderr}");

    let base = [
        "pif", "--trace", &trace, "--k", "4", "--tau", "1", "--at", "16", "--bounds", "5,5",
    ];
    let (ok, full, _) = mcp(&base);
    assert!(ok);

    let ckpt = tmp("pif_anytime.ckpt");
    let mut truncated = base.to_vec();
    truncated.extend(["--deadline", "0s", "--checkpoint", &ckpt]);
    let (code, _, stderr) = mcp_code(&truncated);
    assert_eq!(code, Some(3), "truncated pif must exit 3: {stderr}");
    assert!(
        stderr.contains("feasibility still open") && stderr.contains("checkpoint saved"),
        "{stderr}"
    );

    let mut resume = base.to_vec();
    resume.extend(["--deadline", "5m", "--checkpoint", &ckpt]);
    let (code, resumed, stderr) = mcp_code(&resume);
    assert_eq!(code, Some(0), "pif resume must complete: {stderr}");
    assert_eq!(resumed, full, "resumed decision must match the full run");
    assert!(!std::path::Path::new(&ckpt).exists());

    std::fs::remove_file(&trace).ok();
}

/// Environment-aware spawn for the fuzz tests (the env var must reach the
/// child, not this test process).
fn mcp_env(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcp"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fuzz_smoke_is_clean_and_jobs_invariant() {
    let corpus = tmp("fuzz_corpus_clean");
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "4"] {
        let (code, stdout, stderr) = mcp_code(&[
            "fuzz",
            "--instances",
            "12",
            "--seed",
            "0xC5_2011_12",
            "--jobs",
            jobs,
            "--corpus",
            &corpus,
        ]);
        assert_eq!(code, Some(0), "fuzz failed under --jobs {jobs}: {stderr}");
        assert!(stdout.contains("divergences:          0"), "{stdout}");
        outputs.push((stdout, stderr));
    }
    // Bit-identical output at every parallelism level.
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    // A clean run writes no divergence fixtures.
    assert!(!std::path::Path::new(&corpus).exists());
}

#[test]
fn fuzz_divergence_path_shrinks_writes_fixture_and_exits_nonzero() {
    let corpus = tmp("fuzz_corpus_skew");
    let _ = std::fs::remove_dir_all(&corpus);
    // MCP_ORACLE_SKEW perturbs the reference engine (one phantom fault on
    // core 0), so every differential comparison must diverge.
    let (code, _stdout, stderr) = mcp_env(
        &[
            "fuzz",
            "--instances",
            "2",
            "--seed",
            "5",
            "--families",
            "lru,clock",
            "--corpus",
            &corpus,
        ],
        &[("MCP_ORACLE_SKEW", "1")],
    );
    assert_eq!(code, Some(1), "skewed fuzz must exit 1: {stderr}");
    // The summary names the diverging strategy family and the fixture.
    assert!(stderr.contains("divergence: family=lru"), "{stderr}");
    assert!(stderr.contains("fixture="), "{stderr}");
    // A shrunk, replayable fixture file landed in the corpus directory.
    let fixtures: Vec<_> = std::fs::read_dir(&corpus)
        .expect("corpus dir created")
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("div-"))
        .collect();
    assert!(!fixtures.is_empty(), "no divergence fixture written");
    let text = std::fs::read_to_string(&fixtures[0]).unwrap();
    assert!(text.contains("# mcp-oracle fixture"), "{text}");
    assert!(text.contains("# family:"), "{text}");
    let _ = std::fs::remove_dir_all(&corpus);
}
