//! CLI contract tests for `healers serve` and `healers bench serve`:
//! `serve exec` replays a script deterministically (byte-identical raw
//! reply streams across `--workers`, rendered replies identical to the
//! committed `smoke.expected` transcript, and likewise for the
//! `--repair-hints` and same-frame `stats` pins), warm cache startups
//! report zero injected calls, and misuse exits with status 2.

use std::path::PathBuf;
use std::process::{Command, Output};

fn healers(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_healers"))
        .args(args)
        .output()
        .expect("spawn healers")
}

fn smoke_script() -> String {
    serve_script("smoke")
}

fn serve_script(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/serve_scripts/{name}.txt"))
        .display()
        .to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("healers-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn serve_exec_reply_bytes_are_identical_across_worker_counts() {
    let script = smoke_script();
    let dir = temp_dir("det");
    std::fs::create_dir_all(&dir).unwrap();
    let raw1 = dir.join("w1.bin");
    let raw4 = dir.join("w4.bin");

    let mut outputs = Vec::new();
    for (workers, raw) in [("1", &raw1), ("4", &raw4)] {
        let out = healers(&[
            "serve",
            "exec",
            "--script",
            &script,
            "--workers",
            workers,
            "--raw-out",
            &raw.display().to_string(),
            "strlen",
            "strcpy",
            "abs",
            "memset",
        ]);
        assert!(
            out.status.success(),
            "serve exec --workers {workers} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "rendered replies diverge");
    // Pinned across commits, not only across worker counts: a change
    // under serve that alters any rendered reply fails here.
    let expected = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/serve_scripts/smoke.expected"),
    )
    .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&outputs[0]),
        String::from_utf8_lossy(&expected),
        "rendered replies drifted from tests/serve_scripts/smoke.expected"
    );

    let bytes1 = std::fs::read(&raw1).unwrap();
    let bytes4 = std::fs::read(&raw4).unwrap();
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes4, "raw reply streams diverge across workers");

    // The rendered transcript names the interesting verdicts.
    let text = String::from_utf8(outputs[0].clone()).unwrap();
    assert!(text.contains("pong"), "{text}");
    assert!(text.contains("validated: admit"), "{text}");
    assert!(text.contains("validated: reject arg 0"), "{text}");
    assert!(text.contains("unknown function"), "{text}");
    assert!(text.contains("reported:"), "{text}");
    assert!(text.contains("bye"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn pinned(name: &str) -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/serve_scripts/{name}"));
    String::from_utf8(std::fs::read(path).unwrap()).unwrap()
}

/// `serve exec` `script` over `functions` at `--workers 1` and `4`
/// with `extra` flags: asserts both runs succeed with identical
/// transcripts, and returns the transcript and both raw reply streams.
/// (A `stats` reply's raw bytes carry one row per worker, so only
/// scripts without one have worker-invariant raw streams.)
fn exec_at_one_and_four_workers(
    tag: &str,
    script: &str,
    extra: &[&str],
    functions: &[&str],
) -> (String, [Vec<u8>; 2]) {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let mut runs = Vec::new();
    for workers in ["1", "4"] {
        let raw = dir.join(format!("w{workers}.bin")).display().to_string();
        let mut args = vec![
            "serve",
            "exec",
            "--script",
            script,
            "--workers",
            workers,
            "--raw-out",
            &raw,
        ];
        args.extend_from_slice(extra);
        args.extend_from_slice(functions);
        let out = healers(&args);
        assert!(
            out.status.success(),
            "serve exec --workers {workers} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        runs.push((
            String::from_utf8(out.stdout).unwrap(),
            std::fs::read(&raw).unwrap(),
        ));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    let [(text1, raw1), (text4, raw4)]: [(String, Vec<u8>); 2] = runs.try_into().unwrap();
    assert_eq!(text1, text4, "rendered replies diverge");
    assert!(!raw1.is_empty());
    (text1, [raw1, raw4])
}

#[test]
fn serve_exec_repair_hints_replies_match_their_pin() {
    // The only pin of the `WouldRepair` verdict's wire form.
    let (text, raw) = exec_at_one_and_four_workers(
        "repair",
        &smoke_script(),
        &["--repair-hints"],
        &["strlen", "strcpy", "abs", "memset"],
    );
    assert_eq!(
        text,
        pinned("smoke.repair.expected"),
        "rendered replies drifted from tests/serve_scripts/smoke.repair.expected"
    );
    assert!(
        text.contains("validated: would-repair arg 0 check NTS"),
        "{text}"
    );
    assert_eq!(raw[0], raw[1], "raw reply streams diverge across workers");
}

#[test]
fn serve_exec_stats_see_every_earlier_request_of_their_frame() {
    let (text, _) = exec_at_one_and_four_workers(
        "stats-frame",
        &serve_script("stats_frame"),
        &[],
        &["strlen", "strcpy", "abs", "memset"],
    );
    assert_eq!(
        text,
        pinned("stats_frame.expected"),
        "rendered replies drifted from tests/serve_scripts/stats_frame.expected"
    );
}

#[test]
fn serve_exec_serves_a_repeated_name_once() {
    let (text, _) = exec_at_one_and_four_workers(
        "repeated",
        &serve_script("stats_frame"),
        &[],
        &["strlen", "abs", "strlen"],
    );
    let rows: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("fn "))
        .collect();
    assert_eq!(
        rows,
        [
            "    fn strlen admitted 1 rejected 1 unchecked 0",
            "    fn abs admitted 0 rejected 0 unchecked 0",
            "    fn strlen admitted 1 rejected 1 unchecked 0",
            "    fn abs admitted 0 rejected 0 unchecked 1",
        ],
        "{text}"
    );
}

#[test]
fn serve_exec_warm_cache_reports_zero_injected_calls() {
    let script = smoke_script();
    let cache = temp_dir("warm");
    let run = |label: &str| {
        let out = healers(&[
            "serve",
            "exec",
            "--script",
            &script,
            "--cache",
            &cache.display().to_string(),
            "strlen",
            "strcpy",
            "abs",
            "memset",
        ]);
        assert!(
            out.status.success(),
            "{label} run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };

    let (cold_stdout, cold_stderr) = run("cold");
    let (warm_stdout, warm_stderr) = run("warm");

    // The startup summary on stderr carries the campaign trace
    // counters: a warm start must hit the cache for every function and
    // perform zero injected calls.
    assert!(
        cold_stderr.contains("cache 0 hit / 4 miss"),
        "{cold_stderr}"
    );
    assert!(
        warm_stderr.contains("cache 4 hit / 0 miss"),
        "{warm_stderr}"
    );
    assert!(
        warm_stderr.contains("0 injected calls"),
        "warm start must not inject: {warm_stderr}"
    );
    // And warm vs cold plans answer identically.
    assert_eq!(cold_stdout, warm_stdout);
    std::fs::remove_dir_all(&cache).unwrap();
}

/// Kill the daemon child even when an assertion unwinds the test.
struct DaemonGuard(std::process::Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_stats_scrapes_a_live_daemon_in_all_three_views() {
    let dir = temp_dir("stats");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("healers.sock");
    let sock = socket.display().to_string();
    let mut daemon = DaemonGuard(
        Command::new(env!("CARGO_BIN_EXE_healers"))
            .args([
                "serve",
                "daemon",
                "--socket",
                &sock,
                "--workers",
                "2",
                "strlen",
                "abs",
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn daemon"),
    );
    // The daemon binds the socket only after the plans are built.
    for _ in 0..400 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(socket.exists(), "daemon never bound {sock}");

    let traffic = healers(&[
        "serve",
        "send",
        "--socket",
        &sock,
        "--script",
        &serve_script("traffic"),
    ]);
    assert!(
        traffic.status.success(),
        "traffic failed:\n{}",
        String::from_utf8_lossy(&traffic.stderr)
    );

    // Deterministic view: exactly the worker-count-invariant subset.
    let det = healers(&["serve", "stats", "--socket", &sock, "--deterministic"]);
    assert!(
        det.status.success(),
        "{}",
        String::from_utf8_lossy(&det.stderr)
    );
    let det = String::from_utf8(det.stdout).unwrap();
    assert!(det.contains("validates 3"), "{det}");
    assert!(
        det.contains("fn strlen admitted 1 rejected 1 unchecked 0"),
        "{det}"
    );
    assert!(
        det.contains("fn abs admitted 0 rejected 0 unchecked 1"),
        "{det}"
    );
    assert!(!det.contains("worker"), "live sections leaked: {det}");

    // Prometheus view: parseable text exposition format.
    let prom = healers(&["serve", "stats", "--socket", &sock, "--prom"]);
    assert!(prom.status.success());
    let prom = String::from_utf8(prom.stdout).unwrap();
    assert!(
        prom.contains("# TYPE healers_serve_validates counter"),
        "{prom}"
    );
    assert!(
        prom.contains(
            "healers_serve_validate_outcomes_total{function=\"strlen\",outcome=\"rejected\"} 1"
        ),
        "{prom}"
    );

    // Full view: the live sections appear.
    let full = healers(&["serve", "stats", "--socket", &sock]);
    assert!(full.status.success());
    let full = String::from_utf8(full.stdout).unwrap();
    assert!(full.contains("workers:"), "{full}");
    assert!(full.contains("queue highwater:"), "{full}");

    let bye = healers(&[
        "serve",
        "send",
        "--socket",
        &sock,
        "--script",
        &serve_script("shutdown"),
    ]);
    assert!(bye.status.success());
    let _ = daemon.0.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_misuse_exits_2() {
    for args in [
        &["serve"][..],
        &["serve", "frobnicate"][..],
        &["serve", "exec"][..],             // missing --script
        &["serve", "daemon"][..],           // missing --socket
        &["serve", "exec", "--script"][..], // missing the value
        &["serve", "stats"][..],            // missing --socket
        &[
            "serve",
            "stats",
            "--socket",
            "/tmp/x",
            "--prom",
            "--deterministic",
        ][..],
        &["serve", "stats", "--frob"][..],
        &["bench"][..],
        &["bench", "frobnicate"][..],
    ] {
        let out = healers(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn serve_exec_rejects_unknown_functions_at_startup() {
    let script = smoke_script();
    let out = healers(&["serve", "exec", "--script", &script, "frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn bench_serve_fast_reports_throughput_and_percentiles() {
    let out = healers(&[
        "bench",
        "serve",
        "--fast",
        "--clients",
        "2",
        "--workers",
        "2",
    ]);
    // The 1M requests/sec floor is a release-build CI gate; an
    // unoptimized test build may legitimately fail it (exit 1). Either
    // way the report itself must have been produced — only usage
    // errors (exit 2) or a missing report fail this test.
    assert!(
        matches!(out.status.code(), Some(0) | Some(1)),
        "bench serve --fast: {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("throughput"), "{text}");
    assert!(text.contains("frame p50"), "{text}");
    assert!(text.contains("frame p99"), "{text}");
}
