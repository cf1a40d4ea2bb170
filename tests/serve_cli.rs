//! CLI contracts of `smish` that only hold at the process boundary,
//! mostly of `smish serve`:
//!
//! * **EOF flush** (regression): with `--metrics-json`, the run report
//!   hits disk the moment the query stream ends — in `--stream` mode
//!   that is *before* the publisher thread joins — and the flushed
//!   report already carries the session's final `serve.ts.*` buckets.
//! * **Worker-plane smoke**: `--serve-workers`/`--queue-depth` route
//!   through the multi-worker plane and answer byte-identically to the
//!   inline path.
//! * **One-shot parity**: `smish query <verb> <value>` prints the reply
//!   line `smish serve` writes for the same request, and `smish query
//!   explain` the same verdict line and rungs as the serve verb.
//! * **Hostile stdin**: a line that is not UTF-8 gets an `err` reply and
//!   the session goes on, in both serve modes.
//! * **Adversarial stream serve and checkpoint resume**: a rotation-wave
//!   session reports its waves and a clean engine; a checkpoint the
//!   replay does not reproduce exits 1 without a panic; a same-flags
//!   resume re-enters the epoch sequence and reports the engine's
//!   `exec.*` series; an unreadable checkpoint file is reported and
//!   replaced.
//! * **Flag validation**: `--snapshot-every 0` exits 2 naming the flag,
//!   before a world is generated.
//! * **Growth gate**: `smish perfdiff SMALL LARGE` exits 0 on linear
//!   growth, 1 on a quadratic layer and 2 on bad input.

use smishing::obs::{parse_report, MetricId, Obs};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn smish() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smish"))
}

/// Run `smish serve --scale 0.02 --quiet` plus `extra` over `input`, to
/// exit.
fn run_serve(extra: &[&str], input: &[u8]) -> Output {
    let mut child = smish()
        .args(["serve", "--scale", "0.02", "--quiet"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smish serve");
    // A child that fails before reading stdin closes the pipe; the exit
    // status, not this write, is what the callers check.
    let _ = child.stdin.take().unwrap().write_all(input);
    child.wait_with_output().expect("wait for smish serve")
}

/// [`run_serve`], which must succeed; returns stdout.
fn serve(extra: &[&str], input: &[u8]) -> String {
    let output = run_serve(extra, input);
    assert!(
        output.status.success(),
        "serve exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).unwrap()
}

/// A fresh temp directory private to one test of this process.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smish-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_done(child: &mut Child, what: &str) -> std::process::Output {
    // Collect stdout/stderr without deadlocking on full pipes.
    let out = child
        .stdout
        .take()
        .map(|mut s| {
            let mut buf = Vec::new();
            std::io::Read::read_to_end(&mut s, &mut buf).unwrap();
            buf
        })
        .unwrap_or_default();
    let status = child.wait().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(status.success(), "{what} exited with {status}");
    std::process::Output {
        status,
        stdout: out,
        stderr: Vec::new(),
    }
}

#[test]
fn stream_serve_flushes_metrics_at_eof_before_publisher_joins() {
    let dir = temp_dir("eof-flush");
    let metrics = dir.join("serve-report.json");

    let mut child = smish()
        .args([
            "serve",
            "--stream",
            "--scale",
            "0.02",
            "--quiet",
            "--metrics-json",
        ])
        .arg(&metrics)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn smish serve --stream");
    // One query so the session has traffic, then EOF.
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"url https://nope.example/x\n")
        .unwrap();

    // The regression fixed here: the report must not wait for the
    // publisher join in `main` — it is flushed at query-stream EOF. If
    // this box is fast enough that the child exits between polls, fall
    // back to the content checks below (the flush still happened; we
    // just could not observe the process mid-run).
    let deadline = Instant::now() + Duration::from_secs(120);
    let flushed_while_running;
    loop {
        let running = child.try_wait().expect("try_wait").is_none();
        if metrics.exists() {
            flushed_while_running = running;
            break;
        }
        assert!(running, "child exited without writing {metrics:?}");
        assert!(Instant::now() < deadline, "no report within 120s");
        std::thread::sleep(Duration::from_millis(10));
    }
    if !flushed_while_running {
        eprintln!("note: child already exited when the report appeared; timing not observable");
    }

    let output = wait_done(&mut child, "serve --stream");
    assert!(String::from_utf8_lossy(&output.stdout).contains("miss url"));
    // The flushed report carries the final session state: serve counters
    // and the time-series gauges exported at EOF.
    let report = std::fs::read_to_string(&metrics).unwrap();
    for key in ["\"intel.serve.queries\": 1", "serve.ts.", "trace.requests"] {
        assert!(report.contains(key), "{key} missing from {report}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_plane_cli_matches_inline_responses() {
    let script = "url https://nope.example/x\nmsg your parcel is waiting, confirm at once\n\
                  stats\nhealth\nquit\n";
    let run = |extra: &[&str]| serve(extra, script.as_bytes());

    let inline = run(&[]);
    let workers = run(&["--serve-workers", "4", "--queue-depth", "64"]);

    // Byte parity modulo per-process digits (stats quantiles, health
    // epoch age / cache fill / RSS, which depend on scheduling).
    let mask = |text: &str| -> String {
        text.lines()
            .map(|line| {
                let masked: Vec<String> = line
                    .split(' ')
                    .map(|tok| {
                        let volatile =
                            ["_ns=", "age_s=", "cache_len=", "near_cand_p", "rss_bytes="]
                                .iter()
                                .any(|k| tok.contains(k));
                        if volatile {
                            let key = tok.split_once('=').map_or(tok, |(k, _)| k);
                            format!("{key}=X")
                        } else {
                            tok.to_string()
                        }
                    })
                    .collect();
                masked.join(" ") + "\n"
            })
            .collect()
    };
    assert_eq!(mask(&workers), mask(&inline), "worker plane diverged");
    assert!(workers.contains("stats queries=2 "), "{workers}");
    assert!(workers.contains("shed=0"), "{workers}");
}

#[test]
fn one_shot_query_prints_the_serve_reply_line() {
    let sampled = serve(&[], b"sample 2\nsample near 1\n");
    let mut requests: Vec<String> = sampled.lines().map(str::to_string).collect();
    assert_eq!(requests.len(), 3, "{sampled}");
    requests.extend(
        [
            "url hxxps://not-in-store[.]example/login",
            "sender +19995550001",
            "near quick reminder that book club moved to tuesday evening this week",
            "msg +15550001111|lunch tomorrow at the usual spot?",
            "msg URGENT: your bank account is suspended, verify at http://fresh-host.example/now",
        ]
        .map(str::to_string),
    );
    let script: String = requests.iter().map(|r| format!("{r}\n")).collect();
    let replies = serve(&[], script.as_bytes());
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), requests.len(), "{replies:?}");
    for (request, reply) in requests.iter().zip(&replies) {
        let (verb, value) = request.split_once(' ').unwrap();
        let out = smish()
            .args(["query", "--scale", "0.02", "--quiet", verb, value])
            .output()
            .expect("run smish query");
        assert!(out.status.success(), "{request}: {}", out.status);
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("{reply}\n"),
            "{request}"
        );
    }

    // `explain`: the same verdict line and the same rungs, in order.
    let shape = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("trace id=") && !l.starts_with("end id="))
            .map(|l| match l.trim_start().strip_prefix("rung ") {
                Some(rung) => rung.split(' ').next().unwrap().to_string(),
                None => l.to_string(),
            })
            .collect()
    };
    for value in [
        "msg URGENT: your bank account is suspended, verify at http://fresh-host.example/now",
        "+15550001111|lunch tomorrow at the usual spot?",
        requests[0].as_str(),
        "msg",
    ] {
        let served = serve(&[], format!("explain {value}\n").as_bytes());
        let out = smish()
            .args(["query", "--scale", "0.02", "--quiet", "explain", value])
            .output()
            .expect("run smish query explain");
        assert!(out.status.success(), "explain {value}: {}", out.status);
        let one_shot = String::from_utf8(out.stdout).unwrap();
        assert!(one_shot.contains("  rung "), "{one_shot}");
        assert_eq!(shape(&one_shot), shape(&served), "explain {value}");
    }
}

#[test]
fn invalid_utf8_on_stdin_is_answered_in_both_serve_modes() {
    let input = b"url http://a.com\nurl http://\xff.com\nurl http://b.com\nstats\n";
    for extra in [&[][..], &["--serve-workers", "2"][..]] {
        let out = serve(extra, input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{extra:?}: {out}");
        assert_eq!(
            lines[..3],
            [
                "miss url key=http://a.com",
                "err invalid utf-8",
                "miss url key=http://b.com"
            ],
            "{extra:?}"
        );
        assert!(lines[3].contains(" errors=1 "), "{extra:?}: {}", lines[3]);
    }
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// `smish serve --stream` plus `extra` over one `health` request.
fn stream_health(extra: &[&str]) -> Output {
    run_serve(&[&["--stream"], extra].concat(), b"health\nquit\n")
}

fn counter(report: &Path, name: &str) -> Option<u64> {
    let json = std::fs::read_to_string(report).unwrap();
    let report = parse_report(&json).unwrap();
    report.counters.get(&MetricId::new(name, &[])).copied()
}

#[test]
fn adversarial_stream_serve_checkpoints_and_resumes() {
    let dir = temp_dir("adversary-resume");
    let (ck, first, resumed) = (
        dir.join("ck.json"),
        dir.join("first.json"),
        dir.join("resumed.json"),
    );
    let adversary = ["--adversary", "rotation", "--checkpoint", path_arg(&ck)];

    // Rotation waves ride the health line; no engine worker panics and no
    // record is dropped uncounted.
    let out = stream_health(&[&adversary[..], &["--metrics-json", path_arg(&first)]].concat());
    assert!(out.status.success(), "first run exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let waves = stdout
        .split(" adversary=rotation waves=")
        .nth(1)
        .unwrap_or_else(|| panic!("no adversary gauge in {stdout}"));
    assert!(
        waves.starts_with(|c: char| ('1'..='9').contains(&c)),
        "{stdout}"
    );
    for key in ["exec.engine.worker_panics", "exec.engine.uncounted_drops"] {
        assert_eq!(counter(&first, key), Some(0), "{key}");
    }
    assert!(counter(&first, "exec.engine.posts_ingested").unwrap_or(0) > 0);
    let checkpoint = std::fs::read(&ck).expect("checkpoint written");

    // Without the waves the replay cannot reproduce the checkpoint: one
    // error line and exit 1 when the replay ends, not a panic, and not
    // the 300 s wait for a first snapshot.
    let started = Instant::now();
    let out = stream_health(&["--checkpoint", path_arg(&ck)]);
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(elapsed < Duration::from_secs(120), "took {elapsed:?}");
    for stream in [&out.stdout, &out.stderr] {
        assert!(
            !String::from_utf8_lossy(stream).contains("panicked"),
            "{stderr}"
        );
    }
    assert!(
        stderr.contains("checkpoint") && stderr.contains(" post "),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        checkpoint,
        "failed resume wrote"
    );

    // The same flags resume at the checkpointed epoch, and the run report
    // carries the resumed engine's series.
    let out = stream_health(&[&adversary[..], &["--metrics-json", path_arg(&resumed)]].concat());
    assert!(out.status.success(), "resume exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let epoch = stdout
        .strip_prefix("health epoch=")
        .and_then(|rest| rest.split(' ').next()?.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no health epoch in {stdout}"));
    assert!(epoch >= 4, "resumed at epoch {epoch}");
    assert!(counter(&resumed, "exec.engine.posts_ingested").unwrap_or(0) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_checkpoint_is_reported_and_replaced() {
    let dir = temp_dir("unreadable-checkpoint");
    let ck = dir.join("ck.json");
    // Not UTF-8; and nested far past the JSON parser's depth limit, which
    // would overflow the stack of an unbounded recursive descent.
    let not_utf8 = b"{\"world_seed\":\xff}".to_vec();
    let too_deep = vec![b'['; 40_000];
    for bad in [not_utf8, too_deep] {
        std::fs::write(&ck, &bad).unwrap();
        let out = stream_health(&["--checkpoint", path_arg(&ck)]);
        assert!(out.status.success(), "exited with {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unreadable") && stderr.contains("starting fresh"),
            "{stderr}"
        );
        let rewritten = std::fs::read_to_string(&ck).expect("checkpoint rewritten as UTF-8");
        assert!(rewritten.contains("\"posts_consumed\""), "{rewritten}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_snapshot_interval_is_a_usage_error() {
    for command in ["drift", "stream"] {
        let out = smish()
            .args([command, "--scale", "0.01", "--snapshot-every", "0"])
            .args(["--adversary", "rotation", "--quiet"])
            .output()
            .expect("run smish");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(
            stderr.contains("bad --snapshot-every 0"),
            "{command}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command} printed before failing");
    }
}

#[test]
fn zero_posts_is_a_usage_error() {
    let out = smish()
        .args(["watch", "--scale", "0.01", "--posts", "0", "--quiet"])
        .output()
        .expect("run smish");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad --posts 0"), "{stderr}");
    assert!(out.stdout.is_empty(), "watch printed before failing");
}

/// Write a run report over `posts` posts with one `sum`, in ms, per
/// wall-time layer.
fn sized_report(path: &Path, posts: u64, layers: &[(&str, u64)]) {
    let obs = Obs::enabled();
    obs.counter("pipeline.collect.posts", &[]).add(posts);
    for &(name, ms) in layers {
        obs.histogram(name, &[]).record(ms * 1_000_000);
    }
    std::fs::write(path, obs.json_report()).unwrap();
}

#[test]
fn perfdiff_rates_growth_and_rejects_bad_input() {
    let dir = temp_dir("perfdiff");
    let (small, linear, quadratic) = (
        dir.join("small.json"),
        dir.join("linear.json"),
        dir.join("quadratic.json"),
    );
    // Four times the posts: 10 ms grows to 40 ms (linear) or 160 ms.
    sized_report(&small, 10_000, &[("analysis.layer.wall_ns", 10)]);
    sized_report(&linear, 40_000, &[("analysis.layer.wall_ns", 40)]);
    sized_report(&quadratic, 40_000, &[("analysis.layer.wall_ns", 160)]);
    let (small, linear, quadratic) = (path_arg(&small), path_arg(&linear), path_arg(&quadratic));
    let perfdiff = |args: &[&str]| {
        let out = smish()
            .arg("perfdiff")
            .args(args)
            .arg("--quiet")
            .output()
            .expect("run smish perfdiff");
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };

    let (code, stdout) = perfdiff(&[small, linear]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("ok analysis.layer.wall_ns"), "{stdout}");
    let (code, stdout) = perfdiff(&[small, quadratic]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("REGRESSION analysis.layer.wall_ns"),
        "{stdout}"
    );

    // One path, an unreadable file, swapped sizes, and the flags of the
    // retired baseline gate.
    let missing = dir.join("missing.json");
    for args in [
        &[small][..],
        &[small, path_arg(&missing)],
        &[linear, small],
        &["--tolerance", "4.0", small, linear],
        &["--growth", small, linear],
    ] {
        assert_eq!(perfdiff(args).0, Some(2), "perfdiff {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
