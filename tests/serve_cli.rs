//! CLI contracts of `smish serve` that only hold at the process
//! boundary:
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

use std::io::Write;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn smish() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smish"))
}

/// Run `smish serve` at scale 0.02 over `input`; returns stdout.
fn serve(extra: &[&str], input: &[u8]) -> String {
    let mut child = smish()
        .args(["serve", "--scale", "0.02", "--quiet"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn smish serve");
    child.stdin.take().unwrap().write_all(input).unwrap();
    let output = wait_done(&mut child, "serve");
    String::from_utf8(output.stdout).unwrap()
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
    let dir = std::env::temp_dir().join(format!("smish-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("serve-report.json");
    let _ = std::fs::remove_file(&metrics);

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
