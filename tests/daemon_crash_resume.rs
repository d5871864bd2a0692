//! Process-level crash/resume harness for `tibfit-daemon`: kill the
//! real binary anywhere — a deterministic seeded abort, a raced
//! SIGKILL, or a graceful SIGTERM drain — restart it over the same
//! replay, and demand decision logs byte-identical to a run that was
//! never interrupted.
//!
//! The binary is spawned via `CARGO_BIN_EXE_tibfit-daemon`, so these
//! tests cover the whole stack: argument parsing, signal handlers,
//! snapshot cadence, log truncation, and dedup-driven re-streaming.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use tibfit_daemon::state::{read_tenant_state, tenant_state_path, tenant_state_slots};

const TENANTS: usize = 2;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tibfit-daemon")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-cr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("binary spawns");
    assert!(
        out.status.success(),
        "expected success for {args:?}\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn decisions(state_dir: &Path) -> Vec<String> {
    (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(state_dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect()
}

fn gen_replay(dir: &Path, seed: u64, ticks: u64) -> PathBuf {
    gen_replay_per_tick(dir, seed, ticks, 1)
}

fn gen_replay_per_tick(dir: &Path, seed: u64, ticks: u64, per_tick: u64) -> PathBuf {
    let replay = dir.join("events.replay");
    run_ok(&[
        "gen-replay",
        "--out",
        replay.to_str().unwrap(),
        "--tenants",
        "2",
        "--seed",
        &seed.to_string(),
        "--ticks",
        &ticks.to_string(),
        "--per-tick",
        &per_tick.to_string(),
    ]);
    replay
}

fn serve_args<'a>(
    replay: &'a str,
    state: &'a str,
    seed: &'a str,
    engine: &'a str,
) -> Vec<&'a str> {
    vec![
        "serve", "--replay", replay, "--state-dir", state, "--seed", seed, "--tenants", "2",
        "--engine", engine, "--threads", "2", "--snapshot-every", "3",
    ]
}

/// One seeded crash/resume cycle: reference run, aborted run, resumed
/// run, byte-compare. Returns the tick the crash plan fired at (for
/// coverage reporting).
fn crash_resume_cycle(seed: u64, engine: &str, ticks: u64) {
    let root = fresh_dir(&format!("seed{seed}-{engine}"));
    let replay = gen_replay(&root, seed, ticks);
    let replay = replay.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s, engine));
    let reference = decisions(&ref_dir);
    assert!(!reference[0].is_empty(), "reference run must decide something");

    let crash_dir = root.join("crash");
    let crash_dir_s = crash_dir.to_str().unwrap().to_string();
    let mut crash_args = serve_args(replay, &crash_dir_s, &seed_s, engine);
    let horizon = ticks.to_string();
    crash_args.extend_from_slice(&["--crash-seed", &seed_s, "--crash-horizon", &horizon]);
    let out = Command::new(bin()).args(&crash_args).output().expect("binary spawns");
    assert!(
        !out.status.success(),
        "seed {seed}: the crash plan must abort before end of stream"
    );

    // Same state dir, same replay: dedup drops everything the snapshot
    // already covers and regenerates the rest.
    let resumed_stdout = run_ok(&serve_args(replay, &crash_dir_s, &seed_s, engine));
    assert!(resumed_stdout.contains("daemon.exit eof"));
    assert_eq!(
        reference,
        decisions(&crash_dir),
        "seed {seed} engine {engine}: resumed decisions must be byte-identical"
    );
}

#[test]
fn seeded_aborts_resume_byte_identical_across_20_seeds() {
    for seed in 0..20u64 {
        let engine = if seed % 2 == 0 { "seq" } else { "sharded" };
        crash_resume_cycle(seed, engine, 8);
    }
}

#[test]
fn raced_sigkill_resumes_byte_identical() {
    for (i, sleep_ms) in [5u64, 30, 90].into_iter().enumerate() {
        let seed = 900 + i as u64;
        let root = fresh_dir(&format!("kill{i}"));
        let replay = gen_replay(&root, seed, 30);
        let replay = replay.to_str().unwrap();
        let seed_s = seed.to_string();

        let ref_dir = root.join("ref");
        run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s, "seq"));
        let reference = decisions(&ref_dir);

        let kill_dir = root.join("killed");
        let kill_dir_s = kill_dir.to_str().unwrap().to_string();
        let mut child = Command::new(bin())
            .args(serve_args(replay, &kill_dir_s, &seed_s, "seq"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        std::thread::sleep(Duration::from_millis(sleep_ms));
        // SIGKILL: no handlers, no drain — whatever hit disk is all
        // the resume gets. (The race may also lose: a fast run that
        // finished already is just the trivially-resumable case.)
        let _ = child.kill();
        let _ = child.wait();

        run_ok(&serve_args(replay, &kill_dir_s, &seed_s, "seq"));
        assert_eq!(
            reference,
            decisions(&kill_dir),
            "sleep {sleep_ms}ms: SIGKILL + resume must be byte-identical"
        );
    }
}

#[test]
fn sigterm_drains_cleanly_and_resume_completes() {
    let seed = 950u64;
    let root = fresh_dir("drain");
    let replay_path = gen_replay(&root, seed, 12);
    let replay = replay_path.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s, "seq"));
    let reference = decisions(&ref_dir);

    // Feed roughly half the stream over stdin, SIGTERM, then one wake
    // line so the read loop observes the flag and drains.
    let text = std::fs::read_to_string(&replay_path).expect("replay readable");
    let lines: Vec<&str> = text.lines().collect();
    let half = lines.len() / 2;

    let drain_dir = root.join("drained");
    let drain_dir_s = drain_dir.to_str().unwrap().to_string();
    let mut args = serve_args(replay, &drain_dir_s, &seed_s, "seq");
    args.retain(|a| *a != "--replay" && *a != replay);
    args.push("--stdin");
    let mut child = Command::new(bin())
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in &lines[..half] {
        writeln!(stdin, "{line}").expect("write to daemon");
    }
    stdin.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));
    let pid = child.id().to_string();
    let killed = Command::new("/bin/kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill spawns");
    assert!(killed.success());
    std::thread::sleep(Duration::from_millis(100));
    writeln!(stdin, "# wake").expect("wake line");
    stdin.flush().expect("flush");

    let out = child.wait_with_output().expect("daemon exits");
    drop(stdin);
    assert!(out.status.success(), "SIGTERM must drain, not kill");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("daemon.exit drained"),
        "expected a drained exit, got:\n{stdout}"
    );

    // Resume over the full replay: the drained half dedups away.
    run_ok(&serve_args(replay, &drain_dir_s, &seed_s, "seq"));
    assert_eq!(reference, decisions(&drain_dir));
}

#[test]
fn abort_past_the_snapshot_cuts_the_log_and_resumes_byte_identical() {
    let seed = 7u64;
    let root = fresh_dir("cut");
    let replay = gen_replay_per_tick(&root, seed, 30, 2);
    let replay = replay.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s, "sharded"));
    let reference = decisions(&ref_dir);

    // Abort after tick 20: the cadence (every 3 ticks, doubling) last
    // snapshotted at tick 9, and the logs already hold tick 19 (each
    // tick completes before the next one is issued), so the restart
    // has lines to cut.
    let crash_dir = root.join("crash");
    let crash_dir_s = crash_dir.to_str().unwrap().to_string();
    let mut args = serve_args(replay, &crash_dir_s, &seed_s, "sharded");
    args.extend_from_slice(&["--crash-after-ticks", "20"]);
    let out = Command::new(bin()).args(&args).output().expect("binary spawns");
    assert!(!out.status.success(), "the crash plan must abort the run");
    for (t, log) in decisions(&crash_dir).iter().enumerate() {
        let round = restored_round(&tenant_state_path(&crash_dir, t)).expect("snapshot on disk");
        let lines = log.lines().count() as u64;
        assert!(
            lines > round,
            "tenant {t}: {lines} log lines must run past snapshot round {round}"
        );
    }

    run_ok(&serve_args(replay, &crash_dir_s, &seed_s, "sharded"));
    assert_eq!(
        reference,
        decisions(&crash_dir),
        "resume after a non-empty cut must be byte-identical"
    );
}

#[test]
fn sparse_abort_past_capped_intervals_replays_at_most_the_record_budget() {
    // One record per tenant per tick, every 3 ticks minimum, budget 8:
    // R = 24 records, which caps the doubling interval (3, 6, 12, then
    // a snapshot every 17 ticks) well before the abort at tick 100.
    let (every, budget, abort) = (3u64, 8u64, 100u64);
    let r = every * budget;
    let seed = 970u64;
    let root = fresh_dir("sparse-budget");
    let replay = gen_replay(&root, seed, 120);
    let replay = replay.to_str().unwrap();
    let seed_s = seed.to_string();
    let (every_s, budget_s, abort_s) = (every.to_string(), budget.to_string(), abort.to_string());
    let args = |dir: &str| {
        let mut args = serve_args(replay, dir, &seed_s, "seq");
        *args.last_mut().unwrap() = &every_s;
        args.extend_from_slice(&["--budget", &budget_s]);
        args.into_iter().map(str::to_string).collect::<Vec<_>>()
    };

    let ref_dir = root.join("ref");
    let stdout = run_ok(&args(ref_dir.to_str().unwrap()).iter().map(String::as_str).collect::<Vec<_>>());
    let reference = decisions(&ref_dir);
    // Snapshots at ticks 3, 9, 21 and every 17 ticks after, plus the
    // drain's final one: 9, where a fixed 3-tick cadence takes 41.
    for t in 0..TENANTS {
        let snapshots = counter(&stdout, &format!("daemon.t{t}.snapshots"));
        assert!((9..20).contains(&snapshots), "tenant {t}: {snapshots} snapshots");
    }

    let crash_dir = root.join("crash");
    let crash_dir_s = crash_dir.to_str().unwrap().to_string();
    let mut crash_args = args(&crash_dir_s);
    crash_args.extend(["--crash-after-ticks".to_string(), abort_s]);
    let out = Command::new(bin()).args(&crash_args).output().expect("binary spawns");
    assert!(!out.status.success(), "the crash plan must abort the run");
    for t in 0..TENANTS {
        let round = restored_round(&tenant_state_path(&crash_dir, t)).expect("snapshot on disk");
        // The snapshot holds all but at most R of the records issued
        // before the abort (the cadence's last one is at tick 89).
        assert!(abort - round <= r, "tenant {t}: {} records past round {round}", abort - round);
    }

    run_ok(&args(&crash_dir_s).iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(
        reference,
        decisions(&crash_dir),
        "resume after a capped-interval abort must be byte-identical"
    );
}

/// The value of exit-report counter `key` in a daemon's stdout.
fn counter(stdout: &str, key: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in\n{stdout}"))
}

/// Round `path`'s state restores at (`None` for no state).
fn restored_round(path: &Path) -> Option<u64> {
    read_tenant_state(path).expect("state readable").map(|s| s.round)
}

/// Flips one byte in whichever slot holds `path`'s newest state, and
/// returns the round restore falls back to.
fn corrupt_newest_slot(path: &Path) -> Option<u64> {
    let before = restored_round(path);
    for slot in tenant_state_slots(path) {
        let Ok(original) = std::fs::read(&slot) else {
            continue;
        };
        if original.is_empty() {
            continue;
        }
        let mut flipped = original.clone();
        flipped[original.len() / 2] ^= 0x40;
        std::fs::write(&slot, &flipped).expect("slot writable");
        let after = restored_round(path);
        if after != before {
            return after;
        }
        std::fs::write(&slot, &original).expect("slot writable");
    }
    panic!("no slot of {} holds the newest state", path.display());
}

#[test]
fn sigkill_then_torn_newest_slot_resumes_from_the_older_slot() {
    let seed = 960u64;
    let root = fresh_dir("torn-slot");
    let replay_path = gen_replay(&root, seed, 30);
    let replay = replay_path.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s, "seq"));
    let reference = decisions(&ref_dir);

    // Feed 20 of the 30 ticks over stdin with a round probe per tenant
    // in tick 20, wait for both answers (so the snapshots of ticks 3
    // and 9, one per slot, are on disk), then SIGKILL.
    let text = std::fs::read_to_string(&replay_path).expect("replay readable");
    let mut fed = String::new();
    let mut ticks = 0;
    for line in text.lines() {
        if line == "T" {
            ticks += 1;
            if ticks == 20 {
                fed.push_str("Q round 0\nQ round 1\n");
            }
        }
        fed.push_str(line);
        fed.push('\n');
        if ticks == 20 {
            break;
        }
    }

    let kill_dir = root.join("killed");
    let kill_dir_s = kill_dir.to_str().unwrap().to_string();
    let mut args = serve_args(replay, &kill_dir_s, &seed_s, "seq");
    args.retain(|a| *a != "--replay" && *a != replay);
    args.push("--stdin");
    let mut child = Command::new(bin())
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(fed.as_bytes()).expect("write to daemon");
    stdin.flush().expect("flush");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut answered = 0;
    for line in stdout.lines() {
        if line.expect("daemon stdout").starts_with("A round ") {
            answered += 1;
            if answered == 2 {
                break;
            }
        }
    }
    assert_eq!(answered, 2, "both tenants must answer before the kill");
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    drop(stdin);

    for t in 0..TENANTS {
        let path = tenant_state_path(&kill_dir, t);
        let newest = restored_round(&path).expect("snapshot on disk");
        let fallback = corrupt_newest_slot(&path).expect("an older snapshot survives");
        assert!(fallback < newest, "tenant {t}: {fallback} !< {newest}");
    }

    // Resume over the full replay: the older slot's base plus the
    // re-streamed ticks regenerate every decision.
    run_ok(&serve_args(replay, &kill_dir_s, &seed_s, "seq"));
    assert_eq!(
        reference,
        decisions(&kill_dir),
        "resume from the older slot must be byte-identical"
    );
}
