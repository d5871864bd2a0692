//! What the daemon tells its operator means what its docs say: `Q trust`
//! answers are trust indices, the cluster head's own, and the exit
//! report's snapshot counter follows the snapshot cadence.

use std::fmt::Write as _;
use std::io::Cursor;
use std::path::PathBuf;
use std::process::Command;

use tibfit_daemon::{Daemon, DaemonConfig};
use tibfit_experiments::replay::{replay_records, tenant_seed, FieldScenario};
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;

const TENANTS: usize = 2;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-answers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn trust_answers_are_the_heads_trust_indices() {
    let (seed, ticks, nodes) = (31u64, 60u64, 64usize);
    let query_ticks = [1u64, 20, 60];
    let records = replay_records(TENANTS, seed, ticks, 1);
    // Each tick's records, then a trust query for every node of every
    // tenant on the query ticks (answered after the tick's records),
    // then the tick boundary.
    let mut replay = String::new();
    for time in 0..ticks {
        for r in records.iter().filter(|r| r.time == time) {
            let _ = writeln!(
                replay,
                "R {} {} {} {} {} {}",
                r.tenant, r.time, r.src, r.seq, r.x, r.y
            );
        }
        if query_ticks.contains(&(time + 1)) {
            for t in 0..TENANTS {
                for n in 0..nodes {
                    let _ = writeln!(replay, "Q trust {t} {n}");
                }
            }
        }
        replay.push_str("T\n");
    }
    replay.push_str(&format!("Q trust 0 {nodes}\nT\n"));
    let dir = fresh_dir("trust");
    let path = dir.join("queries.replay");
    std::fs::write(&path, &replay).expect("replay written");
    let out = Command::new(env!("CARGO_BIN_EXE_tibfit-daemon"))
        .args(["serve", "--replay", path.to_str().unwrap(), "--state-dir"])
        .arg(dir.join("state"))
        .args([
            "--seed",
            &seed.to_string(),
            "--tenants",
            &TENANTS.to_string(),
        ])
        .output()
        .expect("binary spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Per tenant, answers arrive in the order asked; a twin engine fed
    // the same stimuli holds the expected trust index for each.
    let mut answers: Vec<Vec<(usize, String)>> = vec![Vec::new(); TENANTS];
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("A trust ") else {
            continue;
        };
        let fields: Vec<&str> = rest.split(' ').collect();
        let [t, n, v] = fields[..] else {
            panic!("malformed answer {line:?}");
        };
        answers[t.parse::<usize>().unwrap()].push((n.parse().unwrap(), v.to_string()));
    }
    assert_eq!(
        answers[0].pop(),
        Some((nodes, "-".to_string())),
        "an unknown node answers '-'"
    );
    for (t, got) in answers.iter().enumerate() {
        assert_eq!(got.len(), query_ticks.len() * nodes, "tenant {t}");
        let mut twin = FieldScenario::mobile(tenant_seed(seed, t))
            .sequential()
            .unwrap();
        let mut expected = Vec::new();
        for (k, r) in records.iter().filter(|r| r.tenant == t).enumerate() {
            twin.run_event(Point::new(r.x, r.y));
            if query_ticks.contains(&(k as u64 + 1)) {
                expected.extend((0..nodes).map(|n| (n, twin.trust_of(NodeId(n)))));
            }
        }
        for (&(node, ref text), &(want_node, want)) in got.iter().zip(&expected) {
            assert_eq!(node, want_node, "tenant {t}");
            let ti: f64 = text
                .parse()
                .unwrap_or_else(|_| panic!("tenant {t}: answer {text:?}"));
            assert!(
                ti > 0.0 && ti <= 1.0,
                "tenant {t} node {node}: {ti} is not a trust index"
            );
            assert_eq!(
                ti.to_bits(),
                want.to_bits(),
                "tenant {t} node {node}: {ti} vs {want}"
            );
        }
        assert!(
            expected.iter().any(|&(_, ti)| ti < 1.0),
            "tenant {t}: some node must have lost trust"
        );
    }
}

fn small_scenario(seed: u64) -> FieldScenario {
    FieldScenario {
        nodes: 16,
        clusters: 2,
        field: 40.0,
        faulty: 4,
        noise_sigma: 1.0,
        loss: 0.0,
        drift_sigma: 0.3,
        reelect_every: 4,
        seed,
    }
}

/// Snapshots each tenant reports after `ticks` ticks of `per_tick`
/// records, at `--snapshot-every 4` and the given budget.
fn snapshots_reported(tag: &str, ticks: u64, per_tick: u64, budget: usize) -> Vec<u64> {
    let seed = 33;
    let streams: Vec<_> = (0..TENANTS)
        .map(|t| small_scenario(tenant_seed(seed, t)).events((ticks * per_tick) as usize))
        .collect();
    let mut replay = String::new();
    for time in 0..ticks {
        for (t, stream) in streams.iter().enumerate() {
            for k in 0..per_tick {
                let p = stream[(time * per_tick + k) as usize];
                let seq = time * per_tick + k + 1;
                let _ = writeln!(replay, "R {t} {time} {t} {seq} {} {}", p.x, p.y);
            }
        }
        replay.push_str("T\n");
    }
    let mut cfg = DaemonConfig::standard(TENANTS, seed, fresh_dir(tag));
    cfg.scenario = small_scenario;
    cfg.snapshot_every = 4;
    cfg.queue.tick_budget = budget;
    let report = Daemon::new(cfg)
        .expect("daemon builds")
        .run(Cursor::new(replay))
        .expect("run succeeds");
    let counters = report.counters();
    (0..TENANTS)
        .map(|t| {
            let key = format!("daemon.t{t}.snapshots");
            counters
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("exit report lacks {key}"))
        })
        .collect()
}

#[test]
fn exit_report_counts_snapshots_by_cadence() {
    let ticks = 600;
    // One record per tick against a budget of 64: R = 256 records, so
    // snapshots at ticks 4, 12, 28, 60, 124, 252, 445, plus the final
    // one, where a fixed cadence would take 151.
    for (t, n) in snapshots_reported("sparse", ticks, 1, 64)
        .into_iter()
        .enumerate()
    {
        assert!(
            (1..ticks / 4 / 8).contains(&n),
            "sparse tenant {t}: {n} snapshots"
        );
    }
    // A full budget every tick keeps the minimum cadence: every 4
    // ticks, plus the final snapshot (a watchdog restart may add one
    // or two).
    let ticks = 120;
    for (t, n) in snapshots_reported("dense", ticks, 4, 4)
        .into_iter()
        .enumerate()
    {
        assert!(
            (ticks / 4..=ticks / 4 + 3).contains(&n),
            "dense tenant {t}: {n} snapshots"
        );
    }
}
