//! Fleet supervision: the Impact peer monitor must quarantine a dead
//! peer, adopt its tenants through the catch-up replay, and move the
//! fleet trace counters — all observable through the `STATUS` wire
//! query while the daemon is still serving.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use tibfit_daemon::fleet::{owner_of, FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::net_io::ListenSource;
use tibfit_daemon::{Daemon, DaemonConfig, WorkerFault};
use tibfit_experiments::replay::{render_replay, replay_records};

const TENANTS: usize = 2;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-fsup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One `STATUS` round trip against a fleet port.
fn status_query(addr: SocketAddr) -> Option<Vec<String>> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .ok()?;
    let mut w = &stream;
    writeln!(w, "STATUS").ok()?;
    w.flush().ok()?;
    let mut reader = BufReader::new(&stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).ok()? == 0 {
            break;
        }
        let trimmed = line.trim_end().to_string();
        let done = trimmed == "S end";
        lines.push(trimmed);
        if done {
            break;
        }
    }
    Some(lines)
}

#[test]
fn dead_peer_is_quarantined_and_its_tenants_adopted() {
    let root = fresh_dir("failover");
    let seed = 42u64;
    // A placement seed under which the (dead) peer 1 owns at least one
    // tenant of the full roster {0, 1}.
    let fleet_seed = (0..1000u64)
        .find(|&s| (0..TENANTS).any(|t| owner_of(s, t, &[0, 1]) == Some(1)))
        .expect("some seed places a tenant on peer 1");
    let victim_tenants: Vec<usize> = (0..TENANTS)
        .filter(|&t| owner_of(fleet_seed, t, &[0, 1]) == Some(1))
        .collect();

    let text = render_replay(&replay_records(TENANTS, seed, 10, 2));
    let catchup = root.join("catchup.replay");
    std::fs::write(&catchup, &text).expect("catchup replay");

    let mut cfg = DaemonConfig::standard(TENANTS, seed, root.join("state"));
    cfg.fleet = Some(FleetConfig {
        id: 0,
        // Nothing listens on port 1: every probe misses immediately.
        peers: vec![PeerSpec {
            id: 1,
            addr: "127.0.0.1:1".into(),
        }],
        seed: fleet_seed,
        listen: "127.0.0.1:0".into(),
        linger_ms: 4000,
        catchup_replay: Some(catchup),
        policy: FleetPolicy {
            check_interval_ms: 10,
            grace_ms: 0,
            probe_timeout_ms: 50,
            ..FleetPolicy::default()
        },
    });
    let mut daemon = Daemon::new(cfg).expect("fleet daemon");
    let fleet_addr = daemon.fleet_addr().expect("fleet port bound");
    let handle = std::thread::spawn(move || daemon.run(Cursor::new(text)).expect("run"));

    // While the daemon lingers, STATUS must show peer 1 quarantined
    // with decayed trust, and placement must fall back to daemon 0.
    let status = (0..100)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let lines = status_query(fleet_addr)?;
            lines
                .iter()
                .any(|l| l.starts_with("S peer 1 quarantined"))
                .then_some(lines)
        })
        .expect("peer 1 was never quarantined while the daemon served STATUS");
    assert!(status.contains(&"S self 0".to_string()), "{status:?}");
    for t in 0..TENANTS {
        assert!(
            status.contains(&format!("S tenant {t} 0")),
            "tenant {t} must be placed on the survivor: {status:?}"
        );
    }

    let report = handle.join().expect("daemon thread");
    let counters = report.counters();
    let fleet = report.fleet.expect("fleet summary present");
    assert_eq!(
        fleet.adopted, victim_tenants,
        "exactly the dead peer's tenants are adopted"
    );
    assert_eq!(fleet.rebalances, victim_tenants.len() as u64);
    assert_eq!(fleet.migrations_in + fleet.migrations_out, 0);

    // Counter movement across the forced failover.
    let get = |key: &str| {
        counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {key}: {counters:?}"))
    };
    assert!(get("fleet.rebalance.count") >= 1);
    assert_eq!(get("fleet.migrations"), 0);
    assert!(
        get("fleet.peer_trust.p1") < 1000,
        "peer 1 trust must have decayed from 1.0"
    );
    // Every adopted tenant ends the run applied and unquarantined.
    for &t in &victim_tenants {
        let summary = report
            .tenants
            .iter()
            .find(|s| s.id == t)
            .expect("adopted tenant reported");
        assert!(summary.applied > 0, "adopted tenant {t} must apply rounds");
        assert!(!summary.quarantined);
    }
}

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind :0")
        .local_addr()
        .expect("local addr")
        .port()
}

fn decisions(state_dir: &Path) -> Vec<String> {
    (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(state_dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect()
}

/// Sends one fleet-port command line and reads one reply line.
fn fleet_command(addr: SocketAddr, command: &str) -> String {
    let stream = TcpStream::connect(addr).expect("fleet port reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut w = &stream;
    writeln!(w, "{command}").expect("send command");
    w.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("reply line");
    line.trim_end().to_string()
}

/// A migrated tenant's worker that panics before its first snapshot on
/// the destination must be rebuilt from the bundle's state *and* its
/// replay: the bundle's replay belongs in the queue's recovery buffer
/// from the moment of install, not only the ticks the destination
/// issues itself.
#[test]
fn migrated_worker_failing_before_its_first_snapshot_replays_the_bundle() {
    const PHASE_TICKS: u64 = 8;
    const PER_TICK: u32 = 2;
    let root = fresh_dir("migrate-fault");
    let seed = 61u64;
    let text = render_replay(&replay_records(TENANTS, seed, 2 * PHASE_TICKS, PER_TICK));
    let mut phases = vec![String::new()];
    let mut ticks = 0;
    for line in text.lines() {
        let phase = phases.last_mut().expect("a phase");
        phase.push_str(line);
        phase.push('\n');
        if line == "T" {
            ticks += 1;
            if ticks == PHASE_TICKS {
                phases.push(String::new());
            }
        }
    }

    let mut reference = Daemon::new(DaemonConfig::standard(TENANTS, seed, root.join("ref")))
        .expect("reference daemon");
    reference
        .run(Cursor::new(text.clone()))
        .expect("reference run");
    let want = decisions(&root.join("ref"));

    // Daemon 0 owns every tenant while both are alive; tenant 0 moves
    // to daemon 1 after phase 1. Its last snapshot on daemon 0 was at
    // tick 4, so the bundle carries ticks 5..=8 as replay, and the
    // destination's first incarnation panics on the first live record
    // after that replay, before its own first snapshot.
    let fleet_seed = (0..10_000u64)
        .find(|&s| (0..TENANTS).all(|t| owner_of(s, t, &[0, 1]) == Some(0)))
        .expect("some seed places everything on daemon 0");
    let fleet_ports = [free_port(), free_port()];
    let shared = root.join("fleet");
    let servers: Vec<_> = (0..2usize)
        .map(|id| {
            let mut cfg = DaemonConfig::standard(TENANTS, seed, shared.clone());
            cfg.fleet = Some(FleetConfig {
                id,
                peers: vec![PeerSpec {
                    id: 1 - id,
                    addr: format!("127.0.0.1:{}", fleet_ports[1 - id]),
                }],
                seed: fleet_seed,
                listen: format!("127.0.0.1:{}", fleet_ports[id]),
                linger_ms: 200,
                catchup_replay: None,
                policy: FleetPolicy {
                    grace_ms: 3_600_000,
                    ..FleetPolicy::default()
                },
            });
            if id == 1 {
                cfg.faults = vec![(
                    0,
                    WorkerFault {
                        panic_at_round: Some(PHASE_TICKS * u64::from(PER_TICK) + 1),
                        fail_incarnations: 1,
                        ..WorkerFault::default()
                    },
                )];
            }
            let source = ListenSource::bind("127.0.0.1:0", Some(1)).expect("ingest listener");
            let ingest = source.local_addr().expect("ingest addr");
            let mut daemon = Daemon::new(cfg).expect("fleet daemon");
            let server = std::thread::spawn(move || daemon.run(source).expect("fleet run"));
            (ingest, server)
        })
        .collect();

    let mut ingest0 = TcpStream::connect(servers[0].0).expect("ingest 0");
    ingest0.write_all(phases[0].as_bytes()).expect("phase 1");
    ingest0.flush().expect("flush phase 1");
    // Migrate only once daemon 0 has decided all of phase 1: records
    // still in flight when the route goes would be dropped as foreign.
    let phase_rounds = (PHASE_TICKS * u64::from(PER_TICK)) as usize;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (0..TENANTS).any(|t| {
        std::fs::read_to_string(shared.join("decisions").join(format!("tenant{t}.log")))
            .map_or(0, |log| log.lines().count())
            < phase_rounds
    }) {
        assert!(std::time::Instant::now() < deadline, "phase 1 was never decided");
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = fleet_command(SocketAddr::from(([127, 0, 0, 1], fleet_ports[0])), "MIGRATE 0 1");
    assert!(reply.starts_with("MOK"), "migration must succeed: {reply:?}");

    // Phase 2 goes to both daemons; each decides the tenant it hosts
    // and drops the other's records as foreign.
    let mut ingest1 = TcpStream::connect(servers[1].0).expect("ingest 1");
    for stream in [&mut ingest0, &mut ingest1] {
        stream.write_all(phases[1].as_bytes()).expect("phase 2");
        stream.flush().expect("flush phase 2");
    }
    drop(ingest0);
    drop(ingest1);
    let reports: Vec<_> = servers
        .into_iter()
        .map(|(_, server)| server.join().expect("daemon thread"))
        .collect();
    let moved = reports[1]
        .tenants
        .iter()
        .find(|s| s.id == 0)
        .expect("daemon 1 hosts the migrated tenant");
    assert_eq!(moved.restarts, 1, "the injected panic restarts the worker once");
    assert!(!moved.quarantined);
    assert_eq!(
        want,
        decisions(&shared),
        "a restart before the first snapshot must not lose the bundle's replay"
    );
}
