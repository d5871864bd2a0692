//! Golden pin of the tenant round: two standard mobile tenants
//! (`FieldScenario::mobile(tenant_seed(7, t))`, t = 0, 1), each run for
//! 3,000 `Tenant::apply_into` rounds on both engines — about 1,000
//! re-elections per run. The pin records, per tenant and engine:
//!
//! * a running FNV-1a over the decision lines, every 500 rounds;
//! * the CRC-32 of the final `engine_blob`;
//! * the final trace counters.
//!
//! Any change to the round path — clustering, the vote, the trust
//! update, drift, re-election, or the checkpoint encoding of the state
//! they leave — shows up here as a diff at the first 500-round block it
//! touches.
//!
//! Regenerate after a deliberate behaviour change with
//! `cargo test -p tibfit-daemon --test tenant_golden_rounds -- --ignored`.

use std::fmt::Write as _;
use std::path::PathBuf;

use tibfit_daemon::tenant::{EngineKind, Tenant};
use tibfit_daemon::wire::Report;
use tibfit_experiments::checkpoint::restore_sequential;
use tibfit_experiments::replay::{tenant_seed, FieldScenario};
use tibfit_sim::snapshot::crc32;

const MASTER_SEED: u64 = 7;
const TENANTS: usize = 2;
const ROUNDS: usize = 3_000;
const BLOCK: usize = 500;

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/tenant_mobile_rounds.txt"
    ))
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Runs one tenant on one engine and appends its pin lines to `out`.
fn pin_tenant(t: usize, kind: EngineKind, out: &mut String) {
    let scenario = FieldScenario::mobile(tenant_seed(MASTER_SEED, t));
    let engine = match kind {
        EngineKind::Sequential => "seq",
        EngineKind::Sharded => "sharded",
    };
    let mut tenant = Tenant::new(t, scenario.clone(), kind, 2).expect("mobile scenario builds");
    let mut line = String::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, p) in scenario.events(ROUNDS).into_iter().enumerate() {
        let seq = i as u64 + 1;
        let report = Report {
            tenant: t,
            time: seq,
            src: 0,
            seq,
            x: p.x,
            y: p.y,
        };
        line.clear();
        tenant.apply_into(&report, &mut line);
        line.push('\n');
        h = fnv1a(h, line.as_bytes());
        if (i + 1) % BLOCK == 0 {
            let _ = writeln!(
                out,
                "tenant={t} engine={engine} round={} lines_fnv={h:016x}",
                i + 1
            );
        }
    }
    let blob = tenant.engine_blob().expect("mobile tenants checkpoint");
    let _ = writeln!(
        out,
        "tenant={t} engine={engine} blob_crc={:08x} blob_len={}",
        crc32(&blob),
        blob.len()
    );
    let restored = restore_sequential(&blob).expect("blob restores");
    for (name, value) in restored.counters() {
        let _ = writeln!(out, "tenant={t} engine={engine} counter {name}={value}");
    }
}

fn render() -> String {
    let mut out = String::from(
        "# tenant_golden_rounds: FieldScenario::mobile(tenant_seed(7, t)), 3000 apply_into rounds\n",
    );
    for t in 0..TENANTS {
        for kind in [EngineKind::Sequential, EngineKind::Sharded] {
            pin_tenant(t, kind, &mut out);
        }
    }
    out
}

#[test]
fn tenant_rounds_match_the_golden_pin() {
    let want = std::fs::read_to_string(golden_path()).expect("golden pin is checked in");
    let got = render();
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("got  {g}\nwant {w}"))
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!("tenant rounds diverged from tests/golden/tenant_mobile_rounds.txt:\n{first}");
    }
}

#[test]
#[ignore = "regenerates the golden pin"]
fn regenerate_golden_pin() {
    std::fs::write(golden_path(), render()).expect("write golden pin");
}
