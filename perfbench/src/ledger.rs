//! The per-layer ledger: replays a daemon workload's input on one
//! thread through the same public functions the daemon's router and
//! workers call, timing each call from outside. No program code is
//! instrumented; the spans sit around the calls.
//!
//! Per tick the order is the daemon's: `parse_line` every frame, `offer`
//! records and queries, then per tenant `end_tick` (admission), `pop`
//! each issued item, `apply_into` records, answer queries, and at the
//! tick end append and flush the decision block, encode and commit a
//! snapshot on the daemon's cadence, and `complete_tick`. The decision
//! logs it writes must equal the daemon process's byte for byte.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tibfit_daemon::queue::{SharedQueue, WorkItem};
use tibfit_daemon::state::{
    decision_log_path, encode_tenant_state, read_tenant_state, tenant_state_path,
    truncate_decision_log, write_tenant_state,
};
use tibfit_daemon::tenant::{EngineKind, Tenant};
use tibfit_daemon::wire::{parse_line, Frame, Query};
use tibfit_daemon::{DaemonConfig, DaemonError};
use tibfit_experiments::multicluster::MultiClusterSim;
use tibfit_experiments::replay::tenant_seed;
use tibfit_net::geometry::Point;

use crate::stream::{Stream, TENANTS};

/// Timed layers, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `wire::parse_line`.
    Parse,
    /// `SharedQueue::offer` / `offer_query`.
    Offer,
    /// `SharedQueue::end_tick` with `PositionView::impact_of`.
    Admit,
    /// `SharedQueue::pop` and `complete_tick`.
    Handoff,
    /// `Tenant::apply_into`.
    Apply,
    /// Answering `Q round` / `Q trust` from the tenant.
    Query,
    /// Appending and flushing the tick's decision block.
    LogFlush,
    /// `snapshot_view` plus `encode_tenant_state`.
    Encode,
    /// `commit_snapshot` running `write_tenant_state` (fsync included).
    Write,
    /// Twin `MultiClusterSim::run_event` over the admitted stimuli, run
    /// after the replay so it does not share caches with it. Not part of
    /// the daemon's path: excluded from coverage.
    Round,
}

const LAYERS: usize = 10;

/// What one replay measured.
pub struct Ledger {
    /// Wall time of the replay, nanoseconds.
    pub wall_ns: u64,
    /// Summed time per layer, nanoseconds (all zero when untraced).
    pub layer_ns: [u64; LAYERS],
    /// Records applied.
    pub records: u64,
    /// Snapshots committed.
    pub snapshots: u64,
    /// Bytes of the last snapshot encoded.
    pub state_bytes: u64,
    /// Twin engine `exp()` evaluations per round.
    pub exp_evals_per_round: f64,
    /// `read_tenant_state` + `Tenant::from_blob` samples, nanoseconds.
    pub restore_ns: Vec<f64>,
    /// `truncate_decision_log` samples, nanoseconds.
    pub truncate_ns: Vec<f64>,
    /// The decision logs written, one per tenant.
    pub logs: Vec<PathBuf>,
    /// Why the replay disagrees with itself (twin or restore mismatch).
    pub mismatch: Option<String>,
}

impl Ledger {
    /// Summed time of `layer`, nanoseconds.
    #[must_use]
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer as usize]
    }

    /// Several replays of the same input taken together: times, records
    /// and snapshots add up, samples pool.
    #[must_use]
    pub fn sum(replays: &[Ledger]) -> Ledger {
        let mut out = Ledger {
            wall_ns: 0,
            layer_ns: [0; LAYERS],
            records: 0,
            snapshots: 0,
            state_bytes: 0,
            exp_evals_per_round: 0.0,
            restore_ns: Vec::new(),
            truncate_ns: Vec::new(),
            logs: Vec::new(),
            mismatch: None,
        };
        for r in replays {
            out.wall_ns += r.wall_ns;
            for (a, b) in out.layer_ns.iter_mut().zip(r.layer_ns) {
                *a += b;
            }
            out.records += r.records;
            out.snapshots += r.snapshots;
            out.state_bytes = r.state_bytes;
            out.exp_evals_per_round = r.exp_evals_per_round;
            out.restore_ns.extend(&r.restore_ns);
            out.truncate_ns.extend(&r.truncate_ns);
        }
        out
    }

    /// Sum of the daemon-path layers over the traced replay's wall time.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let sum: u64 = self
            .layer_ns
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != Layer::Round as usize)
            .map(|(_, &ns)| ns)
            .sum();
        sum as f64 / self.wall_ns.max(1) as f64
    }
}

struct Tracer {
    on: bool,
    ns: [u64; LAYERS],
}

impl Tracer {
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        out
    }
}

struct Slot {
    tenant: Tenant,
    twin: Option<MultiClusterSim>,
    /// Admitted stimuli, in order, for the twin engine.
    admitted: Vec<Point>,
    queue: SharedQueue,
    log: File,
    lines: String,
    state_path: PathBuf,
    log_path: PathBuf,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays ticks `0..ticks` of `stream` into fresh state under `dir`.
/// With `traced`, every layer call is timed and a twin engine runs the
/// admitted stimuli for `engine.round`.
///
/// # Errors
///
/// Any library or filesystem failure.
pub fn replay(
    stream: &Stream,
    ticks: usize,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<Ledger, String> {
    let cfg = DaemonConfig::standard(TENANTS, seed, dir.to_path_buf());
    std::fs::create_dir_all(&cfg.decisions_dir).map_err(err)?;
    let mut slots = Vec::with_capacity(TENANTS);
    for id in 0..TENANTS {
        let scenario = (cfg.scenario)(tenant_seed(seed, id));
        let twin = if traced {
            Some(scenario.sequential().map_err(err)?)
        } else {
            None
        };
        let tenant = Tenant::new(id, scenario, EngineKind::Sequential, cfg.threads).map_err(err)?;
        let log_path = decision_log_path(&cfg.decisions_dir, id);
        let log = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&log_path)
            .map_err(err)?;
        slots.push(Slot {
            tenant,
            twin,
            admitted: Vec::new(),
            queue: SharedQueue::new(cfg.queue),
            log,
            lines: String::new(),
            state_path: tenant_state_path(&cfg.state_dir, id),
            log_path,
        });
    }
    let mut tr = Tracer {
        on: traced,
        ns: [0; LAYERS],
    };
    let mut answers = String::new();
    let mut records = 0u64;
    let mut snapshots = 0u64;
    let mut state_bytes = 0u64;
    let started = Instant::now();
    for (k, tick) in stream.ticks[..ticks].iter().enumerate() {
        let tick_no = k as u64 + 1;
        for line in tick.lines() {
            let frame = tr.time(Layer::Parse, || parse_line(line)).map_err(err)?;
            match frame {
                Some(Frame::Report(r)) => {
                    let q = &slots[r.tenant].queue;
                    tr.time(Layer::Offer, || q.offer(r));
                }
                Some(Frame::Query(q @ (Query::Round { tenant } | Query::Trust { tenant, .. }))) => {
                    let queue = &slots[tenant].queue;
                    tr.time(Layer::Offer, || queue.offer_query(q));
                }
                Some(Frame::Tick) => {
                    for slot in &mut slots {
                        let positions = slot.tenant.positions();
                        tr.time(Layer::Admit, || {
                            slot.queue
                                .end_tick(tick_no, |r| positions.impact_of(r.x, r.y))
                        });
                        loop {
                            let item = tr.time(Layer::Handoff, || slot.queue.pop(0));
                            match item {
                                Some(WorkItem::Record(r)) => {
                                    let (tenant, lines) = (&mut slot.tenant, &mut slot.lines);
                                    tr.time(Layer::Apply, || {
                                        tenant.apply_into(&r, lines);
                                        lines.push('\n');
                                    });
                                    if slot.twin.is_some() {
                                        slot.admitted.push(Point::new(r.x, r.y));
                                    }
                                    records += 1;
                                }
                                Some(WorkItem::Query(q)) => {
                                    let tenant = &slot.tenant;
                                    tr.time(Layer::Query, || {
                                        answers.clear();
                                        answer(tenant, q, &mut answers);
                                    });
                                }
                                Some(WorkItem::TickEnd(t)) => {
                                    let (log, lines) = (&mut slot.log, &mut slot.lines);
                                    tr.time(Layer::LogFlush, || {
                                        log.write_all(lines.as_bytes())?;
                                        log.flush()
                                    })
                                    .map_err(err)?;
                                    lines.clear();
                                    if t % cfg.snapshot_every == 0 {
                                        state_bytes = snapshot(&mut tr, slot)?;
                                        snapshots += 1;
                                    }
                                    tr.time(Layer::Handoff, || slot.queue.complete_tick(0, t));
                                    break;
                                }
                                Some(WorkItem::Shutdown) | None => {
                                    return Err("queue ended inside a tick".into())
                                }
                            }
                        }
                    }
                }
                Some(Frame::Query(Query::Status)) | None => {}
            }
        }
    }
    // The daemon writes a final snapshot when its input ends.
    for slot in &mut slots {
        state_bytes = snapshot(&mut tr, slot)?;
        snapshots += 1;
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    // `engine.round`: the bare engine over the same admitted stimuli.
    for slot in &mut slots {
        if let Some(twin) = slot.twin.as_mut() {
            for &p in &slot.admitted {
                tr.time(Layer::Round, || twin.run_event(p));
            }
        }
    }

    let mut mismatch = None;
    let mut exp_evals = 0u64;
    let mut rounds = 0u64;
    for slot in &slots {
        if let Some(twin) = &slot.twin {
            let bits = twin.trust_snapshot();
            let same = bits
                .iter()
                .enumerate()
                .all(|(n, &b)| slot.tenant.trust_of(n).map(f64::to_bits) == Some(b));
            if !same || twin.round() != slot.tenant.round() {
                mismatch = Some(format!(
                    "tenant {} diverged from its twin engine",
                    slot.tenant.id()
                ));
            }
            exp_evals += twin
                .counters()
                .iter()
                .filter(|(name, _)| name.ends_with(".trust.exp_evals"))
                .map(|(_, v)| v)
                .sum::<u64>();
            rounds += twin.round();
        }
    }

    // Restart path: restore every tenant from its state file and
    // truncate its log to the snapshot round (which keeps every line,
    // since the final snapshot is at the last round).
    let mut restore = Vec::new();
    let mut truncate = Vec::new();
    for _ in 0..5 {
        for slot in &slots {
            let t = Instant::now();
            let state = read_tenant_state(&slot.state_path)
                .map_err(err)?
                .ok_or("state file missing")?;
            let back = Tenant::from_blob(
                state.id,
                slot.tenant.scenario().clone(),
                state.kind,
                cfg.threads,
                &state.blob,
            )
            .map_err(err)?;
            restore.push(t.elapsed().as_nanos() as f64);
            if back.round() != slot.tenant.round() {
                mismatch = Some(format!("tenant {} restored at the wrong round", state.id));
            }
            let t = Instant::now();
            truncate_decision_log(&slot.log_path, state.round).map_err(err)?;
            truncate.push(t.elapsed().as_nanos() as f64);
        }
    }

    Ok(Ledger {
        wall_ns,
        layer_ns: tr.ns,
        records,
        snapshots,
        state_bytes,
        exp_evals_per_round: exp_evals as f64 / rounds.max(1) as f64,
        restore_ns: restore,
        truncate_ns: truncate,
        logs: slots.iter().map(|s| s.log_path.clone()).collect(),
        mismatch,
    })
}

fn snapshot(tr: &mut Tracer, slot: &mut Slot) -> Result<u64, String> {
    let (queue, tenant) = (&slot.queue, &slot.tenant);
    let bytes = tr
        .time(Layer::Encode, || {
            let (highwater, stats) = queue.snapshot_view();
            encode_tenant_state(tenant, &highwater, stats)
        })
        .map_err(err)?;
    let path = &slot.state_path;
    tr.time(Layer::Write, || {
        queue.commit_snapshot(0, || write_tenant_state(path, &bytes))
    })
    .map_err(|e: DaemonError| e.to_string())?;
    Ok(bytes.len() as u64)
}

/// Formats a query answer the way the daemon prints it.
fn answer(tenant: &Tenant, q: Query, out: &mut String) {
    let _ = match q {
        Query::Trust { tenant: id, node } => match tenant.trust_of(node) {
            Some(v) => writeln!(out, "A trust {id} {node} {v}"),
            None => writeln!(out, "A trust {id} {node} -"),
        },
        Query::Round { tenant: id } => writeln!(out, "A round {id} {}", tenant.round()),
        Query::Status => Ok(()),
    };
}
