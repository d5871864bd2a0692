//! One hosted field: an engine (sequential or sharded), its shared
//! position view for the router's impact metric, and the deterministic
//! decision-line formatter.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tibfit_experiments::checkpoint;
use tibfit_experiments::multicluster::{MultiClusterSim, MultiRoundResult};
use tibfit_experiments::replay::FieldScenario;
use tibfit_experiments::sharded::ShardedMultiCluster;
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;

use crate::wire::Report;
use crate::DaemonError;

/// Which engine implementation backs a tenant. Both are bit-identical
/// (pinned by the differential suite), so the choice is operational:
/// the sharded engine trades threads for throughput on big fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The sequential reference engine.
    Sequential,
    /// The sharded parallel engine.
    Sharded,
}

impl EngineKind {
    /// Stable on-disk tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            EngineKind::Sequential => 0,
            EngineKind::Sharded => 1,
        }
    }

    /// Parses the on-disk tag.
    ///
    /// # Errors
    ///
    /// [`DaemonError::State`] on an unknown tag.
    pub fn from_tag(tag: u8) -> Result<Self, DaemonError> {
        match tag {
            0 => Ok(EngineKind::Sequential),
            1 => Ok(EngineKind::Sharded),
            other => Err(DaemonError::State(format!("unknown engine tag {other}"))),
        }
    }

    /// CLI spelling.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] on an unknown name.
    pub fn from_name(name: &str) -> Result<Self, DaemonError> {
        match name {
            "seq" | "sequential" => Ok(EngineKind::Sequential),
            "sharded" | "par" => Ok(EngineKind::Sharded),
            other => Err(DaemonError::Config(format!(
                "unknown engine {other:?} (expected seq|sharded)"
            ))),
        }
    }
}

enum TenantEngine {
    // Boxed: the engines carry cache-line-aligned hot state, so the
    // variants are far larger than the enum's other residents.
    Sequential(Box<MultiClusterSim>),
    Sharded(Box<ShardedMultiCluster>),
}

/// The engine's node positions, shared with the router so admission
/// can rank pending records by trust impact without touching the
/// engine. Refreshed by the worker once per tick, at the tick's end
/// ([`Tenant::refresh_positions`]); read by the router only after the
/// drain barrier, so reads always see a settled tick boundary.
pub struct PositionView {
    radius: f64,
    points: Mutex<Vec<(f64, f64)>>,
}

impl PositionView {
    fn lock(&self) -> MutexGuard<'_, Vec<(f64, f64)>> {
        self.points.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many deployed nodes can sense a stimulus at `(x, y)` — the
    /// shedding metric: records nobody can corroborate are shed first.
    #[must_use]
    pub fn impact_of(&self, x: f64, y: f64) -> u64 {
        let pts = self.lock();
        let r2 = self.radius * self.radius;
        pts.iter()
            .filter(|(px, py)| {
                let dx = px - x;
                let dy = py - y;
                dx * dx + dy * dy <= r2
            })
            .count() as u64
    }
}

/// One hosted field.
pub struct Tenant {
    id: usize,
    scenario: FieldScenario,
    kind: EngineKind,
    engine: TenantEngine,
    positions: Arc<PositionView>,
    /// Scratch for the per-tick position refresh.
    pos_scratch: Vec<(u64, u64)>,
    /// Scratch for the per-record trust digest: the apply path runs once
    /// per admitted record and must not allocate.
    trust_scratch: Vec<u64>,
    /// The last round's result, its buffers reused by the next round.
    result: MultiRoundResult,
}

/// FNV-1a over a slice of u64 words, little-endian byte order — the
/// decision-line trust fingerprint.
fn fnv1a_u64s(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &bits in words {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

impl Tenant {
    fn build(id: usize, scenario: FieldScenario, kind: EngineKind, engine: TenantEngine) -> Self {
        let nodes = scenario.nodes;
        let radius = match &engine {
            TenantEngine::Sequential(e) => e.config().sensing_radius,
            TenantEngine::Sharded(e) => e.config().sensing_radius,
        };
        let mut tenant = Tenant {
            id,
            scenario,
            kind,
            engine,
            positions: Arc::new(PositionView {
                radius,
                points: Mutex::new(Vec::new()),
            }),
            pos_scratch: Vec::new(),
            trust_scratch: Vec::new(),
            // A round declares at most one location per report, so
            // room for every node means the result never grows.
            result: MultiRoundResult {
                declared: Vec::with_capacity(nodes),
                declaring_clusters: Vec::with_capacity(nodes),
                ..MultiRoundResult::default()
            },
        };
        tenant.refresh_positions();
        tenant
    }

    /// Builds a fresh tenant from its scenario.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Engine`] if the deployment is rejected.
    pub fn new(
        id: usize,
        scenario: FieldScenario,
        kind: EngineKind,
        threads: usize,
    ) -> Result<Self, DaemonError> {
        let engine = match kind {
            EngineKind::Sequential => {
                TenantEngine::Sequential(Box::new(scenario.sequential().map_err(DaemonError::Engine)?))
            }
            EngineKind::Sharded => {
                TenantEngine::Sharded(Box::new(scenario.sharded(threads).map_err(DaemonError::Engine)?))
            }
        };
        Ok(Tenant::build(id, scenario, kind, engine))
    }

    /// Rebuilds a tenant from a checkpointed engine blob.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Checkpoint`] if the blob is corrupt or the
    /// decoded deployment is rejected.
    pub fn from_blob(
        id: usize,
        scenario: FieldScenario,
        kind: EngineKind,
        threads: usize,
        blob: &[u8],
    ) -> Result<Self, DaemonError> {
        let engine = match kind {
            EngineKind::Sequential => TenantEngine::Sequential(Box::new(
                checkpoint::restore_sequential(blob).map_err(DaemonError::Checkpoint)?,
            )),
            EngineKind::Sharded => TenantEngine::Sharded(Box::new(
                checkpoint::restore_sharded(blob, threads).map_err(DaemonError::Checkpoint)?,
            )),
        };
        Ok(Tenant::build(id, scenario, kind, engine))
    }

    /// Tenant index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The scenario this tenant was built from.
    #[must_use]
    pub fn scenario(&self) -> &FieldScenario {
        &self.scenario
    }

    /// Engine flavor.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The shared position view the router ranks impact with.
    #[must_use]
    pub fn positions(&self) -> Arc<PositionView> {
        Arc::clone(&self.positions)
    }

    /// Re-attaches a replacement tenant to the position view the router
    /// already holds (worker restarts must not leave the router ranking
    /// against a dead incarnation's frozen positions). Refreshes the
    /// view from this engine's state immediately.
    pub fn set_positions(&mut self, view: Arc<PositionView>) {
        debug_assert_eq!(view.radius.to_bits(), self.positions.radius.to_bits());
        self.positions = view;
        self.refresh_positions();
    }

    /// Publishes the engine's current node positions to the shared view.
    /// The worker calls this once per tick, after the tick's last record
    /// and before acknowledging the tick, which is the only state the
    /// router ever reads.
    pub fn refresh_positions(&mut self) {
        match &self.engine {
            TenantEngine::Sequential(e) => e.position_snapshot_into(&mut self.pos_scratch),
            TenantEngine::Sharded(e) => e.position_snapshot_into(&mut self.pos_scratch),
        }
        let mut pts = self.positions.lock();
        pts.clear();
        pts.extend(
            self.pos_scratch
                .iter()
                .map(|&(x, y)| (f64::from_bits(x), f64::from_bits(y))),
        );
    }

    /// Completed event rounds.
    #[must_use]
    pub fn round(&self) -> u64 {
        match &self.engine {
            TenantEngine::Sequential(e) => e.round(),
            TenantEngine::Sharded(e) => e.round(),
        }
    }

    fn trust_bits(&self) -> Vec<u64> {
        match &self.engine {
            TenantEngine::Sequential(e) => e.trust_snapshot(),
            TenantEngine::Sharded(e) => e.trust_snapshot(),
        }
    }

    /// Raw fault counter `v` of one node — the same bits the
    /// decision-line digest covers and the engines'
    /// `trust_snapshot` holds — or `None` out of range. One binary
    /// search in the owning cluster, no trust-vector copy. Not the trust
    /// index, which `Q trust` answers ([`Self::trust_index_of`]); the
    /// benchmark ledger compares these bits with a twin engine's.
    #[must_use]
    pub fn trust_of(&self, node: usize) -> Option<f64> {
        match &self.engine {
            TenantEngine::Sequential(e) => e.counter_of(NodeId(node)),
            TenantEngine::Sharded(e) => e.counter_of(NodeId(node)),
        }
    }

    /// Trust index of one node as its cluster head holds it: the cached
    /// `TI = e^(-λ·v)`, bit-exact, in (0, 1] — what `Q trust` answers.
    /// `None` out of range. Like every read of the cached index, it
    /// counts in the trust table's `ti_reads`.
    #[must_use]
    pub fn trust_index_of(&self, node: usize) -> Option<f64> {
        if node >= self.scenario.nodes {
            return None;
        }
        Some(match &self.engine {
            TenantEngine::Sequential(e) => e.trust_of(NodeId(node)),
            TenantEngine::Sharded(e) => e.trust_of(NodeId(node)),
        })
    }

    /// FNV-1a digest over the bit-exact trust vector — a cheap
    /// whole-state fingerprint embedded in every decision line, so a
    /// diff catches divergence at the exact round it appears.
    #[must_use]
    pub fn trust_digest(&self) -> u64 {
        fnv1a_u64s(&self.trust_bits())
    }

    /// Applies one admitted report: runs the event round and appends
    /// its decision line to a caller-owned buffer (no trailing
    /// newline). The worker's per-record hot path:
    /// the round result, trust digest, and line formatting all reuse
    /// scratch buffers, and on the sequential engine the round itself
    /// is allocation-free, so a steady-state apply makes no heap
    /// allocation at all. It does not touch the shared position view;
    /// see [`Self::refresh_positions`].
    pub fn apply_into(&mut self, report: &Report, out: &mut String) {
        let stimulus = Point::new(report.x, report.y);
        match &mut self.engine {
            TenantEngine::Sequential(e) => e.run_event_into(stimulus, &mut self.result),
            TenantEngine::Sharded(e) => e.run_event_into(stimulus, &mut self.result),
        }
        self.decision_line_into(report, out);
    }

    /// Formats the decision line for the last round into `out`.
    /// Deterministic byte-for-byte: coordinates use shortest round-trip
    /// formatting, the digest pins the full trust state.
    fn decision_line_into(&mut self, report: &Report, out: &mut String) {
        use std::fmt::Write;
        let round = self.round();
        let result = &self.result;
        let _ = write!(out, "D {round} {} {} at=", report.src, report.seq);
        if result.declared.is_empty() {
            out.push('-');
        }
        for (i, p) in result.declared.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            let _ = write!(out, "{},{}", p.x, p.y);
        }
        out.push_str(" by=");
        if result.declaring_clusters.is_empty() {
            out.push('-');
        }
        for (i, c) in result.declaring_clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        match &self.engine {
            TenantEngine::Sequential(e) => e.trust_snapshot_into(&mut self.trust_scratch),
            TenantEngine::Sharded(e) => e.trust_snapshot_into(&mut self.trust_scratch),
        }
        let _ = write!(out, " trust={:016x}", fnv1a_u64s(&self.trust_scratch));
    }

    /// Serializes the engine to a checkpoint blob.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Snapshot`] on encoding failure.
    pub fn engine_blob(&self) -> Result<Vec<u8>, DaemonError> {
        match &self.engine {
            TenantEngine::Sequential(e) => {
                checkpoint::save_sequential(e).map_err(DaemonError::Snapshot)
            }
            TenantEngine::Sharded(e) => checkpoint::save_sharded(e).map_err(DaemonError::Snapshot),
        }
    }
}

/// Parses the round number out of a decision line (`D <round> ...`).
/// `None` for anything that is not a well-formed decision line —
/// including a partial line torn by a crash.
#[must_use]
pub fn decision_line_round(line: &str) -> Option<u64> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("D") {
        return None;
    }
    let round = it.next()?.parse().ok()?;
    // A complete line has src, seq, at=, by=, trust= and nothing after.
    let trust = it.nth(4)?;
    if !trust.starts_with("trust=") || it.next().is_some() {
        return None;
    }
    Some(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_experiments::replay::tenant_seed;

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

    /// The decision line of one applied report.
    fn apply(tenant: &mut Tenant, report: &Report) -> String {
        let mut line = String::new();
        tenant.apply_into(report, &mut line);
        line
    }

    fn report(seq: u64, x: f64, y: f64) -> Report {
        Report {
            tenant: 0,
            time: seq,
            src: 0,
            seq,
            x,
            y,
        }
    }

    #[test]
    fn engines_produce_identical_decision_lines() {
        let sc = small_scenario(tenant_seed(11, 0));
        let mut seq = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let mut par = Tenant::new(0, sc.clone(), EngineKind::Sharded, 2).unwrap();
        for (i, p) in sc.events(6).into_iter().enumerate() {
            let a = apply(&mut seq, &report(i as u64 + 1, p.x, p.y));
            let b = apply(&mut par, &report(i as u64 + 1, p.x, p.y));
            assert_eq!(a, b, "round {i}");
            assert!(a.starts_with(&format!("D {} ", i + 1)));
        }
    }

    #[test]
    fn blob_round_trip_resumes_identically() {
        let sc = small_scenario(5);
        let mut live = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let events = sc.events(8);
        for (i, p) in events[..4].iter().enumerate() {
            apply(&mut live, &report(i as u64 + 1, p.x, p.y));
        }
        let blob = live.engine_blob().unwrap();
        let mut restored =
            Tenant::from_blob(0, sc.clone(), EngineKind::Sequential, 1, &blob).unwrap();
        assert_eq!(restored.round(), 4);
        for (i, p) in events[4..].iter().enumerate() {
            let a = apply(&mut live, &report(i as u64 + 5, p.x, p.y));
            let b = apply(&mut restored, &report(i as u64 + 5, p.x, p.y));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn impact_counts_in_range_nodes() {
        let sc = small_scenario(9);
        let tenant = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let view = tenant.positions();
        // The field is 40×40; a stimulus in the middle reaches more
        // nodes than one far outside.
        let center = view.impact_of(20.0, 20.0);
        let outside = view.impact_of(4000.0, 4000.0);
        assert!(center > 0);
        assert_eq!(outside, 0);
    }

    #[test]
    fn decision_round_parser_rejects_torn_lines() {
        assert_eq!(decision_line_round("D 7 0 9 at=1,2 by=0 trust=00000000deadbeef"), Some(7));
        assert_eq!(decision_line_round("D 7 0 9 at=1,2 by=0 trust"), None);
        assert_eq!(decision_line_round("D 7 0 9 at=1,2"), None);
        assert_eq!(decision_line_round("garbage"), None);
        assert_eq!(decision_line_round(""), None);
        assert_eq!(decision_line_round("D 7 0 9 at=1,2 by=0 trust=00000000deadbeef x"), None);
        assert_eq!(decision_line_round("D 7 0 9 at=1,2 by=0 x trust=00000000deadbeef"), None);
        assert_eq!(decision_line_round("D x7 0 9 at=1,2 by=0 trust=00000000deadbeef"), None);
    }

    #[test]
    fn engine_kind_tags_round_trip() {
        for kind in [EngineKind::Sequential, EngineKind::Sharded] {
            assert_eq!(EngineKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(EngineKind::from_tag(9).is_err());
        assert_eq!(EngineKind::from_name("seq").unwrap(), EngineKind::Sequential);
        assert_eq!(EngineKind::from_name("sharded").unwrap(), EngineKind::Sharded);
        assert!(EngineKind::from_name("gpu").is_err());
    }
}
