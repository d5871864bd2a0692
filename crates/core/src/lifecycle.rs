//! Cluster lifecycle: rotating leadership with trust hand-off and shadow
//! monitoring (paper §2 + §3.4 end-to-end).
//!
//! This module ties the pieces together the way the deployed system would
//! run them:
//!
//! 1. a LEACH-style election picks a cluster head among sufficiently
//!    trusted nodes, and the two highest-trust one-hop neighbors become
//!    shadow cluster heads (SCHs);
//! 2. event rounds are decided by the head using the TIBFIT engine; a
//!    compromised head may corrupt its conclusion, but the SCHs run the
//!    same computation on the overheard reports and the base station
//!    takes a majority over {CH, SCH₁, SCH₂};
//! 3. an overruled head is demoted (trust penalty + immediate
//!    re-election);
//! 4. at the end of a leadership period the head hands the trust table to
//!    the base station, which seeds the next head ([`ControlMessage::TrustHandoff`]
//!    message) — in this single-table model the hand-off is the exported
//!    snapshot.
//!
//! Energy is charged per round so leadership rotates realistically.

use crate::engine::{Aggregator, TibfitEngine};
use crate::location::{LocatedReport, LocatedScratch};
use crate::shadow::{adjudicate, Adjudication, Conclusion};
use crate::trust::TrustParams;
use tibfit_net::energy::{EnergyBudget, EnergyCosts};
use tibfit_net::leach::{Election, LeachConfig, RoundOutcome};
use tibfit_net::message::ControlMessage;
use tibfit_net::topology::{NodeId, Topology};
use tibfit_sim::rng::SimRng;

/// Configuration of the lifecycle manager.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    /// Election parameters (head fraction, trust threshold, SCH count).
    pub leach: LeachConfig,
    /// Sensing radius for event-neighbor computation.
    pub sensing_radius: f64,
    /// Location agreement tolerance (`r_error`).
    pub r_error: f64,
    /// Event rounds per leadership period before rotation.
    pub rounds_per_period: u64,
    /// Trust parameters of the TIBFIT engine.
    pub trust: TrustParams,
    /// Energy cost model.
    pub costs: EnergyCosts,
}

impl LifecycleConfig {
    /// Paper-flavoured defaults.
    #[must_use]
    pub fn paper() -> Self {
        LifecycleConfig {
            leach: LeachConfig::paper(),
            sensing_radius: 20.0,
            r_error: 5.0,
            rounds_per_period: 10,
            trust: TrustParams::experiment2(),
            costs: EnergyCosts::leach_like(),
        }
    }
}

/// The outcome of one event round under lifecycle management.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleRound {
    /// The head that served this round.
    pub head: NodeId,
    /// What the head *reported* (possibly corrupted).
    pub ch_conclusion: Conclusion,
    /// The base station's accepted conclusion after SCH adjudication.
    pub ruling: Adjudication,
    /// Whether this round triggered an immediate re-election.
    pub reelected: bool,
}

/// Manages election, shadowing, trust hand-off, and energy for one
/// cluster.
///
/// ```rust
/// use tibfit_core::lifecycle::{ClusterLifecycle, LifecycleConfig};
/// use tibfit_core::location::LocatedReport;
/// use tibfit_net::geometry::Point;
/// use tibfit_net::topology::Topology;
/// use tibfit_sim::rng::SimRng;
///
/// let topo = Topology::uniform_grid(25, 50.0, 50.0);
/// let mut rng = SimRng::seed_from(1);
/// let mut cluster = ClusterLifecycle::new(LifecycleConfig::paper(), topo);
/// let head = cluster.current_head(&mut rng);
/// let event = Point::new(25.0, 25.0);
/// let reports: Vec<LocatedReport> = cluster
///     .topology()
///     .event_neighbors(event, 20.0)
///     .into_iter()
///     .map(|n| LocatedReport::new(n, event))
///     .collect();
/// let round = cluster.process_event_round(&reports, false, &mut rng);
/// assert_eq!(round.head, head);
/// assert!(round.ruling.final_conclusion.declares_event());
/// ```
pub struct ClusterLifecycle {
    config: LifecycleConfig,
    topo: Topology,
    election: Election,
    engine: TibfitEngine,
    energies: Vec<EnergyBudget>,
    current: Option<RoundOutcome>,
    rounds_in_period: u64,
    overrules: u64,
    handoffs: Vec<ControlMessage>,
    /// Crash overlay from the fault injector: a crashed node neither
    /// reports nor leads until rebooted.
    crashed: Vec<bool>,
    failovers: u64,
    /// Decide buffers reused across rounds.
    located: LocatedScratch,
}

impl ClusterLifecycle {
    /// Creates a lifecycle manager over a topology, all nodes at full
    /// energy and full trust.
    #[must_use]
    pub fn new(config: LifecycleConfig, topo: Topology) -> Self {
        let n = topo.len();
        ClusterLifecycle {
            election: Election::new(config.leach, n),
            engine: TibfitEngine::new(config.trust, n),
            energies: vec![EnergyBudget::new(1000.0); n],
            current: None,
            rounds_in_period: 0,
            overrules: 0,
            handoffs: Vec::new(),
            crashed: vec![false; n],
            failovers: 0,
            located: LocatedScratch::new(),
            config,
            topo,
        }
    }

    /// The topology under management.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Residual energy of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn energy_of(&self, node: NodeId) -> f64 {
        self.energies[node.index()].residual()
    }

    /// Trust index of a node, as the base station sees it.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn trust_of(&self, node: NodeId) -> f64 {
        self.engine.table().trust_of(node)
    }

    /// Number of CH overrules so far.
    #[must_use]
    pub fn overrule_count(&self) -> u64 {
        self.overrules
    }

    /// Trust hand-off messages produced at period boundaries (most recent
    /// last).
    #[must_use]
    pub fn handoffs(&self) -> &[ControlMessage] {
        &self.handoffs
    }

    /// Number of shadow-CH failovers performed so far.
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.failovers
    }

    /// Whether a node is currently crashed (fault-injector overlay).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// Marks a node crashed: it stops reporting and cannot lead. If the
    /// acting cluster head crashes, the next round (or an explicit
    /// [`ClusterLifecycle::fail_over`]) promotes a shadow.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn crash_node(&mut self, node: NodeId) {
        self.crashed[node.index()] = true;
    }

    /// Brings a crashed node back online. Its trust state is unchanged —
    /// the base station never forgot it.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn reboot_node(&mut self, node: NodeId) {
        self.crashed[node.index()] = false;
    }

    /// Switches the working trust table to diagnosing mode with the
    /// quarantine → probation recovery path (see
    /// [`crate::trust::TrustTable::with_reintegration`]): nodes whose TI
    /// falls below `threshold` are quarantined for `quarantine_rounds`
    /// decision rounds, then serve `probation_rounds` on probation
    /// before regaining full standing. Drive the schedule with
    /// [`ClusterLifecycle::tick_trust_round`].
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1)` and both durations are
    /// non-zero.
    pub fn enable_reintegration(
        &mut self,
        threshold: f64,
        quarantine_rounds: u64,
        probation_rounds: u64,
    ) {
        let table = self
            .engine
            .table()
            .clone()
            .with_isolation_threshold(threshold)
            .with_reintegration(quarantine_rounds, probation_rounds);
        *self.engine.table_mut() = table;
    }

    /// Advances the trust table's quarantine/probation schedule one
    /// round and returns the newly reintegrated nodes. A no-op unless
    /// [`ClusterLifecycle::enable_reintegration`] was called.
    pub fn tick_trust_round(&mut self) -> Vec<NodeId> {
        self.engine.table_mut().tick_round()
    }

    /// Simulates trust-table loss at a CH handoff: the incoming head's
    /// working table is wiped back to full trust for everyone, erasing
    /// the diagnosis state (the worst case for colluding-faulty nodes).
    /// Recovery is [`ClusterLifecycle::resync_trust_from_handoff`].
    pub fn lose_trust_table(&mut self) {
        let table = self.engine.table_mut();
        for i in 0..self.topo.len() {
            table.set_counter(NodeId(i), 0.0);
        }
    }

    /// Re-syncs the working trust table from the base station's last
    /// [`ControlMessage::TrustHandoff`] snapshot — the recovery path for
    /// an injected trust-table loss. Returns `false` when no handoff has
    /// happened yet (nothing to restore).
    pub fn resync_trust_from_handoff(&mut self) -> bool {
        let Some(ControlMessage::TrustHandoff { trust, .. }) = self.handoffs.last().cloned()
        else {
            return false;
        };
        let table = self.engine.table_mut();
        for (node, ti) in trust {
            table.resync_to_ti(node, ti);
        }
        true
    }

    /// Shadow-CH failover after the acting head crashes (paper §3.4's
    /// SCHs double as hot standbys): the highest-trust surviving shadow
    /// is promoted in place — no full election — and the shadow set is
    /// rebuilt around it. Falls back to a full election when every
    /// shadow is down. Returns the new head.
    pub fn fail_over(&mut self, rng: &mut SimRng) -> NodeId {
        self.failovers += 1;
        let promoted = self.current.as_ref().and_then(|o| {
            // Shadows are ordered highest-trust first.
            o.shadows.iter().copied().find(|s| !self.crashed[s.index()])
        });
        if let (Some(new_head), Some(prev)) = (promoted, self.current.clone()) {
            let shadows = self.pick_shadows_for(new_head);
            self.current = Some(RoundOutcome {
                head: new_head,
                shadows,
                round: prev.round,
                vetoed: Vec::new(),
            });
            self.rounds_in_period = 0;
            new_head
        } else {
            self.rotate(rng);
            self.current.as_ref().expect("just elected").head
        }
    }

    /// Shadow selection for a promoted head: the highest-trust alive
    /// one-hop neighbors, mirroring the election's criterion.
    fn pick_shadows_for(&self, head: NodeId) -> Vec<NodeId> {
        let head_pos = self.topo.position(head);
        let mut neighbors: Vec<NodeId> = self
            .topo
            .iter()
            .filter(|(id, p)| {
                *id != head
                    && !self.crashed[id.index()]
                    && p.distance_to(head_pos) <= self.config.leach.hop_range
            })
            .map(|(id, _)| id)
            .collect();
        let engine = &self.engine;
        neighbors.sort_by(|&a, &b| {
            engine
                .table()
                .trust_of(b)
                .total_cmp(&engine.table().trust_of(a))
                .then_with(|| a.cmp(&b))
        });
        neighbors.truncate(self.config.leach.shadow_count);
        neighbors
    }

    /// Energy table with crashed nodes masked out (a crashed node looks
    /// dead to the election, so it is never drafted).
    fn effective_energies(&self) -> Vec<EnergyBudget> {
        self.energies
            .iter()
            .zip(&self.crashed)
            .map(|(e, &down)| {
                if down {
                    let mut drained = *e;
                    drained.spend(drained.residual());
                    drained
                } else {
                    *e
                }
            })
            .collect()
    }

    /// The acting cluster head, electing one if the period rolled over
    /// (or none was elected yet).
    pub fn current_head(&mut self, rng: &mut SimRng) -> NodeId {
        if self.current.is_none() || self.rounds_in_period >= self.config.rounds_per_period {
            self.rotate(rng);
        }
        self.current.as_ref().expect("just elected").head
    }

    /// The current shadow cluster heads.
    #[must_use]
    pub fn current_shadows(&self) -> Vec<NodeId> {
        self.current
            .as_ref()
            .map(|o| o.shadows.clone())
            .unwrap_or_default()
    }

    /// Forces an election now (period rollover or CH demotion).
    fn rotate(&mut self, rng: &mut SimRng) {
        // Outgoing head hands the trust table to the base station.
        if let Some(prev) = &self.current {
            self.handoffs.push(ControlMessage::TrustHandoff {
                from_head: prev.head,
                trust: self.engine.table().export(),
            });
        }
        let energies = self.effective_energies();
        let engine = &self.engine;
        let outcome = self.election.run_round(
            &self.topo,
            &energies,
            |n| engine.table().trust_of(n),
            rng,
        );
        self.current = Some(outcome);
        self.rounds_in_period = 0;
    }

    /// Processes one event round.
    ///
    /// `reports` are the location reports that reached the head this
    /// `T_out` window. If `ch_compromised` is set, the head *inverts* its
    /// conclusion before reporting it to the base station (the worst
    /// single corruption: suppressing a detected event or fabricating
    /// one); the SCHs, having overheard the same reports, compute the
    /// honest conclusion and the base station adjudicates.
    pub fn process_event_round(
        &mut self,
        reports: &[LocatedReport],
        ch_compromised: bool,
        rng: &mut SimRng,
    ) -> LifecycleRound {
        let mut head = self.current_head(rng);
        // A crashed head cannot serve: promote a shadow before deciding.
        if self.crashed[head.index()] {
            head = self.fail_over(rng);
        }
        self.rounds_in_period += 1;

        // Crashed reporters are silent this round.
        let live_reports: Vec<LocatedReport> = reports
            .iter()
            .filter(|r| !self.crashed[r.reporter.index()])
            .copied()
            .collect();
        let reports = live_reports.as_slice();

        // Charge energy: members transmit, head receives + leads.
        for r in reports {
            self.energies[r.reporter.index()].spend(self.config.costs.transmit);
            self.energies[head.index()].spend(self.config.costs.receive);
        }
        self.energies[head.index()].spend(self.config.costs.lead_round);
        for (budget, &down) in self.energies.iter_mut().zip(&self.crashed) {
            if !down {
                budget.spend(self.config.costs.idle_round);
            }
        }

        // The honest computation over the reports (what a correct CH and
        // every SCH obtains).
        self.engine.located_round_into(
            self.topo.positions(),
            self.config.sensing_radius,
            self.config.r_error,
            reports,
            &mut self.located,
        );
        let honest: Conclusion = self
            .located
            .decisions()
            .find(|d| d.event_declared)
            .map(|d| Conclusion::event_at(d.location))
            .unwrap_or_else(Conclusion::no_event);

        // A compromised head reports the inverse of its computation.
        let ch_conclusion = if ch_compromised {
            if honest.declares_event() {
                Conclusion::no_event()
            } else {
                // Fabricate an event at the head's own position.
                Conclusion::event_at(self.topo.position(head))
            }
        } else {
            honest
        };

        let shadows = self.current_shadows();
        let shadow_conclusions: Vec<Conclusion> =
            shadows.iter().map(|_| honest).collect();
        let ruling = adjudicate(ch_conclusion, &shadow_conclusions, self.config.r_error);

        let mut reelected = false;
        if ruling.ch_overruled {
            self.overrules += 1;
            // The base station reduces the faulty head's trust and
            // triggers re-election (paper §3.4).
            self.engine.table_mut().record_faulty(head);
            self.rotate(rng);
            reelected = true;
        }

        LifecycleRound {
            head,
            ch_conclusion,
            ruling,
            reelected,
        }
    }
}

impl std::fmt::Debug for ClusterLifecycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterLifecycle")
            .field("nodes", &self.topo.len())
            .field("head", &self.current.as_ref().map(|o| o.head))
            .field("rounds_in_period", &self.rounds_in_period)
            .field("overrules", &self.overrules)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_net::geometry::Point;

    fn setup() -> (ClusterLifecycle, SimRng) {
        let topo = Topology::uniform_grid(25, 50.0, 50.0);
        (
            ClusterLifecycle::new(LifecycleConfig::paper(), topo),
            SimRng::seed_from(7),
        )
    }

    fn event_reports(cluster: &ClusterLifecycle, event: Point) -> Vec<LocatedReport> {
        cluster
            .topology()
            .event_neighbors(event, 20.0)
            .into_iter()
            .map(|n| LocatedReport::new(n, event))
            .collect()
    }

    #[test]
    fn honest_head_conclusion_accepted() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        let round = cluster.process_event_round(&reports, false, &mut rng);
        assert!(!round.ruling.ch_overruled);
        assert!(round.ruling.final_conclusion.declares_event());
        let loc = round.ruling.final_conclusion.location().unwrap();
        assert!(loc.distance_to(event) < 5.0);
    }

    #[test]
    fn compromised_head_is_overruled_and_penalized() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        let head_before = cluster.current_head(&mut rng);
        let trust_before = cluster.trust_of(head_before);
        let round = cluster.process_event_round(&reports, true, &mut rng);
        assert!(round.ruling.ch_overruled);
        assert!(round.reelected);
        // The suppressed event is still recovered by the SCH majority.
        assert!(round.ruling.final_conclusion.declares_event());
        assert!(cluster.trust_of(head_before) < trust_before);
        assert_eq!(cluster.overrule_count(), 1);
    }

    #[test]
    fn compromised_head_fabrication_rejected() {
        let (mut cluster, mut rng) = setup();
        // No event: empty reports. A compromised head fabricates one.
        let round = cluster.process_event_round(&[], true, &mut rng);
        assert!(round.ch_conclusion.declares_event(), "head fabricated");
        assert!(round.ruling.ch_overruled);
        assert!(!round.ruling.final_conclusion.declares_event());
    }

    #[test]
    fn leadership_rotates_after_period() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        let first = cluster.current_head(&mut rng);
        let mut heads = std::collections::HashSet::new();
        for _ in 0..50 {
            let r = cluster.process_event_round(&reports, false, &mut rng);
            heads.insert(r.head);
        }
        assert!(heads.len() > 1, "leadership never rotated from {first}");
    }

    #[test]
    fn handoff_messages_produced_on_rotation() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        for _ in 0..25 {
            cluster.process_event_round(&reports, false, &mut rng);
        }
        assert!(!cluster.handoffs().is_empty());
        let ControlMessage::TrustHandoff { trust, .. } = &cluster.handoffs()[0] else {
            panic!("expected a trust hand-off");
        };
        assert_eq!(trust.len(), 25);
    }

    #[test]
    fn energy_depletes_with_rounds() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        let before: f64 = (0..25).map(|i| cluster.energy_of(NodeId(i))).sum();
        for _ in 0..10 {
            cluster.process_event_round(&reports, false, &mut rng);
        }
        let after: f64 = (0..25).map(|i| cluster.energy_of(NodeId(i))).sum();
        assert!(after < before);
    }

    #[test]
    fn repeatedly_compromised_heads_lose_eligibility() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        // Compromise every head for a long stretch; each gets penalized
        // and eventually distrusted heads stop being elected... but since
        // every head is compromised here, just verify the base station
        // keeps functioning and keeps overruling.
        for _ in 0..30 {
            let r = cluster.process_event_round(&reports, true, &mut rng);
            assert!(r.ruling.final_conclusion.declares_event());
        }
        assert_eq!(cluster.overrule_count(), 30);
    }

    #[test]
    fn ch_crash_promotes_highest_trust_shadow() {
        let (mut cluster, mut rng) = setup();
        let head = cluster.current_head(&mut rng);
        let shadows = cluster.current_shadows();
        cluster.crash_node(head);
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        let round = cluster.process_event_round(&reports, false, &mut rng);
        assert_ne!(round.head, head, "crashed head served a round");
        assert_eq!(round.head, shadows[0], "promotion skipped the top shadow");
        assert_eq!(cluster.failover_count(), 1);
        assert!(round.ruling.final_conclusion.declares_event());
    }

    #[test]
    fn failover_with_all_shadows_down_elects_fresh_head() {
        let (mut cluster, mut rng) = setup();
        let head = cluster.current_head(&mut rng);
        for s in cluster.current_shadows() {
            cluster.crash_node(s);
        }
        cluster.crash_node(head);
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        let round = cluster.process_event_round(&reports, false, &mut rng);
        assert!(!cluster.is_crashed(round.head), "elected a crashed head");
        assert_eq!(cluster.failover_count(), 1);
    }

    #[test]
    fn crashed_nodes_never_elected_until_reboot() {
        let (mut cluster, mut rng) = setup();
        let victim = NodeId(12);
        cluster.crash_node(victim);
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        for _ in 0..40 {
            let r = cluster.process_event_round(&reports, false, &mut rng);
            assert_ne!(r.head, victim, "crashed node led a round");
        }
        cluster.reboot_node(victim);
        assert!(!cluster.is_crashed(victim));
    }

    #[test]
    fn crashed_reporters_are_silent_but_round_still_decides() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        // Crash a third of the reporters; the rest still carry the vote.
        for r in reports.iter().take(reports.len() / 3) {
            cluster.crash_node(r.reporter);
        }
        let round = cluster.process_event_round(&reports, false, &mut rng);
        assert!(round.ruling.final_conclusion.declares_event());
    }

    #[test]
    fn trust_table_loss_recovers_from_handoff_snapshot() {
        let (mut cluster, mut rng) = setup();
        let event = Point::new(25.0, 25.0);
        let reports = event_reports(&cluster, event);
        // Build distrust of a repeatedly-compromised head, across enough
        // rounds that at least one handoff snapshot exists.
        let mut penalized = None;
        for _ in 0..15 {
            let head = cluster.current_head(&mut rng);
            cluster.process_event_round(&reports, true, &mut rng);
            penalized = Some(head);
        }
        let node = penalized.unwrap();
        assert!(!cluster.handoffs().is_empty(), "no snapshot to recover from");
        let before = cluster.trust_of(node);
        assert!(before < 1.0);
        // Inject the loss: everyone back to full trust.
        cluster.lose_trust_table();
        assert_eq!(cluster.trust_of(node), 1.0);
        // Recover from the base station's snapshot. The snapshot predates
        // the node's latest penalty, so trust is restored to below full
        // (the diagnosis survives) even if not bit-identical to `before`.
        assert!(cluster.resync_trust_from_handoff());
        assert!(cluster.trust_of(node) < 1.0, "diagnosis state lost for {node}");
    }

    #[test]
    fn resync_without_handoff_reports_failure() {
        let (mut cluster, _) = setup();
        assert!(!cluster.resync_trust_from_handoff());
    }

    #[test]
    fn shadows_are_distinct_from_head() {
        let (mut cluster, mut rng) = setup();
        let head = cluster.current_head(&mut rng);
        for s in cluster.current_shadows() {
            assert_ne!(s, head);
        }
        assert_eq!(cluster.current_shadows().len(), 2);
    }
}
