//! The simulated cluster: topology + per-node behaviors + wireless channel
//! + cluster-head engine, driven one event round at a time.
//!
//! This is the glue the paper implements inside ns-2: the event generator
//! injects ground truth, nodes act (honestly or not), the channel drops
//! some packets, reports travel as the paper's `(r, θ)` payloads, the
//! cluster head decides, and the judgements feed back to the nodes (for
//! trust-mirroring adversaries) and into experiment metrics.

use tibfit_adversary::behavior::{NodeBehavior, RoundContext};
use tibfit_core::engine::Aggregator;
use tibfit_core::location::{LocatedReport, LocatedScratch};
use tibfit_net::channel::ChannelModel;
use tibfit_net::geometry::Point;
use tibfit_net::message::{EventReport, ReportPayload};
use tibfit_net::topology::{NodeId, Topology};
use tibfit_sim::rng::SimRng;
use tibfit_sim::SimTime;

/// Which side of the fault line a node is currently on (used by
/// experiments to assign and reassign behaviors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Behaves per the correct-node model.
    Correct,
    /// Behaves per one of the faulty models (level 0/1/2).
    Faulty,
}

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSimConfig {
    /// Sensing radius `r_s` (paper: 20 units).
    pub sensing_radius: f64,
    /// Localization tolerance `r_error` (paper: 5 units).
    pub r_error: f64,
    /// Position of the cluster head (for channel loss computations).
    pub ch_position: Point,
}

/// Result of one binary event round.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryRoundResult {
    /// Ground truth for the round.
    pub event_occurred: bool,
    /// The cluster head's verdict (`false` when no report arrived at all,
    /// in which case no decision round ran).
    pub event_declared: bool,
    /// Whether any decision round ran (at least one report arrived).
    pub decision_ran: bool,
    /// Nodes whose reports reached the CH.
    pub reporters: Vec<NodeId>,
}

impl BinaryRoundResult {
    /// `true` when the CH's view matches ground truth.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.event_declared == self.event_occurred
    }
}

/// Result of one located event round.
#[derive(Debug, Clone, PartialEq)]
pub struct LocatedRoundResult {
    /// Ground-truth event locations for the round.
    pub events: Vec<Point>,
    /// Locations where the CH declared events.
    pub declared: Vec<Point>,
    /// Reports that reached the CH (after channel loss), as resolved
    /// absolute positions.
    pub delivered_reports: Vec<LocatedReport>,
}

impl LocatedRoundResult {
    /// How many ground-truth events were detected within `r_error`.
    #[must_use]
    pub fn detected_within(&self, r_error: f64) -> usize {
        self.events
            .iter()
            .filter(|e| self.declared.iter().any(|d| d.distance_to(**e) <= r_error))
            .count()
    }

    /// Declared locations not within `r_error` of any true event
    /// (false positives).
    #[must_use]
    pub fn false_positives(&self, r_error: f64) -> usize {
        self.declared
            .iter()
            .filter(|d| !self.events.iter().any(|e| e.distance_to(**d) <= r_error))
            .count()
    }
}

/// A fully wired simulated cluster.
///
/// Generic over nothing at the API level: behaviors, channel, and engine
/// are boxed so experiments can mix and match at runtime.
pub struct ClusterSim {
    config: ClusterSimConfig,
    topo: Topology,
    behaviors: Vec<Box<dyn NodeBehavior>>,
    channel: Box<dyn ChannelModel>,
    engine: Box<dyn Aggregator>,
    rng: SimRng,
    round: u64,
    /// Cached dense id list, so per-round loops and the engine's
    /// roster argument never re-collect it.
    all_nodes: Vec<NodeId>,
    /// Decide buffers reused across located rounds.
    located: LocatedScratch,
}

impl ClusterSim {
    /// Wires up a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors.len()` does not match the topology size or the
    /// config radii are non-positive.
    #[must_use]
    pub fn new(
        config: ClusterSimConfig,
        topo: Topology,
        behaviors: Vec<Box<dyn NodeBehavior>>,
        channel: Box<dyn ChannelModel>,
        engine: Box<dyn Aggregator>,
        rng: SimRng,
    ) -> Self {
        assert_eq!(
            behaviors.len(),
            topo.len(),
            "one behavior per node required"
        );
        assert!(config.sensing_radius > 0.0, "sensing radius must be positive");
        assert!(config.r_error > 0.0, "r_error must be positive");
        let all_nodes: Vec<NodeId> = topo.node_ids().collect();
        ClusterSim {
            config,
            topo,
            behaviors,
            channel,
            engine,
            rng,
            round: 0,
            all_nodes,
            located: LocatedScratch::new(),
        }
    }

    /// The topology under simulation.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to the topology, for mobility models that move
    /// nodes between rounds (§2: the network "could be stationary or
    /// mobile"); the CH always decides against current positions.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// A reborrow of the simulation RNG (mobility models draw from the
    /// same deterministic stream).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The engine's current trust estimate for a node (TIBFIT only).
    #[must_use]
    pub fn trust_of(&self, node: NodeId) -> Option<f64> {
        self.engine.trust_of(node)
    }

    /// Nodes the engine has diagnosed and isolated.
    #[must_use]
    pub fn isolated_nodes(&self) -> Vec<NodeId> {
        self.engine.isolated_nodes()
    }

    /// The engine's display name.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Number of rounds run so far.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// Replaces one node's behavior (Experiment 3's progressive
    /// compromise).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_behavior(&mut self, node: NodeId, behavior: Box<dyn NodeBehavior>) {
        self.behaviors[node.index()] = behavior;
    }

    fn context_for(&self, node: NodeId, event: Option<Point>) -> RoundContext {
        let node_pos = self.topo.position(node);
        let is_event_neighbor = event
            .map(|e| node_pos.distance_to(e) <= self.config.sensing_radius)
            .unwrap_or(false);
        RoundContext {
            round: self.round,
            node,
            node_pos,
            event,
            is_event_neighbor,
        }
    }

    /// Runs one binary round with the given ground truth.
    ///
    /// `event_occurred = false` models the inter-event interval in which
    /// faulty nodes may raise false alarms; if nobody reports, no decision
    /// runs (the CH is event-driven).
    pub fn run_binary_round(&mut self, event_occurred: bool) -> BinaryRoundResult {
        // The binary model treats every cluster node as an event neighbor
        // (paper Experiment 1), with an abstract event location at the CH.
        let event = event_occurred.then_some(self.config.ch_position);
        let mut reporters = Vec::new();
        for idx in 0..self.topo.len() {
            let node = NodeId(idx);
            let mut ctx = self.context_for(node, event);
            // Binary model: every node senses every cluster event.
            ctx.is_event_neighbor = event.is_some();
            let wants_to_send = self.behaviors[node.index()].binary_action(&ctx, &mut self.rng);
            if wants_to_send && self.deliver(node) {
                reporters.push(node);
            }
        }
        self.round += 1;

        if reporters.is_empty() {
            // No report, no decision round: silence is (implicitly) a
            // "no event" outcome.
            return BinaryRoundResult {
                event_occurred,
                event_declared: false,
                decision_ran: false,
                reporters,
            };
        }
        let round = self.engine.binary_round(&self.all_nodes, &reporters);
        for &(node, judgement) in &round.judgements {
            self.behaviors[node.index()].observe_judgement(judgement);
        }
        BinaryRoundResult {
            event_occurred,
            event_declared: round.outcome.event_declared,
            decision_ran: true,
            reporters,
        }
    }

    /// Runs one located round in which the given events occur
    /// simultaneously (a single event is the 1-element case).
    ///
    /// A node that senses several events reports the nearest one. Reports
    /// travel as `(r, θ)` payloads and are resolved back to absolute
    /// coordinates at the CH using its knowledge of node positions.
    pub fn run_located_round(&mut self, events: &[Point]) -> LocatedRoundResult {
        let mut delivered: Vec<EventReport> = Vec::new();
        let now = SimTime::from_ticks(self.round);
        for idx in 0..self.topo.len() {
            let node = NodeId(idx);
            let node_pos = self.topo.position(node);
            // The nearest event within sensing range, if any.
            let sensed = events
                .iter()
                .copied()
                .filter(|e| node_pos.distance_to(*e) <= self.config.sensing_radius)
                .min_by(|a, b| {
                    node_pos
                        .distance_sq(*a)
                        .total_cmp(&node_pos.distance_sq(*b))
                });
            let ctx = self.context_for(node, sensed.or_else(|| events.first().copied()));
            let ctx = RoundContext {
                is_event_neighbor: sensed.is_some(),
                event: sensed.or(ctx.event),
                ..ctx
            };
            let claim = self.behaviors[node.index()].located_action(&ctx, &mut self.rng);
            if let Some(claim) = claim {
                if self.deliver(node) {
                    // Encode as the paper's (r, θ) relative report.
                    let polar = node_pos.polar_to(claim);
                    delivered.push(EventReport::located(node, now, polar));
                }
            }
        }
        self.round += 1;

        // The CH resolves relative claims to absolute points.
        let reports: Vec<LocatedReport> = delivered
            .iter()
            .map(|r| {
                let origin = self.topo.position(r.reporter);
                let ReportPayload::Location(polar) = r.payload else {
                    unreachable!("located rounds produce located reports");
                };
                LocatedReport::new(r.reporter, polar.resolve_from(origin))
            })
            .collect();

        let mut declared = Vec::new();
        if !reports.is_empty() {
            self.engine.located_round_into(
                self.topo.positions(),
                self.config.sensing_radius,
                self.config.r_error,
                &reports,
                &mut self.located,
            );
            for &(node, judgement) in self.located.judgements() {
                self.behaviors[node.index()].observe_judgement(judgement);
            }
            declared.extend(
                self.located
                    .decisions()
                    .filter(|d| d.event_declared)
                    .map(|d| d.location),
            );
        }
        LocatedRoundResult {
            events: events.to_vec(),
            declared,
            delivered_reports: reports,
        }
    }

    fn deliver(&mut self, from: NodeId) -> bool {
        let from_pos = self.topo.position(from);
        self.channel
            .delivers(from_pos, self.config.ch_position, &mut self.rng)
    }
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("nodes", &self.topo.len())
            .field("engine", &self.engine.name())
            .field("round", &self.round)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
    use tibfit_core::engine::{BaselineEngine, TibfitEngine};
    use tibfit_core::trust::TrustParams;
    use tibfit_net::channel::{BernoulliLoss, Perfect};

    fn binary_sim(n_faulty: usize, engine: Box<dyn Aggregator>) -> ClusterSim {
        let topo = Topology::single_cluster(10, 5.0);
        let ch = Point::new(topo.width() / 2.0, topo.height() / 2.0);
        let behaviors: Vec<Box<dyn NodeBehavior>> = (0..10)
            .map(|i| -> Box<dyn NodeBehavior> {
                if i < n_faulty {
                    Box::new(Level0Node::new(Level0Config::experiment1(0.0)))
                } else {
                    Box::new(CorrectNode::new(0.0, 0.0))
                }
            })
            .collect();
        ClusterSim::new(
            ClusterSimConfig {
                sensing_radius: 20.0,
                r_error: 5.0,
                ch_position: ch,
            },
            topo,
            behaviors,
            Box::new(Perfect),
            engine,
            SimRng::seed_from(17),
        )
    }

    #[test]
    fn all_correct_nodes_always_detect() {
        let engine = Box::new(TibfitEngine::new(TrustParams::experiment1(0.0), 10));
        let mut sim = binary_sim(0, engine);
        for _ in 0..50 {
            let r = sim.run_binary_round(true);
            assert!(r.correct());
            assert_eq!(r.reporters.len(), 10);
        }
    }

    #[test]
    fn silence_on_no_event_rounds() {
        let engine = Box::new(TibfitEngine::new(TrustParams::experiment1(0.0), 10));
        let mut sim = binary_sim(0, engine);
        let r = sim.run_binary_round(false);
        assert!(!r.decision_ran);
        assert!(r.correct());
    }

    #[test]
    fn tibfit_beats_baseline_at_70_percent_faulty() {
        let run = |engine: Box<dyn Aggregator>| -> f64 {
            let mut sim = binary_sim(7, engine);
            let mut hits = 0;
            let n = 200;
            for _ in 0..n {
                if sim.run_binary_round(true).correct() {
                    hits += 1;
                }
            }
            hits as f64 / n as f64
        };
        let tibfit = run(Box::new(TibfitEngine::new(TrustParams::experiment1(0.0), 10)));
        let baseline = run(Box::new(BaselineEngine::new()));
        assert!(
            tibfit > baseline,
            "TIBFIT {tibfit} should beat baseline {baseline}"
        );
        assert!(tibfit > 0.85, "TIBFIT accuracy too low: {tibfit}");
    }

    #[test]
    fn trust_of_faulty_nodes_decays_in_sim() {
        let engine = Box::new(TibfitEngine::new(TrustParams::experiment1(0.0), 10));
        let mut sim = binary_sim(3, engine);
        for _ in 0..100 {
            sim.run_binary_round(true);
        }
        for i in 0..3 {
            let t = sim.trust_of(NodeId(i)).unwrap();
            assert!(t < 0.5, "faulty node {i} trust {t}");
        }
        for i in 3..10 {
            let t = sim.trust_of(NodeId(i)).unwrap();
            assert!(t > 0.9, "correct node {i} trust {t}");
        }
    }

    fn located_sim(n_faulty: usize, engine: Box<dyn Aggregator>, seed: u64) -> ClusterSim {
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let behaviors: Vec<Box<dyn NodeBehavior>> = (0..100)
            .map(|i| -> Box<dyn NodeBehavior> {
                if i < n_faulty {
                    Box::new(Level0Node::new(Level0Config::experiment2(6.0)))
                } else {
                    Box::new(CorrectNode::new(0.0, 1.6))
                }
            })
            .collect();
        ClusterSim::new(
            ClusterSimConfig {
                sensing_radius: 20.0,
                r_error: 5.0,
                ch_position: Point::new(50.0, 50.0),
            },
            topo,
            behaviors,
            Box::new(BernoulliLoss::new(0.005)),
            engine,
            SimRng::seed_from(seed),
        )
    }

    #[test]
    fn located_round_detects_event_with_honest_network() {
        let engine = Box::new(TibfitEngine::new(TrustParams::experiment2(), 100));
        let mut sim = located_sim(0, engine, 3);
        let mut detected = 0;
        let n = 50;
        let mut rng = SimRng::seed_from(99);
        for _ in 0..n {
            let event = sim.topology().random_event_location(&mut rng);
            let r = sim.run_located_round(&[event]);
            detected += r.detected_within(5.0);
        }
        assert!(
            detected as f64 / n as f64 > 0.9,
            "honest network detected only {detected}/{n}"
        );
    }

    #[test]
    fn located_round_reports_travel_as_polar() {
        // With zero noise the resolved report equals the event exactly,
        // proving the (r, θ) encode/decode path works end to end.
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let behaviors: Vec<Box<dyn NodeBehavior>> = (0..100)
            .map(|_| -> Box<dyn NodeBehavior> { Box::new(CorrectNode::new(0.0, 0.0)) })
            .collect();
        let mut sim = ClusterSim::new(
            ClusterSimConfig {
                sensing_radius: 20.0,
                r_error: 5.0,
                ch_position: Point::new(50.0, 50.0),
            },
            topo,
            behaviors,
            Box::new(Perfect),
            Box::new(TibfitEngine::new(TrustParams::experiment2(), 100)),
            SimRng::seed_from(4),
        );
        let event = Point::new(50.0, 50.0);
        let r = sim.run_located_round(&[event]);
        assert!(!r.delivered_reports.is_empty());
        for rep in &r.delivered_reports {
            assert!(rep.location.distance_to(event) < 1e-9);
        }
    }

    #[test]
    fn concurrent_events_both_detected() {
        let engine = Box::new(TibfitEngine::new(TrustParams::experiment2(), 100));
        let mut sim = located_sim(0, engine, 5);
        let events = [Point::new(25.0, 25.0), Point::new(75.0, 75.0)];
        let r = sim.run_located_round(&events);
        assert_eq!(r.detected_within(5.0), 2);
        assert_eq!(r.false_positives(5.0), 0);
    }

    #[test]
    fn set_behavior_flips_node_role() {
        let engine = Box::new(TibfitEngine::new(TrustParams::experiment1(0.0), 10));
        let mut sim = binary_sim(0, engine);
        // Turn node 0 into a guaranteed misser.
        sim.set_behavior(
            NodeId(0),
            Box::new(Level0Node::new(Level0Config {
                missed_alarm: 1.0,
                false_alarm: 0.0,
                loc_sigma: 0.0,
                drop_prob: 0.0,
            })),
        );
        let r = sim.run_binary_round(true);
        assert!(!r.reporters.contains(&NodeId(0)));
        assert_eq!(r.reporters.len(), 9);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let mk = || {
            let engine = Box::new(TibfitEngine::new(TrustParams::experiment1(0.01), 10));
            binary_sim(4, engine)
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            assert_eq!(a.run_binary_round(true), b.run_binary_round(true));
        }
    }

    #[test]
    #[should_panic(expected = "one behavior per node")]
    fn behavior_count_must_match() {
        let topo = Topology::single_cluster(3, 5.0);
        let _ = ClusterSim::new(
            ClusterSimConfig {
                sensing_radius: 20.0,
                r_error: 5.0,
                ch_position: Point::new(1.0, 1.0),
            },
            topo,
            vec![Box::new(CorrectNode::new(0.0, 0.0))],
            Box::new(Perfect),
            Box::new(BaselineEngine::new()),
            SimRng::seed_from(0),
        );
    }
}
