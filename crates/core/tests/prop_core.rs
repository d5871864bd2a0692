//! Property-style tests for the TIBFIT protocol invariants.
//!
//! Random cases come from seeded [`SimRng`] sweeps, so every run checks
//! the identical case set.

use tibfit_core::concurrent::ConcurrentCollector;
use tibfit_core::location::{cluster_reports, decide_located, judge_located, LocatedReport};
use tibfit_core::shadow::{adjudicate, Conclusion};
use tibfit_core::trust::{Judgement, TrustParams, TrustTable};
use tibfit_core::vote::{run_vote, Weighting};
use tibfit_net::geometry::Point;
use tibfit_net::topology::{NodeId, Topology};
use tibfit_sim::rng::SimRng;
use tibfit_sim::{Duration, SimTime};

fn case_seeds(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|i| 0xC04E_0000u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn random_params(rng: &mut SimRng) -> TrustParams {
    TrustParams::new(rng.uniform_range(0.01, 2.0), rng.uniform_range(0.0, 0.9))
}

fn random_reports(rng: &mut SimRng, max: usize) -> Vec<LocatedReport> {
    (0..rng.uniform_usize(max))
        .map(|i| {
            LocatedReport::new(
                NodeId(i),
                Point::new(rng.uniform_range(0.0, 100.0), rng.uniform_range(0.0, 100.0)),
            )
        })
        .collect()
}

/// The trust index stays in (0, 1] under any judgement sequence.
#[test]
fn trust_index_in_unit_interval() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let params = random_params(&mut rng);
        let mut table = TrustTable::new(params, 1);
        for _ in 0..rng.uniform_usize(500) {
            if rng.chance(0.5) {
                table.record_faulty(NodeId(0));
            } else {
                table.record_correct(NodeId(0));
            }
            let ti = table.trust_of(NodeId(0));
            assert!(ti > 0.0 && ti <= 1.0, "TI {ti} (seed {seed})");
        }
    }
}

/// Each faulty report strictly lowers the trust index (for f_r < 1);
/// each correct report never lowers it.
#[test]
fn trust_monotone_per_judgement() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let params = random_params(&mut rng);
        let steps = 1 + rng.uniform_usize(99);
        let mut table = TrustTable::new(params, 1);
        let mut prev = table.trust_of(NodeId(0));
        for i in 0..steps {
            if i % 2 == 0 {
                table.record_faulty(NodeId(0));
                let now = table.trust_of(NodeId(0));
                if params.fault_rate < 1.0 {
                    assert!(now < prev);
                }
                prev = now;
            } else {
                table.record_correct(NodeId(0));
                let now = table.trust_of(NodeId(0));
                assert!(now >= prev - 1e-12);
                prev = now;
            }
        }
    }
}

/// The cumulative trust of a group is the sum of its members'.
#[test]
fn cti_is_additive() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let params = random_params(&mut rng);
        let mut table = TrustTable::new(params, 5);
        for _ in 0..rng.uniform_usize(50) {
            table.record_faulty(NodeId(rng.uniform_usize(5)));
        }
        let group: Vec<NodeId> = (0..5).map(NodeId).collect();
        let sum: f64 = group.iter().map(|&n| table.trust_of(n)).sum();
        assert!((table.cumulative_trust(&group) - sum).abs() < 1e-9);
    }
}

/// run_vote partitions the neighborhood exactly.
#[test]
fn vote_partitions_neighbors() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(29);
        let reporter_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let neighbors: Vec<NodeId> = (0..n).map(NodeId).collect();
        let reporters: Vec<NodeId> = (0..n).filter(|&i| reporter_mask[i]).map(NodeId).collect();
        let out = run_vote(&neighbors, &reporters, &Weighting::Uniform);
        let mut all = out.reporters.clone();
        all.extend(&out.non_reporters);
        all.sort();
        assert_eq!(all, neighbors);
        // Uniform weights: the verdict is exactly the majority predicate.
        assert_eq!(out.event_declared, out.reporters.len() * 2 > n);
    }
}

/// Clustering partitions the input reports (no loss, no duplication).
#[test]
fn clustering_partitions_reports() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let reports = random_reports(&mut rng, 40);
        let r_error = rng.uniform_range(1.0, 20.0);
        let clusters = cluster_reports(&reports, r_error);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, reports.len());
        let mut ids: Vec<usize> = clusters
            .iter()
            .flat_map(|c| c.members.iter().map(|m| m.reporter.index()))
            .collect();
        ids.sort_unstable();
        let mut expected: Vec<usize> = reports.iter().map(|r| r.reporter.index()).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }
}

/// Every cluster's cg is inside the bounding box of its members, and
/// every member is assigned to its nearest final center.
#[test]
fn clustering_geometry() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let reports = random_reports(&mut rng, 30);
        let r_error = rng.uniform_range(1.0, 20.0);
        let clusters = cluster_reports(&reports, r_error);
        for c in &clusters {
            let min_x = c
                .members
                .iter()
                .map(|m| m.location.x)
                .fold(f64::INFINITY, f64::min);
            let max_x = c
                .members
                .iter()
                .map(|m| m.location.x)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(c.cg.x >= min_x - 1e-9 && c.cg.x <= max_x + 1e-9);
        }
        // Nearest-center assignment: a member is never strictly closer
        // to a different cluster's cg than its own (up to ties from the
        // final merge round).
        for c in &clusters {
            for m in &c.members {
                let own = m.location.distance_to(c.cg);
                for other in &clusters {
                    if std::ptr::eq(c, other) {
                        continue;
                    }
                    // Allow slack of r_error: the merge step can shift
                    // centers after final assignment.
                    assert!(own <= m.location.distance_to(other.cg) + r_error);
                }
            }
        }
    }
}

/// Singleton input: one cluster centered on the report.
#[test]
fn clustering_singleton() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let x = rng.uniform_range(0.0, 100.0);
        let y = rng.uniform_range(0.0, 100.0);
        let r_error = rng.uniform_range(1.0, 20.0);
        let reports = vec![LocatedReport::new(NodeId(0), Point::new(x, y))];
        let clusters = cluster_reports(&reports, r_error);
        assert_eq!(clusters.len(), 1);
        assert!(clusters[0].cg.distance_to(Point::new(x, y)) < 1e-9);
    }
}

/// judge_located covers every event neighbor of every decided cluster,
/// plus outliers, and no judgement is contradictory within one decision.
#[test]
fn located_judgements_cover_participants() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let reports = random_reports(&mut rng, 25);
        let r_error = rng.uniform_range(2.0, 10.0);
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let decisions = decide_located(&topo, 20.0, r_error, &reports, &Weighting::Uniform);
        for d in &decisions {
            let judgements = judge_located(d);
            // Every vote participant appears.
            for n in d.vote.reporters.iter().chain(&d.vote.non_reporters) {
                assert!(judgements.iter().any(|(j, _)| j == n));
            }
            // Within this decision a node is judged consistently.
            for (node, _) in &judgements {
                let both_vote =
                    d.vote.reporters.contains(node) && d.vote.non_reporters.contains(node);
                assert!(!both_vote);
            }
        }
    }
}

/// Shadow adjudication always returns one of the submitted conclusions.
#[test]
fn adjudication_picks_a_submitted_conclusion() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let ch_event = rng.chance(0.5);
        let shadow_events: Vec<bool> = (0..rng.uniform_usize(5)).map(|_| rng.chance(0.5)).collect();
        let ch = Conclusion::binary(ch_event);
        let shadows: Vec<Conclusion> =
            shadow_events.iter().map(|&b| Conclusion::binary(b)).collect();
        let ruling = adjudicate(ch, &shadows, 0.5);
        let all: Vec<Conclusion> = std::iter::once(ch).chain(shadows.iter().copied()).collect();
        assert!(all
            .iter()
            .any(|c| c.agrees_with(&ruling.final_conclusion, 0.5)));
        // The CH is only overruled by a strictly larger group.
        if ruling.ch_overruled {
            let ch_backing = all.iter().filter(|c| c.agrees_with(&ch, 0.5)).count();
            assert!(ruling.backing > ch_backing);
        }
    }
}

/// The concurrent collector conserves reports: everything submitted is
/// eventually released exactly once.
#[test]
fn collector_conserves_reports() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let pts: Vec<(f64, f64, u64)> = (0..rng.uniform_usize(40))
            .map(|_| {
                (
                    rng.uniform_range(0.0, 100.0),
                    rng.uniform_range(0.0, 100.0),
                    rng.next_u64() % 500,
                )
            })
            .collect();
        let r_error = rng.uniform_range(1.0, 10.0);
        let mut sorted = pts.clone();
        sorted.sort_by_key(|&(_, _, t)| t);
        let mut col = ConcurrentCollector::new(r_error, Duration::from_ticks(100));
        let mut released = 0usize;
        for (i, &(x, y, t)) in sorted.iter().enumerate() {
            released += col
                .poll(SimTime::from_ticks(t))
                .iter()
                .map(Vec::len)
                .sum::<usize>();
            col.submit(
                SimTime::from_ticks(t),
                LocatedReport::new(NodeId(i), Point::new(x, y)),
            );
        }
        released += col.flush().iter().map(Vec::len).sum::<usize>();
        assert_eq!(released, pts.len());
        assert_eq!(col.pending_reports(), 0);
    }
}

/// Judgement application is order-independent for distinct nodes.
#[test]
fn judgements_commute_across_nodes() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let params = random_params(&mut rng);
        let seq: Vec<(usize, bool)> = (0..rng.uniform_usize(100))
            .map(|_| (rng.uniform_usize(4), rng.chance(0.5)))
            .collect();
        let mut forward = TrustTable::new(params, 4);
        let mut grouped = TrustTable::new(params, 4);
        for &(node, faulty) in &seq {
            let j = if faulty {
                Judgement::Faulty
            } else {
                Judgement::Correct
            };
            forward.apply_judgements(&[(NodeId(node), j)]);
        }
        // Apply per node, preserving each node's relative order.
        for node in 0..4 {
            for &(n, faulty) in seq.iter().filter(|(n, _)| *n == node) {
                let j = if faulty {
                    Judgement::Faulty
                } else {
                    Judgement::Correct
                };
                grouped.apply_judgements(&[(NodeId(n), j)]);
            }
        }
        for node in 0..4 {
            assert!(
                (forward.trust_of(NodeId(node)) - grouped.trust_of(NodeId(node))).abs() < 1e-9
            );
        }
    }
}

/// The f64 and Q16.16 backends under the same paper parameters.
fn both_backends() -> [TrustParams; 2] {
    let params = TrustParams::new(0.5, 0.1);
    [params, params.with_fixed_point().expect("representable in Q16.16")]
}

/// An empty group keeps the `-0.0` empty-sum seed, and so does a
/// nonempty group whose members are all quarantined: quarantined slots
/// fold in bit-neutrally and cost no read. The vote layer then tells
/// the two apart — a nonempty group weighs `+0.0`, as the per-node fold
/// of literal zeros did.
#[test]
fn empty_and_all_quarantined_groups_keep_the_minus_zero_sentinel() {
    for params in both_backends() {
        let mut table = TrustTable::new(params, 32).with_isolation_threshold(0.9);
        for i in 0..32 {
            table.record_faulty(NodeId(i));
            assert!(table.is_isolated(NodeId(i)));
        }
        let all: Vec<NodeId> = (0..32).map(NodeId).collect();
        let some = [NodeId(3), NodeId(7), NodeId(31)];
        let weighting = Weighting::Trust(&table);
        for group in [&[][..], &some[..], &all[..]] {
            let before = table.ti_reads();
            let cti = table.cumulative_trust(group);
            assert_eq!(table.ti_reads(), before, "{:?} len {}", params.arith, group.len());
            assert_eq!(
                cti.to_bits(),
                (-0.0f64).to_bits(),
                "{:?} len {} lost the -0.0 sentinel",
                params.arith,
                group.len()
            );
            let want = if group.is_empty() { -0.0f64 } else { 0.0 };
            assert_eq!(
                weighting.group_weight(group).to_bits(),
                want.to_bits(),
                "{:?} len {}",
                params.arith,
                group.len()
            );
        }
    }
}

/// On random tables (quarantine, probation and reintegration churn) and
/// random groups — empties, repeats, lengths past every chunk width —
/// the CTI fold equals the status-filtered left fold bitwise, the vote
/// weight equals the per-node fold bitwise, and each charges exactly one
/// `ti_reads` per participating member, on both backends.
#[test]
fn random_groups_fold_bitwise_and_charge_one_read_per_participant() {
    for params in both_backends() {
        for seed in case_seeds(12) {
            let mut rng = SimRng::seed_from(seed);
            let n = 1 + rng.uniform_usize(300);
            let mut table = TrustTable::new(params, n)
                .with_isolation_threshold(0.5)
                .with_reintegration(2, 3);
            for _ in 0..rng.uniform_usize(4) {
                for i in 0..n {
                    if rng.chance(0.4) {
                        table.record_faulty(NodeId(i));
                    } else {
                        table.record_correct(NodeId(i));
                    }
                }
                table.tick_round();
            }
            for _ in 0..20 {
                let len = match rng.uniform_usize(4) {
                    0 => rng.uniform_usize(5),
                    1 => 255 + rng.uniform_usize(3),
                    _ => rng.uniform_usize(64),
                };
                let group: Vec<NodeId> = (0..len).map(|_| NodeId(rng.uniform_usize(n))).collect();
                let participants = group.iter().filter(|&&m| !table.is_isolated(m)).count() as u64;
                let reference: f64 = group
                    .iter()
                    .filter(|&&m| !table.is_isolated(m))
                    .map(|&m| table.trust_of(m))
                    .sum();
                let weighting = Weighting::Trust(&table);
                let per_node: f64 = group.iter().map(|&m| weighting.weight_of(m)).sum();

                let before = table.ti_reads();
                let cti = table.cumulative_trust(&group);
                assert_eq!(table.ti_reads() - before, participants, "seed {seed} len {len}");
                assert_eq!(cti.to_bits(), reference.to_bits(), "seed {seed} len {len}");

                let before = table.ti_reads();
                let weight = weighting.group_weight(&group);
                assert_eq!(table.ti_reads() - before, participants, "seed {seed} len {len}");
                assert_eq!(weight.to_bits(), per_node.to_bits(), "seed {seed} len {len}");
            }
        }
    }
}
