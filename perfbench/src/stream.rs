//! Workload input: the seeded frame stream the daemon and the ledger
//! driver both consume, pre-rendered one tick at a time.

use tibfit_experiments::replay::replay_records;

/// Tenants every daemon workload hosts.
pub const TENANTS: usize = 2;
/// Nodes per standard mobile tenant (query targets are drawn below it).
pub const NODES: u64 = 64;

/// A deterministic stream of ticks.
pub struct Stream {
    /// Each tick's frames, newline-terminated: its records, then a
    /// `Q round` probe and a `Q trust` query per tenant, then `T`.
    pub ticks: Vec<String>,
    /// Records per tenant per tick.
    pub per_tick: u32,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Stream {
    /// `ticks` ticks of `per_tick` records per tenant, all drawn from
    /// `seed` (the daemon must be started with the same `--seed`, which
    /// selects its tenants' deployments).
    #[must_use]
    pub fn generate(seed: u64, ticks: u64, per_tick: u32) -> Self {
        let records = replay_records(TENANTS, seed, ticks, per_tick);
        let mut rng = seed ^ 0x5157_0A11;
        let mut out = Vec::with_capacity(ticks as usize);
        let mut it = records.iter().peekable();
        for time in 0..ticks {
            let mut text = String::with_capacity(64 * (per_tick as usize * TENANTS + 5));
            while let Some(r) = it.next_if(|r| r.time == time) {
                text.push_str(&format!(
                    "R {} {} {} {} {} {}\n",
                    r.tenant, r.time, r.src, r.seq, r.x, r.y
                ));
            }
            for t in 0..TENANTS {
                text.push_str(&format!("Q round {t}\n"));
                let node = splitmix64(&mut rng) % NODES;
                text.push_str(&format!("Q trust {t} {node}\n"));
            }
            text.push_str("T\n");
            out.push(text);
        }
        Stream {
            ticks: out,
            per_tick,
        }
    }

    /// Records in ticks `0..n`.
    #[must_use]
    pub fn records_in(&self, n: usize) -> u64 {
        n as u64 * u64::from(self.per_tick) * TENANTS as u64
    }
}

/// The probe a freshly started daemon answers once it serves: a
/// `Q round` per tenant and an empty tick.
#[must_use]
pub fn probe_text() -> String {
    let mut s = String::new();
    for t in 0..TENANTS {
        s.push_str(&format!("Q round {t}\n"));
    }
    s.push_str("T\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = Stream::generate(9, 5, 3);
        let b = Stream::generate(9, 5, 3);
        let c = Stream::generate(10, 5, 3);
        let text = |s: &Stream| s.ticks.concat();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert_eq!(a.records_in(5), 30);
    }

    #[test]
    fn every_tick_has_records_probes_and_a_boundary() {
        let s = Stream::generate(1, 4, 2);
        for t in &s.ticks {
            let lines: Vec<&str> = t.lines().collect();
            assert_eq!(lines.iter().filter(|l| l.starts_with("R ")).count(), 4);
            assert_eq!(lines.iter().filter(|l| l.starts_with("Q round")).count(), 2);
            assert_eq!(lines.iter().filter(|l| l.starts_with("Q trust")).count(), 2);
            assert_eq!(lines.last(), Some(&"T"));
        }
    }
}
