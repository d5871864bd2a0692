//! Durable tenant state: a versioned snapshot container wrapping the
//! engine checkpoint blob together with everything else a resume needs
//! to be byte-identical — the dedup highwaters and the mirrored queue
//! counters — plus the decision-log truncation that squares the log
//! with the snapshot after a crash.
//!
//! This module is the only code that knows how tenant state sits on
//! disk. Each tenant owns two fixed slot files, `tenantN.tbsn` and
//! `tenantN.tbsn.b`. A slot holds one frame
//! ([`tibfit_sim::snapshot::write_framed`]) whose payload is
//! `seq (u64 LE) · state bytes`, so the sequence number and the state
//! are covered by one CRC. A write (`StateFile::write`) overwrites the
//! slot that does *not* hold the newest valid state, in place at offset
//! 0, then fsyncs it: no create, rename or unlink. Restore takes the
//! valid slot with the highest `seq`, so a torn write leaves the other
//! slot — the previous state — in charge: old or new, never a mix. A
//! slot whose frame is whole but whose state is empty means "no state"
//! (the seed written when the slots are created, and
//! `clear_tenant_state`'s tombstone). A state dir from before the
//! slots holds one bare container in `tenantN.tbsn`; it reads as
//! `seq` 0.
//!
//! Snapshots are taken only at tick boundaries, on the
//! [`SnapshotCadence`], so every slot is internally consistent: the
//! engine round, the highwater map, and the counters all describe the
//! same instant. The decision log is synced to disk *before* the
//! snapshot is written, so a durable snapshot at round `r` implies
//! durable rounds `1..=r` in the log, even across a power loss; anything
//! after `r` (including a torn final line) is regenerated
//! deterministically by the replayed stream and is truncated away on
//! restore. Because the log is append-only with strictly increasing
//! rounds, truncation reads only its tail and writes nothing unless it
//! cuts something, so restart cost follows the records since the last
//! snapshot (at most the cadence's `R`) rather than the log's history.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tibfit_experiments::checkpoint::sync_parent_dir;
use tibfit_sim::snapshot::{
    read_framed, write_framed, SnapshotError, SnapshotReader, SnapshotWriter, MAGIC,
};

use crate::queue::QueueStats;
use crate::tenant::{decision_line_round, EngineKind, Tenant};
use crate::DaemonError;

/// Section tag: tenant metadata (id, seed, kind, round, highwaters,
/// counters).
const TAG_TENANT_META: u8 = 20;
/// Section tag: the engine checkpoint blob.
const TAG_TENANT_ENGINE: u8 = 21;

/// Everything a tenant state file holds, decoded.
pub struct TenantState {
    /// Tenant index.
    pub id: usize,
    /// Scenario master seed the tenant was built from (validated
    /// against the daemon's configuration on restore).
    pub seed: u64,
    /// Engine flavor the blob was saved from.
    pub kind: EngineKind,
    /// Engine round at snapshot time.
    pub round: u64,
    /// Dedup highwaters `(src, max_seq)` at snapshot time.
    pub highwater: Vec<(u64, u64)>,
    /// Queue counters at snapshot time.
    pub stats: QueueStats,
    /// The engine checkpoint blob.
    pub blob: Vec<u8>,
}

/// Path of tenant `id`'s state under `state_dir`: its first slot file,
/// and the name every other function here takes.
#[must_use]
pub fn tenant_state_path(state_dir: &Path, id: usize) -> PathBuf {
    state_dir.join(format!("tenant{id}.tbsn"))
}

/// The two slot files behind a state path.
#[must_use]
pub fn tenant_state_slots(path: &Path) -> [PathBuf; 2] {
    let mut b = path.as_os_str().to_owned();
    b.push(".b");
    [path.to_path_buf(), PathBuf::from(b)]
}

/// Path of tenant `id`'s decision log under `decisions_dir`.
#[must_use]
pub fn decision_log_path(decisions_dir: &Path, id: usize) -> PathBuf {
    decisions_dir.join(format!("tenant{id}.log"))
}

/// Encodes a tenant's durable state.
///
/// # Errors
///
/// [`DaemonError::Snapshot`] if the engine blob fails to encode.
pub fn encode_tenant_state(
    tenant: &Tenant,
    highwater: &[(u64, u64)],
    stats: QueueStats,
) -> Result<Vec<u8>, DaemonError> {
    let blob = tenant.engine_blob()?;
    let mut w = SnapshotWriter::new();
    w.section(TAG_TENANT_META, |s| {
        s.put_usize(tenant.id());
        s.put_u64(tenant.scenario().seed);
        s.put_u8(tenant.kind().tag());
        s.put_u64(tenant.round());
        s.put_usize(highwater.len());
        for &(src, seq) in highwater {
            s.put_u64(src);
            s.put_u64(seq);
        }
        s.put_u64(stats.offered);
        s.put_u64(stats.admitted);
        s.put_u64(stats.shed_budget);
        s.put_u64(stats.shed_overflow);
        s.put_u64(stats.duplicates);
        s.put_u64(stats.backpressure_waits);
    });
    w.section(TAG_TENANT_ENGINE, |s| s.put_bytes(&blob));
    Ok(w.finish())
}

/// Decodes a tenant state file's bytes.
///
/// # Errors
///
/// [`DaemonError::Snapshot`] on a malformed container.
pub fn decode_tenant_state(bytes: &[u8]) -> Result<TenantState, DaemonError> {
    let mut r = SnapshotReader::new(bytes).map_err(DaemonError::Snapshot)?;
    let mut s = r.section(TAG_TENANT_META).map_err(DaemonError::Snapshot)?;
    let id = s.take_usize().map_err(DaemonError::Snapshot)?;
    let seed = s.take_u64().map_err(DaemonError::Snapshot)?;
    let kind = EngineKind::from_tag(s.take_u8().map_err(DaemonError::Snapshot)?)?;
    let round = s.take_u64().map_err(DaemonError::Snapshot)?;
    let n = s.take_count(16).map_err(DaemonError::Snapshot)?;
    let mut highwater = Vec::with_capacity(n);
    for _ in 0..n {
        let src = s.take_u64().map_err(DaemonError::Snapshot)?;
        let seq = s.take_u64().map_err(DaemonError::Snapshot)?;
        highwater.push((src, seq));
    }
    let stats = QueueStats {
        offered: s.take_u64().map_err(DaemonError::Snapshot)?,
        admitted: s.take_u64().map_err(DaemonError::Snapshot)?,
        shed_budget: s.take_u64().map_err(DaemonError::Snapshot)?,
        shed_overflow: s.take_u64().map_err(DaemonError::Snapshot)?,
        duplicates: s.take_u64().map_err(DaemonError::Snapshot)?,
        backpressure_waits: s.take_u64().map_err(DaemonError::Snapshot)?,
    };
    s.end().map_err(DaemonError::Snapshot)?;
    let mut s = r.section(TAG_TENANT_ENGINE).map_err(DaemonError::Snapshot)?;
    let blob = s.take_bytes().map_err(DaemonError::Snapshot)?;
    s.end().map_err(DaemonError::Snapshot)?;
    r.finish().map_err(DaemonError::Snapshot)?;
    Ok(TenantState {
        id,
        seed,
        kind,
        round,
        highwater,
        stats,
        blob,
    })
}

/// Both slots of one state path, read once.
struct Slots {
    files: [Option<File>; 2],
    /// Index, `seq` and state bytes of the newest valid slot.
    newest: Option<(usize, u64, Vec<u8>)>,
    /// Slot files that exist and hold at least one byte.
    nonempty: usize,
}

fn read_slots(path: &Path, options: &OpenOptions) -> Result<Slots, DaemonError> {
    let mut slots = Slots {
        files: [None, None],
        newest: None,
        nonempty: 0,
    };
    for (i, slot_path) in tenant_state_slots(path).iter().enumerate() {
        let mut file = match options.open(slot_path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(DaemonError::Io(e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(DaemonError::Io)?;
        if !bytes.is_empty() {
            slots.nonempty += 1;
            if let Some((seq, state)) = parse_slot(bytes) {
                if slots.newest.as_ref().is_none_or(|n| seq > n.1) {
                    slots.newest = Some((i, seq, state));
                }
            }
        }
        slots.files[i] = Some(file);
    }
    Ok(slots)
}

/// `(seq, state)` of a whole slot frame; `None` for a torn or corrupt
/// one. A bare container from before the slots reads as `seq` 0.
fn parse_slot(bytes: Vec<u8>) -> Option<(u64, Vec<u8>)> {
    if bytes.starts_with(&MAGIC) {
        return Some((0, bytes));
    }
    let mut payload = read_framed(&mut bytes.as_slice(), bytes.len() as u64).ok()?;
    let seq = u64::from_le_bytes(*payload.first_chunk::<8>()?);
    payload.drain(..8);
    Some((seq, payload))
}

/// A tenant's two state slots, open for writing. Opening reads both
/// slots once; from then on each [`write`](Self::write) is one
/// in-place write plus one fsync.
pub(crate) struct StateFile {
    files: [File; 2],
    /// Index and `seq` of the newest valid slot.
    newest: Option<(usize, u64)>,
}

impl StateFile {
    /// Opens (creating if needed) the slots behind `path`. While a slot
    /// file is still empty (new) the directory is fsynced; when both
    /// are, slot 0 is seeded with an empty state so even the first real
    /// write has an older slot to fall back on.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] on any filesystem failure.
    pub(crate) fn open(path: &Path) -> Result<Self, DaemonError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(DaemonError::Io)?;
            }
        }
        let slots = read_slots(path, OpenOptions::new().read(true).write(true).create(true))?;
        let [Some(a), Some(b)] = slots.files else {
            return Err(DaemonError::State(format!(
                "{}: a state slot vanished while being created",
                path.display()
            )));
        };
        if slots.nonempty < 2 {
            sync_parent_dir(path).map_err(DaemonError::Io)?;
        }
        let mut file = StateFile {
            files: [a, b],
            newest: slots.newest.map(|(i, seq, _)| (i, seq)),
        };
        if slots.nonempty == 0 {
            file.write(&[])?;
        }
        Ok(file)
    }

    /// Durably replaces the tenant state with `state`: frames it with
    /// the next `seq`, overwrites the slot not holding the newest
    /// state, and fsyncs that slot.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] on any filesystem failure; the newest slot
    /// is untouched, so the previous state stays readable.
    pub(crate) fn write(&mut self, state: &[u8]) -> Result<(), DaemonError> {
        let (slot, seq) = match self.newest {
            Some((i, seq)) => (1 - i, seq + 1),
            None => (0, 0),
        };
        let mut payload = Vec::with_capacity(8 + state.len());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(state);
        let mut frame = Vec::with_capacity(payload.len() + 16);
        write_framed(&mut frame, &payload).map_err(|e| DaemonError::State(e.to_string()))?;
        let mut f = &self.files[slot];
        f.seek(SeekFrom::Start(0)).map_err(DaemonError::Io)?;
        f.write_all(&frame).map_err(DaemonError::Io)?;
        f.sync_all().map_err(DaemonError::Io)?;
        self.newest = Some((slot, seq));
        Ok(())
    }
}

/// Writes a tenant's state durably: `StateFile::open` plus one
/// `StateFile::write`.
///
/// # Errors
///
/// [`DaemonError::Io`] on I/O failure.
pub fn write_tenant_state(path: &Path, bytes: &[u8]) -> Result<(), DaemonError> {
    StateFile::open(path)?.write(bytes)
}

/// Replaces a tenant's state with "no state", so the next restore
/// starts fresh. A tenant with no slot files is left as it is.
///
/// # Errors
///
/// [`DaemonError::Io`] on I/O failure.
pub(crate) fn clear_tenant_state(path: &Path) -> Result<(), DaemonError> {
    if tenant_state_slots(path).iter().any(|p| p.exists()) {
        StateFile::open(path)?.write(&[])?;
    }
    Ok(())
}

/// The newest valid state bytes behind `path`, undecoded. `Ok(None)`
/// if there is no state.
///
/// # Errors
///
/// [`DaemonError::Io`] on I/O failure; [`DaemonError::Snapshot`] when
/// slot files exist but none holds a whole frame.
pub(crate) fn read_tenant_state_bytes(path: &Path) -> Result<Option<Vec<u8>>, DaemonError> {
    let slots = read_slots(path, OpenOptions::new().read(true))?;
    match slots.newest {
        Some((_, _, state)) => Ok((!state.is_empty()).then_some(state)),
        None if slots.nonempty > 0 => Err(DaemonError::Snapshot(SnapshotError::Invalid(
            "no state slot holds a whole frame",
        ))),
        None => Ok(None),
    }
}

/// Reads and decodes a tenant's newest valid state. `Ok(None)` if
/// there is none.
///
/// # Errors
///
/// [`DaemonError::Io`] on I/O failure, [`DaemonError::Snapshot`] on
/// corruption (every slot torn, or the newest state undecodable).
pub fn read_tenant_state(path: &Path) -> Result<Option<TenantState>, DaemonError> {
    read_tenant_state_bytes(path)?
        .map(|bytes| decode_tenant_state(&bytes))
        .transpose()
}

/// When a tenant worker snapshots. Trickle's rule, bounded by a replay
/// budget: the interval doubles after every snapshot while the tenant
/// stays up, and starts again at the minimum for every new incarnation
/// (startup, watchdog respawn, fleet adoption, migration in), which
/// builds a fresh cadence. The worker feeds it every record it applies
/// and every tick end it reaches, recovery replay included, so its
/// counts are exactly what the queue's recovery buffer holds since the
/// last snapshot.
///
/// A snapshot is due at a tick end when `interval` ticks have passed
/// since the last one, or when one more full tick (at most `tick_budget`
/// admitted records) could take the buffer past
/// `R = min_interval × tick_budget` records. `R` is the worst case the
/// old fixed cadence allowed, so dense tenants (a full budget every
/// tick) still snapshot every `min_interval` ticks, sparse ones far less
/// often, and the replay a restart needs never exceeds `R` records. (The
/// one exception is the first live tick after a recovery replay, on a
/// watchdog respawn or a migration install: a snapshot that fell due
/// during the replay, which cannot snapshot, waits for that tick's end,
/// so a crash inside it replays up to `R + tick_budget`.) The interval
/// itself is capped at `R` ticks, so an idle tenant still snapshots now
/// and then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotCadence {
    tick_budget: u64,
    max_records: u64,
    interval: u64,
    ticks: u64,
    records: u64,
}

impl SnapshotCadence {
    /// A new incarnation's cadence: `min_interval` is `--snapshot-every`,
    /// `tick_budget` the queue's records admitted per tick.
    #[must_use]
    pub fn new(min_interval: u64, tick_budget: usize) -> Self {
        let tick_budget = tick_budget as u64;
        SnapshotCadence {
            tick_budget,
            max_records: min_interval.saturating_mul(tick_budget),
            interval: min_interval,
            ticks: 0,
            records: 0,
        }
    }

    /// `R`: the most records the recovery buffer holds at a tick end.
    #[must_use]
    pub fn max_records(&self) -> u64 {
        self.max_records
    }

    /// Ticks between snapshots while the record budget is not binding.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Counts one applied record.
    pub fn record(&mut self) {
        self.records += 1;
    }

    /// Counts one tick end; whether a snapshot is due at it.
    pub fn tick_end(&mut self) -> bool {
        self.ticks += 1;
        self.ticks >= self.interval || self.records + self.tick_budget > self.max_records
    }

    /// A snapshot committed: the buffer is empty again, and the interval
    /// doubles, up to `R` ticks.
    pub fn snapshotted(&mut self) {
        self.ticks = 0;
        self.records = 0;
        self.interval = self.interval.saturating_mul(2).min(self.max_records);
    }
}

/// Bytes [`truncate_decision_log`] first reads from the end of a log.
/// The window doubles until it holds the cut, so a restart reads about
/// the unsnapshotted tail, not the whole history.
const TAIL_WINDOW: u64 = 8 << 10;

/// Truncates a decision log to rounds `<= round`: cuts it at the end of
/// the last whole, well-formed decision line whose round is at most
/// `round`, dropping everything after it — later rounds a dead
/// incarnation got ahead on, and any torn final line. Returns that
/// line's round (0 if no line is kept). A missing file is created
/// empty.
///
/// Only the tail is read: backward from end-of-file in a window of
/// [`TAIL_WINDOW`] bytes that doubles until it holds the cut. That is
/// enough because the daemon only appends, with strictly increasing
/// rounds, so everything past the cut is at most the ticks since the
/// snapshot plus one torn line. Lines before the cut are kept as they
/// are, well-formed or not.
///
/// When the cut is shorter than the file it is one `set_len` plus an
/// fsync, so a crash mid-truncation leaves either the old or the new
/// log, both of which re-truncate cleanly on the next start. When
/// nothing is cut the file is not written or synced: it is then
/// exactly as durable as the running daemon left it.
///
/// # Errors
///
/// [`DaemonError::Io`] on any filesystem failure.
pub fn truncate_decision_log(path: &Path, round: u64) -> Result<u64, DaemonError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(DaemonError::Io)?;
        }
    }
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(DaemonError::Io)?;
    let len = file.metadata().map_err(DaemonError::Io)?.len();
    let mut window = TAIL_WINDOW;
    let mut tail = Vec::new();
    let (cut, kept_round) = loop {
        let start = len.saturating_sub(window);
        tail.resize((len - start) as usize, 0);
        file.seek(SeekFrom::Start(start)).map_err(DaemonError::Io)?;
        file.read_exact(&mut tail).map_err(DaemonError::Io)?;
        if let Some((end, r)) = last_line_at_most(&tail, start == 0, round) {
            break (start + end as u64, r);
        }
        if start == 0 {
            break (0, 0);
        }
        window *= 2;
    };
    if cut < len {
        file.set_len(cut).map_err(DaemonError::Io)?;
        file.sync_all().map_err(DaemonError::Io)?;
    }
    Ok(kept_round)
}

/// End offset and round of the last whole decision line in `tail` with
/// a round `<= round`. Bytes after the last newline are a torn line;
/// unless `tail` starts at the beginning of the file (`at_start`), the
/// bytes before its first newline may be the end of a longer line.
/// Neither counts.
fn last_line_at_most(tail: &[u8], at_start: bool, round: u64) -> Option<(usize, u64)> {
    let mut end = tail.iter().rposition(|&b| b == b'\n')? + 1;
    loop {
        let line = &tail[..end - 1];
        let begin = line.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if begin == 0 && !at_start {
            return None;
        }
        let parsed = std::str::from_utf8(&line[begin..]).ok().and_then(decision_line_round);
        if let Some(r) = parsed.filter(|&r| r <= round) {
            return Some((end, r));
        }
        if begin == 0 {
            return None;
        }
        end = begin;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Tenant;
    use tibfit_experiments::replay::FieldScenario;

    fn scenario(seed: u64) -> FieldScenario {
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

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tibfit-daemon-state-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tenant_state_round_trips() {
        let sc = scenario(3);
        let mut tenant = Tenant::new(2, sc.clone(), EngineKind::Sequential, 1).unwrap();
        for (i, p) in sc.events(3).into_iter().enumerate() {
            let report = crate::wire::Report {
                tenant: 2,
                time: i as u64,
                src: 2,
                seq: i as u64 + 1,
                x: p.x,
                y: p.y,
            };
            tenant.apply_into(&report, &mut String::new());
        }
        let hw = vec![(2u64, 3u64)];
        let stats = QueueStats {
            offered: 5,
            admitted: 3,
            shed_budget: 1,
            shed_overflow: 1,
            duplicates: 0,
            backpressure_waits: 2,
        };
        let bytes = encode_tenant_state(&tenant, &hw, stats).unwrap();
        let state = decode_tenant_state(&bytes).unwrap();
        assert_eq!(state.id, 2);
        assert_eq!(state.seed, 3);
        assert_eq!(state.kind, EngineKind::Sequential);
        assert_eq!(state.round, 3);
        assert_eq!(state.highwater, hw);
        assert_eq!(state.stats, stats);
        let restored =
            Tenant::from_blob(state.id, sc, state.kind, 1, &state.blob).unwrap();
        assert_eq!(restored.round(), 3);
        assert_eq!(restored.trust_digest(), tenant.trust_digest());
    }

    #[test]
    fn corrupt_state_is_a_typed_error() {
        let sc = scenario(4);
        let tenant = Tenant::new(0, sc, EngineKind::Sequential, 1).unwrap();
        let mut bytes = encode_tenant_state(&tenant, &[], QueueStats::default()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode_tenant_state(&bytes),
            Err(DaemonError::Snapshot(_))
        ));
    }

    /// Encoded state of a fresh 16-node tenant after `rounds` reports.
    fn state_at(rounds: u64) -> Vec<u8> {
        let sc = scenario(7);
        let mut tenant = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        for (i, p) in sc.events(rounds as usize).into_iter().enumerate() {
            let report = crate::wire::Report {
                tenant: 0,
                time: i as u64,
                src: 0,
                seq: i as u64 + 1,
                x: p.x,
                y: p.y,
            };
            tenant.apply_into(&report, &mut String::new());
        }
        encode_tenant_state(&tenant, &[(0, rounds)], QueueStats::default()).unwrap()
    }

    fn restored_round(path: &Path) -> Option<u64> {
        read_tenant_state(path).unwrap().map(|s| s.round)
    }

    fn flip_byte(path: &Path, at: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= 0x40;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn torn_or_flipped_newest_slot_restores_the_previous_state() {
        let dir = tempdir("torn");
        let path = tenant_state_path(&dir, 0);
        let [a, b] = tenant_state_slots(&path);
        // Opening seeds slot a with "no state"; the writes then
        // alternate b (round 2), a (round 4).
        let mut file = StateFile::open(&path).unwrap();
        file.write(&state_at(2)).unwrap();
        file.write(&state_at(4)).unwrap();
        drop(file);
        assert_eq!(restored_round(&path), Some(4));
        let newest = std::fs::read(&a).unwrap();

        // A torn write: only a prefix of the newest frame reached disk.
        let f = OpenOptions::new().write(true).open(&a).unwrap();
        f.set_len(newest.len() as u64 / 2).unwrap();
        assert_eq!(restored_round(&path), Some(2));

        // A flipped bit anywhere in the frame (magic, length, seq,
        // state, CRC) is just as torn.
        for at in [0, 5, 13, newest.len() / 2, newest.len() - 1] {
            std::fs::write(&a, &newest).unwrap();
            flip_byte(&a, at);
            assert_eq!(restored_round(&path), Some(2), "flip at byte {at}");
        }

        // The next write goes over the torn slot, never the good one.
        write_tenant_state(&path, &state_at(6)).unwrap();
        assert_eq!(restored_round(&path), Some(6));
        flip_byte(&a, newest.len() / 2);
        assert_eq!(restored_round(&path), Some(2));
        assert!(b.exists());
    }

    #[test]
    fn a_torn_first_write_restores_as_no_state() {
        let dir = tempdir("first");
        let path = tenant_state_path(&dir, 0);
        let [_, b] = tenant_state_slots(&path);
        write_tenant_state(&path, &state_at(3)).unwrap();
        assert_eq!(restored_round(&path), Some(3));
        flip_byte(&b, 20);
        assert_eq!(restored_round(&path), None);
    }

    #[test]
    fn every_slot_corrupt_is_a_typed_error_not_a_fresh_start() {
        let dir = tempdir("corrupt");
        let path = tenant_state_path(&dir, 0);
        let [a, b] = tenant_state_slots(&path);
        write_tenant_state(&path, &state_at(2)).unwrap();
        write_tenant_state(&path, &state_at(4)).unwrap();
        flip_byte(&a, 30);
        flip_byte(&b, 30);
        assert!(matches!(
            read_tenant_state(&path),
            Err(DaemonError::Snapshot(_))
        ));
        // One garbage slot and no other is just as unusable.
        std::fs::remove_file(&b).unwrap();
        std::fs::write(&a, b"not a state slot").unwrap();
        assert!(matches!(
            read_tenant_state(&path),
            Err(DaemonError::Snapshot(_))
        ));
    }

    #[test]
    fn an_installed_state_wins_by_seq_not_by_round() {
        let dir = tempdir("install");
        let path = tenant_state_path(&dir, 0);
        // Stale slots from an earlier stay, both ahead of the bundle.
        write_tenant_state(&path, &state_at(5)).unwrap();
        write_tenant_state(&path, &state_at(6)).unwrap();
        write_tenant_state(&path, &state_at(2)).unwrap();
        assert_eq!(restored_round(&path), Some(2));
        // A bundle with no state clears what is there.
        clear_tenant_state(&path).unwrap();
        assert_eq!(restored_round(&path), None);
        assert_eq!(read_tenant_state_bytes(&path).unwrap(), None);
        // Clearing a tenant that never had state creates nothing.
        let other = tenant_state_path(&dir, 1);
        clear_tenant_state(&other).unwrap();
        assert!(tenant_state_slots(&other).iter().all(|p| !p.exists()));
    }

    #[test]
    fn a_legacy_single_container_file_restores() {
        let dir = tempdir("legacy");
        let path = tenant_state_path(&dir, 0);
        let legacy = state_at(3);
        std::fs::write(&path, &legacy).unwrap();
        assert_eq!(
            read_tenant_state_bytes(&path).unwrap(),
            Some(legacy.clone())
        );
        assert_eq!(restored_round(&path), Some(3));
        // The first slot write lands beside it, leaving it as the
        // fallback until the next one.
        write_tenant_state(&path, &state_at(5)).unwrap();
        assert_eq!(restored_round(&path), Some(5));
        assert_eq!(std::fs::read(&path).unwrap(), legacy);
    }

    #[test]
    fn missing_state_file_reads_as_none() {
        let dir = tempdir("missing");
        assert!(read_tenant_state(&tenant_state_path(&dir, 0)).unwrap().is_none());
    }

    /// Ticks (1-based) at which `cadence` snapshots over `ticks` tick ends
    /// of `per_tick` records each.
    fn snapshot_ticks(cadence: &mut SnapshotCadence, ticks: u64, per_tick: u64) -> Vec<u64> {
        let mut at = Vec::new();
        for t in 1..=ticks {
            for _ in 0..per_tick {
                cadence.record();
            }
            if cadence.tick_end() {
                cadence.snapshotted();
                at.push(t);
            }
        }
        at
    }

    #[test]
    fn cadence_interval_doubles_up_to_the_record_budget_in_ticks() {
        // R = 3 × 8 = 24 records. With no records the interval alone
        // decides: 3, 6, 12, then capped at 24 ticks.
        let mut idle = SnapshotCadence::new(3, 8);
        assert_eq!(idle.max_records(), 24);
        assert_eq!(snapshot_ticks(&mut idle, 100, 0), [3, 9, 21, 45, 69, 93]);
        assert_eq!(idle.interval(), 24);
        // One record per tick: the record trigger fires once one more
        // full tick (8) could pass 24, i.e. 17 ticks after a snapshot.
        let mut sparse = SnapshotCadence::new(3, 8);
        assert_eq!(snapshot_ticks(&mut sparse, 100, 1), [3, 9, 21, 38, 55, 72, 89]);
    }

    #[test]
    fn cadence_resets_for_every_new_incarnation() {
        let mut first = SnapshotCadence::new(4, 64);
        snapshot_ticks(&mut first, 500, 1);
        assert_eq!(first.interval(), 256);
        // A respawn, adoption or migration builds a fresh cadence.
        let mut next = SnapshotCadence::new(4, 64);
        assert_eq!(next.interval(), 4);
        assert_eq!(snapshot_ticks(&mut next, 4, 1), [4]);
    }

    #[test]
    fn cadence_record_trigger_keeps_dense_tenants_at_the_minimum() {
        // A full budget every tick snapshots every `min_interval` ticks
        // however far the interval has doubled.
        let mut dense = SnapshotCadence::new(4, 64);
        assert_eq!(snapshot_ticks(&mut dense, 252, 1), [4, 12, 28, 60, 124, 252]);
        assert_eq!(dense.interval(), 256);
        assert_eq!(snapshot_ticks(&mut dense, 40, 64), [4, 8, 12, 16, 20, 24, 28, 32, 36, 40]);
        // Half a budget per tick: due once the next tick could pass R.
        let mut half = SnapshotCadence::new(4, 64);
        snapshot_ticks(&mut half, 252, 1);
        assert_eq!(snapshot_ticks(&mut half, 21, 32), [7, 14, 21]);
    }

    #[test]
    fn truncation_drops_future_rounds_and_torn_tails() {
        let dir = tempdir("trunc");
        let path = decision_log_path(&dir, 0);
        let full = "D 1 0 1 at=1,2 by=0 trust=0000000000000001\n\
                    D 2 0 2 at=- by=- trust=0000000000000002\n\
                    D 3 0 3 at=3,4 by=1 trust=0000000000000003\n\
                    D 4 0 4 at=5,6 by=0 tru";
        std::fs::write(&path, full).unwrap();
        assert_eq!(truncate_decision_log(&path, 2).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with("trust=0000000000000002\n"));
        // Truncating an absent log creates an empty one.
        let fresh = decision_log_path(&dir, 1);
        assert_eq!(truncate_decision_log(&fresh, 10).unwrap(), 0);
        assert_eq!(std::fs::read_to_string(&fresh).unwrap(), "");
    }

    /// The forward scan `truncate_decision_log` ran before it read only
    /// the tail, kept as the reference: the byte length of the longest
    /// prefix of whole, well-formed, strictly increasing decision lines
    /// at rounds `<= round`, and the round of its last line.
    fn forward_scan(bytes: &[u8], round: u64) -> (usize, u64) {
        let mut kept_len = 0;
        let mut last_round = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(text) = line.strip_suffix(b"\n") else {
                break;
            };
            match std::str::from_utf8(text).ok().and_then(decision_line_round) {
                Some(r) if r <= round && r > last_round => {
                    kept_len += line.len();
                    last_round = r;
                }
                _ => break,
            }
        }
        (kept_len, last_round)
    }

    /// A decision line for `round`; its `at=` list, and so its length,
    /// varies with the round, so cuts land at assorted offsets.
    fn decision_line(round: u64) -> String {
        let at: Vec<String> = (0..round % 5).map(|i| (round * 7 + i).to_string()).collect();
        let at = if at.is_empty() { "-".to_string() } else { at.join(",") };
        format!(
            "D {round} {} {round} at={at} by={} trust={:016x}\n",
            round % 3,
            round % 2,
            round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        )
    }

    /// A crash-shaped log: whole lines for rounds `first..=last`, then
    /// lines past `last` until the bytes after `last`'s line reach
    /// `tail_bytes`, the final line torn where that budget runs out.
    /// Returns the log and the snapshot round `last`.
    fn crash_log(first: u64, last: u64, tail_bytes: usize) -> (Vec<u8>, u64) {
        let mut log: Vec<u8> = (first..=last).flat_map(|r| decision_line(r).into_bytes()).collect();
        let mut budget = tail_bytes;
        let mut r = last.max(first - 1);
        while budget > 0 {
            r += 1;
            let line = decision_line(r);
            let take = budget.min(line.len());
            log.extend_from_slice(&line.as_bytes()[..take]);
            budget -= take;
        }
        (log, last)
    }

    /// Truncates `log` at `round` with the tail scan and checks it
    /// leaves exactly the bytes the forward scan would have kept.
    fn assert_matches_forward_scan(path: &Path, log: &[u8], round: u64, what: &str) {
        std::fs::write(path, log).unwrap();
        let (kept_len, kept_round) = forward_scan(log, round);
        assert_eq!(truncate_decision_log(path, round).unwrap(), kept_round, "{what}");
        assert!(std::fs::read(path).unwrap() == log[..kept_len], "{what}: kept bytes differ");
    }

    #[test]
    fn tail_truncation_matches_the_forward_scan_on_crash_shaped_logs() {
        let dir = tempdir("tail-diff");
        let path = decision_log_path(&dir, 0);
        let line_len = decision_line(1).len();
        let three_windows = 3 * TAIL_WINDOW as usize / line_len + 40;
        // A first round above 1 is a log a fleet member started on
        // adoption.
        for first in [1u64, 977] {
            for kept in [0, 1, 2, 57, 130, three_windows] {
                let last = first + kept as u64 - 1;
                for past in [0usize, 1, 2, 37, 128, 300] {
                    let past_bytes: usize =
                        (last + 1..=last + past as u64).map(|r| decision_line(r).len()).sum();
                    for torn in [0, 1, line_len / 2, line_len - 1] {
                        let (log, round) = crash_log(first, last, past_bytes + torn);
                        let what = format!("first {first} kept {kept} past {past} torn {torn}");
                        assert_matches_forward_scan(&path, &log, round, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn tail_truncation_matches_the_forward_scan_around_window_boundaries() {
        let dir = tempdir("tail-window");
        let path = decision_log_path(&dir, 0);
        let window = TAIL_WINDOW as usize;
        // Bytes after the cut run across the first and second window
        // edges, so the cut, and the start of the kept line, each land
        // exactly on a boundary at some point.
        for edge in [window, 2 * window] {
            for tail in edge - 150..=edge + 150 {
                let (log, round) = crash_log(3, 150, tail);
                assert_matches_forward_scan(&path, &log, round, &format!("tail {tail}"));
            }
        }
    }

    #[test]
    fn tail_truncation_keeps_a_malformed_line_before_the_cut() {
        let dir = tempdir("tail-malformed");
        let path = decision_log_path(&dir, 0);
        let malformed = "D 4 0 4 at=- by=- tru\n";
        let log: String = (1..=10)
            .map(|r| if r == 4 { malformed.to_string() } else { decision_line(r) })
            .collect();
        std::fs::write(&path, &log).unwrap();
        // The forward scan stopped at line 4 and deleted rounds 5..=8,
        // history no replay can regenerate; the tail scan keeps it.
        assert_eq!(forward_scan(log.as_bytes(), 8), (log.find("D 4 ").unwrap(), 3));
        assert_eq!(truncate_decision_log(&path, 8).unwrap(), 8);
        let kept = std::fs::read_to_string(&path).unwrap();
        assert!(kept.contains(malformed));
        assert!(kept.ends_with(&decision_line(8)));
        assert_eq!(kept.lines().count(), 8);
        // Nothing to cut: the log is left as it is.
        assert_eq!(truncate_decision_log(&path, 8).unwrap(), 8);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), kept);
    }

    #[test]
    fn tail_truncation_empties_a_log_with_no_line_at_or_before_the_round() {
        let dir = tempdir("tail-empty");
        let path = decision_log_path(&dir, 0);
        let (log, _) = crash_log(977, 2000, 30);
        assert!(log.len() > 3 * TAIL_WINDOW as usize);
        std::fs::write(&path, &log).unwrap();
        assert_eq!(truncate_decision_log(&path, 976).unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::write(&path, "garbage\nD 1 0 1 at=- by=- tru").unwrap();
        assert_eq!(truncate_decision_log(&path, 5).unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), b"");
    }
}
