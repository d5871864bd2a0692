//! `tibfit-perfbench` — the repository benchmark.
//!
//! ```text
//! tibfit-perfbench --workload <daemon-live|daemon-backfill> --seed <n>
//!     --seconds <s> --trace <0|1> --daemon-bin <path> --golden <dir>
//! ```
//!
//! A run is a sequence of rounds. Each round runs one slice of every
//! phase — a 65,536-node field run, a paper-figure sweep, a daemon
//! started on an empty state dir, the workload's traffic against the
//! live `tibfit-daemon serve --stdin` process, and a SIGKILL + restart
//! of that process — so a slow spell on a shared machine lands on a
//! few slices of every metric instead of on all of one. Each metric is
//! the median over its slices. The last stdout line is one JSON object:
//! with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer ledger. See `README.md`.

mod daemon;
mod ledger;
mod offline;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use daemon::{fresh_dir, report_sum, Daemon};
use ledger::{Layer, Ledger};
use offline::FieldRun;
use stats::{closed_loop_due, median, open_loop_latencies, summarize, window_percentiles, Summary};
use stream::{Stream, TENANTS};

/// Open-loop offered rate of `daemon-live`, ticks per second.
const LIVE_RATE: f64 = 1000.0;
/// Nominal seconds one round takes; `--seconds` sets the round count.
const SECONDS_PER_ROUND: f64 = 1.5;
/// Event rounds per field run.
const FIELD_ROUNDS: usize = 30;
/// Traced replays of the stream in a `--trace 1` run, and as many
/// untraced ones.
const LEDGER_REPLAYS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Live,
    Backfill,
}

impl Workload {
    /// Records per tenant per tick.
    fn per_tick(self) -> u32 {
        match self {
            Workload::Live => 1,
            Workload::Backfill => 64,
        }
    }

    /// Ticks per round sent open loop at [`LIVE_RATE`].
    fn open_ticks(self) -> usize {
        match self {
            Workload::Live => 500,
            Workload::Backfill => 0,
        }
    }

    /// Ticks per round sent closed loop.
    fn closed_ticks(self) -> usize {
        match self {
            Workload::Live => 1500,
            Workload::Backfill => 125,
        }
    }

    /// Ticks of one round's measured latency slice.
    fn latency_slice(self) -> usize {
        if self.open_ticks() > 0 {
            self.open_ticks()
        } else {
            self.closed_ticks()
        }
    }

    /// Ticks per window for the `p`th latency percentile: whole slices,
    /// as few as give at least [`stats::MIN_BEYOND`] samples beyond it.
    fn latency_window(self, p: f64) -> usize {
        let slice = self.latency_slice();
        let mut window = slice;
        while !stats::reportable(window * TENANTS, p) {
            window += slice;
        }
        window
    }

    /// Ticks written before a SIGKILL, drawn from `rng`.
    fn chunk(self, rng: &mut Rng) -> usize {
        let (min, span) = self.chunk_range();
        min + rng.below(span as u64) as usize
    }

    fn chunk_range(self) -> (usize, usize) {
        match self {
            Workload::Live => (40, 80),
            Workload::Backfill => (2, 8),
        }
    }

    /// Most ticks a round can send.
    fn stream_ticks(self) -> usize {
        let (min, span) = self.chunk_range();
        self.open_ticks() + self.closed_ticks() + min + span
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon_bin: PathBuf,
    golden: PathBuf,
}

impl Opts {
    /// Rounds per run: fixed by `--seconds` alone, never by this
    /// machine's speed, so every run and every commit does the same work.
    fn rounds(&self) -> usize {
        ((self.seconds / SECONDS_PER_ROUND).round() as usize).max(3)
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon_bin = None;
    let mut golden = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "daemon-live" => Workload::Live,
                    "daemon-backfill" => Workload::Backfill,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--daemon-bin" => daemon_bin = Some(PathBuf::from(value)),
            "--golden" => golden = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon_bin: daemon_bin.ok_or("--daemon-bin is required")?,
        golden: golden.ok_or("--golden is required")?,
    })
}

/// Operation accounting and the metrics of one run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    e2e: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
}

impl Run {
    fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{failed} of {attempted} failed: {what}"));
        }
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.to_string(), value, unit));
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.to_string(), value, unit));
    }
}

fn ms_of(a: Instant, b: Instant) -> f64 {
    a.saturating_duration_since(b).as_secs_f64() * 1e3
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// A small seeded generator for the benchmark's own choices (chunk
/// sizes before each SIGKILL).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn print_summary(name: &str, s: &Summary) {
    let top = s
        .top
        .map_or("none".to_string(), |(p, v)| format!("p{p}={v:.4}"));
    println!(
        "{name}: n={} p50={:.4} p99={} highest-reportable {top}",
        s.n,
        s.p50,
        s.p99
            .map_or("unreported".to_string(), |v| format!("{v:.4}"))
    );
}

/// Latency samples in ms, each keyed by its tick's ordinal among the
/// measured ticks.
#[derive(Default)]
struct Samples {
    key: Vec<usize>,
    decision: Vec<f64>,
    query: Vec<f64>,
}

/// Everything the rounds accumulate.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    restart_ms: Vec<f64>,
    latency: Samples,
    measured_ticks: usize,
    late_ms: Vec<f64>,
    ingest_rps: Vec<f64>,
    cpu_us_per_record: Vec<f64>,
    peak_rss_mb: f64,
    field: Vec<FieldRun>,
    sweeps: Vec<(f64, Vec<(f64, String)>)>,
    counters: std::collections::BTreeMap<&'static str, u64>,
}

/// Writes ticks `from..to` as fast as the daemon's backpressure lets the
/// pipe take them; returns each tick's send instant.
fn closed_loop_send(
    d: &mut Daemon,
    stream: &Stream,
    from: usize,
    to: usize,
) -> Result<Vec<Instant>, String> {
    let mut sent = Vec::with_capacity(to - from);
    for tick in &stream.ticks[from..to] {
        sent.push(Instant::now());
        d.send(tick).map_err(|e| format!("write failed: {e}"))?;
    }
    Ok(sent)
}

/// Per tenant, the arrival of the answer to each tick `from..to`
/// (`A round` = applied records, so tick `k` answers `(k + 1) × per_tick`).
fn round_arrivals(d: &Daemon, per_tick: u64, from: usize, to: usize) -> Vec<Vec<Option<Instant>>> {
    d.answers
        .rounds
        .iter()
        .map(|answers| {
            let mut out = vec![None; to - from];
            for &(round, at) in answers {
                if round == 0 || round % per_tick != 0 {
                    continue;
                }
                let k = (round / per_tick) as usize - 1;
                if (from..to).contains(&k) && out[k - from].is_none() {
                    out[k - from] = Some(at);
                }
            }
            out
        })
        .collect()
}

/// Appends the decision and query latencies of ticks `from..to` to
/// `acc.latency`; returns how many answers are missing. `due[i]` is
/// tick `from + i`'s scheduled instant (open loop) or send instant
/// (closed loop, where a tick is due no earlier than its predecessor's
/// answer). The daemon started fresh, so a tenant's `k`th `Q trust`
/// answer is tick `k`'s; it is due with its tick.
fn record_latencies(
    acc: &mut Acc,
    d: &Daemon,
    per_tick: u64,
    (from, to): (usize, usize),
    due: &[Instant],
    closed: bool,
) -> u64 {
    let origin = due[0];
    // Signed milliseconds since `origin`.
    let rel = |i: Instant| ms_of(i, origin) - ms_of(origin, i);
    let mut missing = 0u64;
    for (t, arrivals) in round_arrivals(d, per_tick, from, to).iter().enumerate() {
        let trusts = &d.answers.trusts[t];
        let (mut keys, mut due_ms, mut ans, mut q_ans) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, arrival) in arrivals.iter().enumerate() {
            match (arrival, trusts.get(from + i)) {
                (Some(a), Some(q)) => {
                    keys.push(acc.measured_ticks + i);
                    due_ms.push(rel(due[i]));
                    ans.push(rel(*a));
                    q_ans.push(rel(*q));
                }
                (Some(_), None) | (None, Some(_)) => missing += 1,
                (None, None) => missing += 2,
            }
        }
        if closed {
            due_ms = closed_loop_due(&due_ms, &ans);
        }
        acc.latency.key.extend(keys);
        acc.latency
            .decision
            .extend(open_loop_latencies(&due_ms, &ans));
        acc.latency
            .query
            .extend(open_loop_latencies(&due_ms, &q_ans));
    }
    acc.measured_ticks += to - from;
    missing
}

/// The ledger's decision logs, one per tenant, with the byte offset at
/// which each line ends.
struct Reference {
    logs: Vec<Vec<u8>>,
    line_ends: Vec<Vec<usize>>,
}

impl Reference {
    fn read(ledger: &Ledger) -> Result<Self, String> {
        let mut logs = Vec::new();
        let mut line_ends = Vec::new();
        for path in &ledger.logs {
            let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
            line_ends.push(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1)
                    .collect(),
            );
            logs.push(bytes);
        }
        Ok(Reference { logs, line_ends })
    }

    /// How many of a daemon's decision lines, which must cover the first
    /// `lines` records of every tenant, differ from the ledger's (0 when
    /// every log is byte-identical to the ledger's prefix).
    fn mismatches(&self, state_dir: &Path, lines: usize) -> Result<u64, String> {
        let mut bad = 0u64;
        for (t, (log, ends)) in self.logs.iter().zip(&self.line_ends).enumerate() {
            let path = tibfit_daemon::state::decision_log_path(&state_dir.join("decisions"), t);
            let ours = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let want = match lines.checked_sub(1) {
                None => &log[..0],
                Some(last) => {
                    &log[..*ends.get(last).ok_or("ledger log shorter than the stream")?]
                }
            };
            if ours != want {
                let a = String::from_utf8_lossy(&ours);
                let b = String::from_utf8_lossy(want);
                let differing = a.lines().zip(b.lines()).filter(|(x, y)| x != y).count();
                let extra = a.lines().count().abs_diff(b.lines().count());
                bad += (differing + extra).max(1) as u64;
            }
        }
        Ok(bad)
    }
}

/// One round of daemon traffic on a fresh state dir: spawn and probe
/// (a `setup_s` sample), the open-loop slice (live), the closed-loop
/// slice, a chunk written and SIGKILLed mid-flight, a restart on the
/// same state dir (a `restart_ms` sample), the re-send that catches the
/// new process up, and a drain. The decision logs must then equal the
/// ledger's. Returns the exit report.
fn daemon_round(
    opts: &Opts,
    stream: &Stream,
    reference: &Reference,
    dir: &Path,
    rng: &mut Rng,
    acc: &mut Acc,
    run: &mut Run,
) -> Result<Vec<String>, String> {
    let w = opts.workload;
    let per_tick = u64::from(stream.per_tick);
    let mut d = Daemon::spawn(&opts.daemon_bin, opts.seed, dir).map_err(|e| e.to_string())?;
    let (_, ready) = d.probe()?;
    acc.setup_s.push(ready);
    let cpu0 = d.cpu_seconds().ok_or("cannot read daemon CPU time")?;

    // Open loop at a fixed offered rate, timed from each tick's due time.
    let mut from = 0;
    if w.open_ticks() > 0 {
        let to = w.open_ticks();
        let period = Duration::from_secs_f64(1.0 / LIVE_RATE);
        let t0 = Instant::now() + Duration::from_millis(5);
        let due: Vec<Instant> = (0..to).map(|i| t0 + period * i as u32).collect();
        for (tick, &when) in stream.ticks[..to].iter().zip(&due) {
            let now = Instant::now();
            if now < when {
                std::thread::sleep(when - now);
            }
            acc.late_ms.push(ms_of(Instant::now(), when));
            d.send(tick).map_err(|e| format!("write failed: {e}"))?;
        }
        d.wait_answers(to as u64 * per_tick, to)?;
        let missing = record_latencies(acc, &d, per_tick, (0, to), &due, false);
        run.ops(2 * (to * TENANTS) as u64, missing, "open-loop answers");
        from = to;
    }

    // Closed loop: as fast as the daemon's backpressure admits.
    let to = from + w.closed_ticks();
    let sent = closed_loop_send(&mut d, stream, from, to)?;
    d.wait_answers(to as u64 * per_tick, to)?;
    let done = d
        .answers
        .rounds
        .iter()
        .filter_map(|r| r.last().map(|x| x.1))
        .max()
        .ok_or("no closed-loop answers")?;
    let records = stream.records_in(to) - stream.records_in(from);
    acc.ingest_rps
        .push(records as f64 / (ms_of(done, sent[0]) / 1e3));
    if w.open_ticks() == 0 {
        let missing = record_latencies(acc, &d, per_tick, (from, to), &sent, true);
        run.ops(
            2 * ((to - from) * TENANTS) as u64,
            missing,
            "closed-loop answers",
        );
    }
    let cpu1 = d.cpu_seconds().ok_or("cannot read daemon CPU time")?;
    acc.cpu_us_per_record
        .push((cpu1 - cpu0) * 1e6 / stream.records_in(to) as f64);
    acc.peak_rss_mb = acc
        .peak_rss_mb
        .max(d.peak_rss_mb().ok_or("cannot read daemon RSS")?);

    // SIGKILL mid-chunk, restart on the same state dir, catch up, drain.
    let end = to + w.chunk(rng);
    for tick in &stream.ticks[to..end] {
        d.send(tick).map_err(|e| format!("write failed: {e}"))?;
    }
    d.kill().map_err(|e| e.to_string())?;
    let mut d = Daemon::spawn(&opts.daemon_bin, opts.seed, dir).map_err(|e| e.to_string())?;
    let (rounds, ready) = d.probe()?;
    acc.restart_ms.push(ready * 1e3);
    let resume = (rounds.iter().copied().min().unwrap_or(0) / per_tick) as usize;
    if resume > end {
        return Err(format!(
            "restart resumed at tick {resume}, past the {end} ticks sent"
        ));
    }
    closed_loop_send(&mut d, stream, resume, end)?;
    let report = d.finish()?;
    let lines = end * stream.per_tick as usize;
    let bad = reference.mismatches(dir, lines)?;
    run.ops(
        stream.records_in(end),
        bad,
        "decision log lines differing from the ledger",
    );
    Ok(report)
}

/// Runs every round. Each round runs one field run, one figure sweep
/// and one daemon round, in that order.
fn run_rounds(
    opts: &Opts,
    work: &Path,
    stream: &Stream,
    reference: &Reference,
    acc: &mut Acc,
    run: &mut Run,
) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rng = Rng(opts.seed ^ 0xC0DE);
    for round in 0..opts.rounds() {
        match offline::field_once(opts.seed, FIELD_ROUNDS, threads) {
            Ok(r) => {
                run.ops(FIELD_ROUNDS as u64, 0, "");
                acc.field.push(r);
            }
            Err(e) => run.ops(
                FIELD_ROUNDS as u64,
                FIELD_ROUNDS as u64,
                &format!("field: {e}"),
            ),
        }
        let t = Instant::now();
        let sweep = offline::sweep_once(opts.seed);
        acc.sweeps.push((t.elapsed().as_secs_f64(), sweep));
        let dir = fresh_dir(work, &format!("daemon{round}")).map_err(|e| e.to_string())?;
        let report = daemon_round(opts, stream, reference, &dir, &mut rng, acc, run)?;
        // Deleting the logs also drops their unflushed pages, so later
        // rounds do not pay for this one's writeback.
        let _ = std::fs::remove_dir_all(&dir);
        let rejected = report
            .iter()
            .find_map(|l| l.strip_prefix("daemon.ingest.rejected "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or("exit report lacks daemon.ingest.rejected")?;
        run.ops(0, rejected, "daemon rejected lines");
        for key in COUNTERS.iter().map(|c| c.0) {
            let v = report_sum(&report, key).ok_or(format!("exit report lacks {key}"))?;
            *acc.counters.entry(key).or_insert(0) += v;
        }
    }
    let shed = acc.counters.get("shed").copied().unwrap_or(0);
    run.ops(0, shed, "daemon shed records");
    Ok(())
}

/// Exit-report counters summed over every round, and their per-layer
/// names.
const COUNTERS: [(&str, &str); 5] = [
    ("admitted", "queue.admitted"),
    ("shed", "queue.shed"),
    ("duplicates", "queue.duplicates"),
    ("backpressure.waits", "queue.backpressure_waits"),
    ("restarts", "supervisor.restarts"),
];

fn daemon_metrics(opts: &Opts, acc: &Acc, run: &mut Run) -> Result<(), String> {
    let label = if opts.workload.open_ticks() > 0 {
        "open loop"
    } else {
        "closed loop"
    };
    for (name, values) in [
        ("decision", &acc.latency.decision),
        ("query", &acc.latency.query),
    ] {
        let whole = summarize(values).ok_or(format!("no {name} samples"))?;
        print_summary(&format!("{name}_ms ({label}, all rounds)"), &whole);
        // Each percentile per window of consecutive measured ticks (one
        // round's slice), then the median window: a stall moves one
        // window's figure, not the run's.
        let at = |p: f64| -> Result<f64, String> {
            let window = opts.workload.latency_window(p);
            let windows = window_percentiles(&acc.latency.key, values, window, p);
            println!(
                "{name}_ms p{p} per {window}-tick window: {:?}",
                windows
                    .iter()
                    .map(|v| (v * 1e3).round() / 1e3)
                    .collect::<Vec<_>>()
            );
            median(&windows).ok_or(format!("too few {name} samples for a p{p}"))
        };
        let (p90, p99) = (at(90.0)?, at(99.0)?);
        run.layer(&format!("{name}_p50_ms"), whole.p50, "ms");
        run.layer(&format!("{name}_p90_ms"), p90, "ms");
        run.layer(&format!("{name}_p99_ms"), p99, "ms");
    }
    println!(
        "ingest_rps per round: {:?}",
        acc.ingest_rps.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    println!("setup_s samples: {:?}", acc.setup_s);
    println!("restart_ms samples: {:?}", acc.restart_ms);
    println!(
        "daemon_cpu_us_per_record per round: {:?}",
        acc.cpu_us_per_record
    );
    run.layer("ingest_rps", med(&acc.ingest_rps), "1/s");
    run.e2e(
        "daemon_cpu_us_per_record",
        med(&acc.cpu_us_per_record),
        "us",
    );
    run.e2e("peak_rss_mb", acc.peak_rss_mb, "MB");
    run.e2e("setup_s", med(&acc.setup_s), "s");
    run.e2e("restart_ms", med(&acc.restart_ms), "ms");
    let late = summarize(&acc.late_ms);
    if let Some(late) = &late {
        print_summary("load.late_ms", late);
    }
    run.layer(
        "load.late_p99_ms",
        late.and_then(|l| l.p99).unwrap_or(0.0),
        "ms",
    );
    Ok(())
}

fn offline_metrics(opts: &Opts, acc: &Acc, run: &mut Run) -> Result<(), String> {
    let runs = &acc.field;
    if runs.is_empty() {
        return Err("every field run failed".into());
    }
    let m = |f: &dyn Fn(&FieldRun) -> f64| med(&runs.iter().map(f).collect::<Vec<_>>());
    for r in runs {
        println!(
            "field: {} rounds: seq {:.1} ms, sharded {:.1} ms, build {:.1} ms",
            r.rounds,
            r.seq_ns / 1e6,
            r.par_ns / 1e6,
            r.build_ns / 1e6
        );
    }
    run.e2e(
        "field_rounds_per_s",
        m(&|r| r.rounds as f64 / (r.par_ns / 1e9)),
        "1/s",
    );
    run.e2e(
        "field_seq_rounds_per_s",
        m(&|r| r.rounds as f64 / (r.seq_ns / 1e9)),
        "1/s",
    );
    run.layer("field.build_ms", m(&|r| r.build_ns / 1e6), "ms");
    run.layer(
        "engine.field_round_ns",
        m(&|r| r.seq_ns / r.rounds as f64),
        "ns/round",
    );
    run.layer(
        "shard.stage_ms",
        m(&|r| r.phases.stage_ns as f64 / 1e6),
        "ms",
    );
    run.layer(
        "shard.parallel_ms",
        m(&|r| r.phases.parallel_ns as f64 / 1e6),
        "ms",
    );
    run.layer("shard.busy_ms", m(&|r| r.phases.busy_ns as f64 / 1e6), "ms");
    run.layer(
        "shard.route_ms",
        m(&|r| r.phases.route_ns as f64 / 1e6),
        "ms",
    );
    run.layer(
        "shard.barrier_wait_ms",
        m(&|r| r.phases.barrier_wait_ns() as f64 / 1e6),
        "ms",
    );
    run.layer("shard.epochs", m(&|r| r.phases.epochs as f64), "count");
    run.layer(
        "shard.busy_frac",
        m(&|r| {
            r.phases.busy_ns as f64 / (r.phases.parallel_ns * r.phases.participants).max(1) as f64
        }),
        "fraction",
    );
    run.layer("shard.speedup", m(&|r| r.seq_ns / r.par_ns), "x");
    run.layer(
        "shard.threads",
        std::thread::available_parallelism().map_or(1, usize::from) as f64,
        "count",
    );

    // The figure CSVs: equal to results/golden at the golden seed, and
    // identical across every sweep of the run at any seed.
    let first = &acc.sweeps[0].1;
    let mut bad = 0u64;
    if opts.seed == offline::GOLDEN_SEED {
        let diff = offline::golden_mismatches(first, &opts.golden);
        if !diff.is_empty() {
            run.notes
                .push(format!("figures differ from results/golden: {diff:?}"));
        }
        bad += diff.len() as u64;
    }
    for (_, sweep) in &acc.sweeps[1..] {
        bad += sweep.iter().zip(first).filter(|(a, b)| a.1 != b.1).count() as u64;
    }
    run.ops(
        (acc.sweeps.len() * offline::FIGURES.len()) as u64,
        bad,
        "figure CSVs",
    );
    run.e2e(
        "sweep_s",
        med(&acc.sweeps.iter().map(|s| s.0).collect::<Vec<_>>()),
        "s",
    );
    for (i, (id, _)) in offline::FIGURES.iter().enumerate() {
        let ms: Vec<f64> = acc.sweeps.iter().map(|s| s.1[i].0 / 1e6).collect();
        run.layer(&format!("figure.{id}_ms"), med(&ms), "ms");
    }
    Ok(())
}

fn ledger_layers(run: &mut Run, traced: &Ledger, untraced: &Ledger) {
    let per = |ns: u64| ns as f64 / traced.records.max(1) as f64;
    run.layer("wire.parse_ns", per(traced.ns(Layer::Parse)), "ns/record");
    run.layer("queue.offer_ns", per(traced.ns(Layer::Offer)), "ns/record");
    run.layer("queue.admit_ns", per(traced.ns(Layer::Admit)), "ns/record");
    run.layer(
        "queue.handoff_ns",
        per(traced.ns(Layer::Handoff)),
        "ns/record",
    );
    run.layer("tenant.apply_ns", per(traced.ns(Layer::Apply)), "ns/record");
    run.layer("engine.round_ns", per(traced.ns(Layer::Round)), "ns/record");
    run.layer(
        "tenant.overhead_ns",
        per(traced.ns(Layer::Apply)) - per(traced.ns(Layer::Round)),
        "ns/record",
    );
    run.layer("tenant.query_ns", per(traced.ns(Layer::Query)), "ns/record");
    run.layer("log.flush_ns", per(traced.ns(Layer::LogFlush)), "ns/record");
    run.layer(
        "state.encode_ns",
        per(traced.ns(Layer::Encode)),
        "ns/record",
    );
    run.layer("state.write_ns", per(traced.ns(Layer::Write)), "ns/record");
    run.layer("state.bytes", traced.state_bytes as f64, "bytes");
    run.layer(
        "state.snapshots",
        traced.snapshots as f64 / traced.records.max(1) as f64,
        "1/record",
    );
    run.layer("state.restore_ns", med(&traced.restore_ns), "ns");
    run.layer("state.truncate_ns", med(&traced.truncate_ns), "ns");
    run.layer(
        "trust.exp_evals_per_round",
        traced.exp_evals_per_round,
        "count",
    );
    run.layer("ledger.records", traced.records as f64, "count");
    run.layer("ledger.coverage", traced.coverage(), "fraction");
    run.layer(
        "ledger.overhead_frac",
        traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64 - 1.0,
        "fraction",
    );
    run.layer(
        "ledger.untraced_ns",
        untraced.wall_ns as f64 / untraced.records.max(1) as f64,
        "ns/record",
    );
}

fn run_workload(opts: &Opts, work: &Path) -> Result<Run, String> {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    // Start from clean page-cache state: a previous run's unflushed
    // decision logs must not be written back during this run's timing.
    let _ = std::process::Command::new("sync").status();
    let mut run = Run::default();
    let w = opts.workload;
    let stream = Stream::generate(opts.seed, w.stream_ticks() as u64, w.per_tick());

    // The ledger replays the whole stream first; every daemon round's
    // logs, after its kill and restart, must equal a prefix of its logs.
    let ticks = stream.ticks.len();
    let gate = ledger::replay(&stream, ticks, opts.seed, &work.join("ledger"), false)?;
    if let Some(m) = &gate.mismatch {
        run.ops(0, 1, m);
    }
    let reference = Reference::read(&gate)?;

    let mut acc = Acc::default();
    run_rounds(opts, work, &stream, &reference, &mut acc, &mut run)?;
    daemon_metrics(opts, &acc, &mut run)?;
    offline_metrics(opts, &acc, &mut run)?;

    if opts.trace {
        // Traced and untraced replays alternate, so a slow spell on the
        // machine weighs on both sides of `ledger.overhead_frac` alike.
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        for i in 0..LEDGER_REPLAYS {
            let dir = work.join(format!("ledger{i}"));
            untraced.push(ledger::replay(&stream, ticks, opts.seed, &dir, false)?);
            let l = ledger::replay(&stream, ticks, opts.seed, &dir, true)?;
            let bad = Reference::read(&l)?.logs != reference.logs;
            run.ops(
                0,
                u64::from(bad),
                "traced ledger logs differ from the untraced ledger's",
            );
            if let Some(m) = &l.mismatch {
                run.ops(0, 1, m);
            }
            traced.push(l);
        }
        ledger_layers(&mut run, &Ledger::sum(&traced), &Ledger::sum(&untraced));
        for (key, name) in COUNTERS {
            let v = acc.counters.get(key).copied().unwrap_or(0);
            run.layer(name, v as f64, "count");
        }
    }
    Ok(run)
}

fn json_metrics(metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tibfit-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.daemon_bin.is_file() {
        eprintln!(
            "tibfit-perfbench: no daemon binary at {}",
            opts.daemon_bin.display()
        );
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".bench_work");
    let result = run_workload(&opts, &work);
    // Deleting the logs also drops their unflushed pages, so the next
    // run does not pay for this one's writeback.
    let _ = std::fs::remove_dir_all(&work);
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tibfit-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &run.notes {
        println!("FAILED: {note}");
    }
    let metrics = if opts.trace { &run.layers } else { &run.e2e };
    for (name, value, unit) in metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
