//! Driving the release `tibfit-daemon serve --stdin` process: spawn,
//! feed frames, timestamp every answer line, read its CPU and memory
//! from `/proc`, kill or drain it.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stream::{probe_text, TENANTS};

/// How long any single wait on the daemon may take before the run is
/// declared failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

enum Line {
    Round {
        tenant: usize,
        round: u64,
        at: Instant,
    },
    Trust {
        tenant: usize,
        at: Instant,
    },
    Other(String),
}

fn parse(line: &str, at: Instant) -> Line {
    let mut it = line.split_ascii_whitespace();
    match (it.next(), it.next()) {
        (Some("A"), Some("round")) => {
            let tenant = it.next().and_then(|t| t.parse().ok());
            let round = it.next().and_then(|r| r.parse().ok());
            if let (Some(tenant), Some(round)) = (tenant, round) {
                return Line::Round { tenant, round, at };
            }
        }
        (Some("A"), Some("trust")) => {
            if let Some(tenant) = it.next().and_then(|t| t.parse().ok()) {
                return Line::Trust { tenant, at };
            }
        }
        _ => {}
    }
    Line::Other(line.to_string())
}

/// Every answer a daemon has printed so far, timestamped on arrival.
pub struct Answers {
    /// Per tenant, `(round, arrival)` of each `A round` line in order.
    pub rounds: Vec<Vec<(u64, Instant)>>,
    /// Per tenant, arrival of each `A trust` line in order.
    pub trusts: Vec<Vec<Instant>>,
    /// Every other stdout line (the exit report).
    pub other: Vec<String>,
}

impl Answers {
    fn new() -> Self {
        Answers {
            rounds: vec![Vec::new(); TENANTS],
            trusts: vec![Vec::new(); TENANTS],
            other: Vec::new(),
        }
    }

    /// Whether every tenant has answered a `Q round` with a round of at
    /// least `round`, and `trusts` `Q trust` queries.
    fn reached(&self, round: u64, trusts: usize) -> bool {
        self.rounds
            .iter()
            .all(|r| r.last().is_some_and(|&(got, _)| got >= round))
            && self.trusts.iter().all(|q| q.len() >= trusts)
    }
}

/// A running daemon process.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<Line>,
    reader: Option<JoinHandle<()>>,
    /// When the process was spawned.
    pub spawned: Instant,
    /// Answers received so far.
    pub answers: Answers,
}

impl Daemon {
    /// Starts `tibfit-daemon serve --stdin` for the standard two mobile
    /// tenants under `seed`, with state and decision logs in `state_dir`.
    ///
    /// # Errors
    ///
    /// Spawn failure.
    pub fn spawn(bin: &Path, seed: u64, state_dir: &Path) -> io::Result<Self> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--stdin")
            .args(["--tenants", &TENANTS.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            let mut buf = String::new();
            loop {
                buf.clear();
                match lines.read_line(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = Instant::now();
                        if tx.send(parse(buf.trim_end(), at)).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Daemon {
            child,
            stdin,
            rx,
            reader: Some(reader),
            spawned,
            answers: Answers::new(),
        })
    }

    /// Writes frames to the daemon's stdin (blocks while the pipe is
    /// full: the daemon's backpressure).
    ///
    /// # Errors
    ///
    /// The pipe closed.
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "stdin already closed"))?;
        stdin.write_all(text.as_bytes())
    }

    fn absorb(&mut self, line: Line) {
        match line {
            Line::Round { tenant, round, at } if tenant < TENANTS => {
                self.answers.rounds[tenant].push((round, at));
            }
            Line::Trust { tenant, at } if tenant < TENANTS => self.answers.trusts[tenant].push(at),
            Line::Round { .. } | Line::Trust { .. } => {
                self.answers
                    .other
                    .push("unexpected tenant in answer".into());
            }
            Line::Other(s) => self.answers.other.push(s),
        }
    }

    /// Takes in every answer already received, without waiting.
    pub fn drain(&mut self) {
        while let Ok(line) = self.rx.try_recv() {
            self.absorb(line);
        }
    }

    /// Waits until every tenant has answered a `Q round` with at least
    /// `round` and `trusts` `Q trust` queries in all.
    ///
    /// # Errors
    ///
    /// The daemon exited or fell silent for [`ANSWER_TIMEOUT`].
    pub fn wait_answers(&mut self, round: u64, trusts: usize) -> Result<(), String> {
        loop {
            self.drain();
            if self.answers.reached(round, trusts) {
                return Ok(());
            }
            match self.rx.recv_timeout(ANSWER_TIMEOUT) {
                Ok(line) => self.absorb(line),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "no answer reaching round {round} within the timeout"
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("daemon exited before answering round {round}"))
                }
            }
        }
    }

    /// Sends the readiness probe and waits for its answers; returns the
    /// round each tenant reports and the seconds since spawn.
    ///
    /// # Errors
    ///
    /// As [`Daemon::wait_answers`], or a closed pipe.
    pub fn probe(&mut self) -> Result<(Vec<u64>, f64), String> {
        let before: Vec<usize> = self.answers.rounds.iter().map(Vec::len).collect();
        self.send(&probe_text())
            .map_err(|e| format!("probe write failed: {e}"))?;
        loop {
            self.drain();
            if self
                .answers
                .rounds
                .iter()
                .zip(&before)
                .all(|(r, &n)| r.len() > n)
            {
                break;
            }
            match self.rx.recv_timeout(ANSWER_TIMEOUT) {
                Ok(line) => self.absorb(line),
                Err(_) => return Err("daemon did not answer its readiness probe".into()),
            }
        }
        let mut rounds = Vec::with_capacity(TENANTS);
        let mut ready = self.spawned;
        for (r, &n) in self.answers.rounds.iter().zip(&before) {
            let (round, at) = r[n];
            rounds.push(round);
            ready = ready.max(at);
        }
        Ok((rounds, (ready - self.spawned).as_secs_f64()))
    }

    /// CPU seconds the process's threads have run, summed from each
    /// thread's `/proc/<pid>/task/<tid>/schedstat` (nanosecond
    /// resolution). A thread that has exited no longer counts; the
    /// daemon's router, watchdog and tenant workers live as long as it.
    #[must_use]
    pub fn cpu_seconds(&self) -> Option<f64> {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", self.child.id())).ok()?;
        let mut ns = 0u64;
        for task in tasks {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            ns += stat.split_ascii_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(ns as f64 / 1e9)
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    fn reap(&mut self) -> io::Result<std::process::ExitStatus> {
        let status = self.child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        self.drain();
        Ok(status)
    }

    /// SIGKILLs the process and waits until it and the reader have ended.
    ///
    /// # Errors
    ///
    /// Waiting on the process failed.
    pub fn kill(mut self) -> io::Result<()> {
        self.stdin = None;
        let _ = self.child.kill();
        self.reap().map(|_| ())
    }

    /// Closes stdin (end of stream), waits for the drain and exit, and
    /// returns every non-answer line: the exit counter report.
    ///
    /// # Errors
    ///
    /// The process failed or exited non-zero.
    pub fn finish(mut self) -> Result<Vec<String>, String> {
        self.stdin = None;
        let status = self
            .reap()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(std::mem::take(&mut self.answers.other))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.stdin = None;
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// Sums `daemon.t<N>.<suffix>` counters over every tenant of an exit
/// report.
#[must_use]
pub fn report_sum(report: &[String], suffix: &str) -> Option<u64> {
    let mut total = None;
    for line in report {
        let mut it = line.split_ascii_whitespace();
        let (Some(key), Some(value)) = (it.next(), it.next()) else {
            continue;
        };
        let Some(rest) = key.strip_prefix("daemon.t") else {
            continue;
        };
        let Some((tenant, name)) = rest.split_once('.') else {
            continue;
        };
        if tenant.parse::<usize>().is_ok() && name == suffix {
            *total.get_or_insert(0) += value.parse::<u64>().ok()?;
        }
    }
    total
}

/// A fresh, empty directory under `root`.
///
/// # Errors
///
/// Filesystem failure.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_report_counters_sum_over_tenants() {
        let report: Vec<String> = [
            "daemon.ticks 12",
            "daemon.t0.admitted 5",
            "daemon.t0.shed 1",
            "daemon.t0.shed.quarantine 7",
            "daemon.t1.admitted 6",
            "daemon.exit eof",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        assert_eq!(report_sum(&report, "admitted"), Some(11));
        assert_eq!(report_sum(&report, "shed"), Some(1));
        assert_eq!(report_sum(&report, "restarts"), None);
    }

    #[test]
    fn answer_lines_parse() {
        let now = Instant::now();
        assert!(matches!(
            parse("A round 1 42", now),
            Line::Round {
                tenant: 1,
                round: 42,
                ..
            }
        ));
        assert!(matches!(
            parse("A trust 0 7 0.93", now),
            Line::Trust { tenant: 0, .. }
        ));
        assert!(matches!(parse("daemon.exit eof", now), Line::Other(_)));
    }
}
