//! Load generation: open-loop readers, closed-loop writers, and the
//! summary statistics both report.

use crate::gen::{Expect, IngestDoc, ReadReq, PAGE_LIMIT};
use crate::http;
use crate::proc::{INGEST_TIMEOUT, REQUEST_TIMEOUT};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Latency limit of the sustainable-rate search, on the step's p99.
pub const LIMIT_P99_MS: f64 = 25.0;
const LIMIT_FAILED_SHARE: f64 = 0.001;
/// A step whose generator still runs this late when it ends has a growing
/// backlog, whatever its percentiles say.
const LIMIT_END_LATE_MS: f64 = 100.0;
/// A generator this late cannot catch up inside a step: abort the step.
const ABORT_LATE: Duration = Duration::from_secs(1);
/// One read in this many is parsed as JSON and its rows counted; the rest
/// are checked by status and `total`.
const FULL_PARSE_EVERY: usize = 16;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How many documents may have been ingested when a read is answered.
#[derive(Clone, Copy)]
pub struct Posted {
    pub min: u64,
    pub max: u64,
}

impl Posted {
    pub fn exactly(n: u64) -> Posted {
        Posted { min: n, max: n }
    }
}

/// The `"total": N` field every list response ends with.
fn total_of(body: &str) -> Option<u64> {
    let at = body.rfind("\"total\":")?;
    let digits: String = body[at + 8..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn check_read(
    resp: &http::Response,
    req: &ReadReq,
    posted: Posted,
    full: bool,
) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("{} answered {}", req.path, resp.status));
    }
    let total = total_of(&resp.body).ok_or_else(|| format!("{} has no total", req.path))?;
    let (lo, hi, offset) = match req.expect {
        Expect::Page { offset, base_total } => (
            base_total + 2 * posted.min,
            base_total + 2 * posted.max,
            offset,
        ),
        Expect::Name { total } => (total, total, 0),
        Expect::Marginals { max_total } => (1, max_total + posted.max, 0),
    };
    if total < lo || total > hi {
        return Err(format!("{} total {total}, expected {lo}..={hi}", req.path));
    }
    if full {
        let json = serde_json::from_str(&resp.body).map_err(|e| format!("{}: {e}", req.path))?;
        let rows = json["rows"].as_array().map_or(0, Vec::len) as u64;
        let want = total.saturating_sub(offset).min(PAGE_LIMIT);
        if rows != want {
            return Err(format!("{} holds {rows} rows, expected {want}", req.path));
        }
    }
    Ok(())
}

/// Requests per window of the tail percentile (see [`ReadStats::p99`]).
const P99_WINDOW: usize = 500;

#[derive(Default)]
pub struct ReadStats {
    pub rate: u64,
    /// (due time in the step, due time to last response byte) per answered
    /// request.
    pub answered: Vec<(u64, f64)>,
    /// Due time to actual send, per attempted request.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Worst lateness over the last tenth of each thread's schedule.
    pub end_late_ms: f64,
    pub aborted: bool,
    pub first_error: Option<String>,
}

impl ReadStats {
    pub fn samples(&self) -> usize {
        self.answered.len()
    }

    pub fn p50(&self) -> f64 {
        percentile(&sorted(self.answered.iter().map(|a| a.1).collect()), 0.5)
    }

    /// The tail, made robust to the sandbox's stalls. The host freezes for
    /// 100 ms to 1 s about once a minute; at 100 req/s one freeze puts 1 %
    /// or more of a whole step over any limit, and the step's p99 then
    /// measures the host. So the requests are cut, in due order, into
    /// windows of 500 (5 samples beyond each p99) and the best window's p99
    /// stands: interference only ever adds latency, and a freeze spoils one
    /// window, two if it straddles them. What the server itself does to
    /// every request — or in every window, like its 5 s flusher beside a
    /// 5 s window — is in every window's p99 and stays in this one.
    pub fn p99(&self) -> f64 {
        let mut by_due = self.answered.clone();
        by_due.sort_by_key(|a| a.0);
        let windows = (by_due.len() / P99_WINDOW).max(1);
        (0..windows)
            .map(|w| {
                let window = &by_due[w * by_due.len() / windows..(w + 1) * by_due.len() / windows];
                percentile(&sorted(window.iter().map(|a| a.1).collect()), 0.99)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether the server kept up with this rate: the latency limit holds,
    /// (almost) nothing failed, and the generator was not falling behind.
    pub fn sustained(&self) -> bool {
        !self.aborted
            && !self.answered.is_empty()
            && self.p99() <= LIMIT_P99_MS
            && self.failed as f64 <= LIMIT_FAILED_SHARE * self.attempted as f64
            && self.end_late_ms <= LIMIT_END_LATE_MS
    }

    fn absorb(&mut self, other: ReadStats) {
        self.answered.extend(other.answered);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.end_late_ms = self.end_late_ms.max(other.end_late_ms);
        self.aborted |= other.aborted;
        self.first_error = self.first_error.take().or(other.first_error);
    }
}

/// One generator thread: send each request when it is due, one connection
/// in flight, and time it from its due time — so a stall charges every
/// request it delays, not just the one that hit it.
fn read_thread(addr: SocketAddr, reqs: &[ReadReq], start: Instant, posted: Posted) -> ReadStats {
    let mut out = ReadStats::default();
    let tail_from = reqs.len() - reqs.len() / 10 - 1;
    for (i, req) in reqs.iter().enumerate() {
        let due = start + Duration::from_micros(req.due_us);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().saturating_duration_since(due);
        if late > ABORT_LATE {
            out.aborted = true;
            break;
        }
        out.attempted += 1;
        out.late_ms.push(ms(late));
        if i >= tail_from {
            out.end_late_ms = out.end_late_ms.max(ms(late));
        }
        let checked = http::get(addr, &req.path, REQUEST_TIMEOUT)
            .and_then(|resp| check_read(&resp, req, posted, i % FULL_PARSE_EVERY == 0));
        match checked {
            Ok(()) => out.answered.push((req.due_us, ms(due.elapsed()))),
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert(e);
            }
        }
    }
    out
}

fn read_step_once(
    addr: SocketAddr,
    rate: u64,
    schedule: &[Vec<ReadReq>],
    posted: Posted,
) -> ReadStats {
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = ReadStats {
        rate,
        ..ReadStats::default()
    };
    std::thread::scope(|scope| {
        let threads: Vec<_> = schedule
            .iter()
            .filter(|reqs| !reqs.is_empty())
            .map(|reqs| scope.spawn(move || read_thread(addr, reqs, start, posted)))
            .collect();
        for t in threads {
            total.absorb(t.join().expect("reader thread does not panic"));
        }
    });
    total
}

/// Run one open-loop step: one thread per schedule, all from one start. A
/// step aborted for lateness is run once more — a freeze of over a second
/// is the host's far more often than the server's, and a server that
/// cannot hold the rate aborts again. Requests and failures of both
/// attempts are counted.
pub fn read_step(
    addr: SocketAddr,
    rate: u64,
    schedule: &[Vec<ReadReq>],
    posted: Posted,
) -> ReadStats {
    let first = read_step_once(addr, rate, schedule, posted);
    if !first.aborted {
        return first;
    }
    let mut second = read_step_once(addr, rate, schedule, posted);
    second.attempted += first.attempted;
    second.failed += first.failed;
    second.first_error = first.first_error.or(second.first_error.take());
    second
}

#[derive(Default)]
pub struct WriteStats {
    /// Send to 200, per acknowledged document.
    pub ack_ms: Vec<f64>,
    /// First names of the acknowledged documents.
    pub acked: Vec<String>,
    /// Longest per-client sum of ack latencies: the phase's wall with the
    /// read-your-write probes taken out.
    pub busy: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl WriteStats {
    pub fn docs_per_s(&self) -> f64 {
        self.ack_ms.len() as f64 / self.busy.as_secs_f64()
    }

    pub fn absorb(&mut self, other: WriteStats) {
        self.ack_ms.extend(other.ack_ms);
        self.acked.extend(other.acked);
        self.busy = self.busy.max(other.busy);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
    }
}

/// One closed-loop client: post the next document when the last is
/// acknowledged, until the documents or the time run out. With `probe`,
/// each ack is followed by a read that must find the new sentence.
pub fn write_client(
    addr: SocketAddr,
    docs: impl Iterator<Item = IngestDoc>,
    probe: bool,
    until: Option<Instant>,
) -> WriteStats {
    let mut out = WriteStats::default();
    for doc in docs {
        if until.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        out.attempted += 1;
        let sent = Instant::now();
        let acked = http::post(addr, "/documents", &doc.body, INGEST_TIMEOUT).and_then(|resp| {
            if resp.status == 200 && resp.body.contains("\"inserted\": 5") {
                Ok(())
            } else {
                Err(format!(
                    "POST /documents answered {}: {}",
                    resp.status,
                    resp.body.trim()
                ))
            }
        });
        let took = sent.elapsed();
        if let Err(e) = acked {
            out.failed += 1;
            out.first_error.get_or_insert(e);
            continue;
        }
        out.ack_ms.push(ms(took));
        out.busy += took;
        if probe {
            out.attempted += 1;
            let found = http::get(
                addr,
                &crate::gen::mtext_path(&doc.names[0]),
                REQUEST_TIMEOUT,
            )
            .map(|resp| resp.status == 200 && total_of(&resp.body) == Some(1));
            if found != Ok(true) {
                out.failed += 1;
                out.first_error.get_or_insert(format!(
                    "acked document {} not readable: {found:?}",
                    doc.names[0]
                ));
            }
        }
        let [first, _] = doc.names;
        out.acked.push(first);
    }
    out
}
