//! WAL-shipping replication: a primary streams its write-ahead log over
//! `GET /wal`; a follower tails it, persists every record to its own WAL,
//! and replays each through the same DRed/IVM path a live ingest takes.
//!
//! The protocol is deliberately minimal, built on the crate's hand-rolled
//! HTTP/1.1 stack (no new dependencies):
//!
//! * **Handshake.** The follower requests
//!   `GET /wal?from=<seq>&stream=<hex id>`; `from` is its own WAL's
//!   `next_seq` — the first record it does *not* hold durably — and
//!   `stream` is the stream id it adopted (0 = fresh, never adopted). The
//!   primary answers 200 with `X-DD-Stream` (its stream id), `X-DD-From`
//!   (echo), and `X-DD-End` (its current head seq — the follower's first
//!   lag watermark); or **409** when histories diverge (stream id
//!   mismatch, or the follower claims seqs the primary never wrote); or
//!   **410** when the requested seq was compacted away (the follower must
//!   be re-seeded from a fresh checkpoint); or **404** when the primary
//!   has no WAL at all.
//! * **Stream.** The body is `Transfer-Encoding: chunked` and never ends
//!   while both sides are healthy: WAL frames are shipped verbatim
//!   (version byte + length + checksum + payload, exactly the on-disk
//!   bytes), and single `0x00` heartbeat bytes are interleaved when idle
//!   so the follower can distinguish "no news" from "dead primary".
//!   Chunk boundaries carry no meaning — the follower reassembles frames
//!   with [`crate::wal::frame::FrameDecoder`], which re-verifies every
//!   checksum on arrival.
//! * **Resume.** Any cut — mid-chunk, mid-frame, mid-byte — is survivable:
//!   the follower appends a record to its own WAL (fsync) *before*
//!   applying it, so its `next_seq` is always the exact durable resume
//!   point. Reconnects back off exponentially with jitter.
//! * **Divergence is fatal, lag is not.** A 409 (or a record that fails to
//!   apply locally) marks the follower diverged: it keeps serving reads
//!   but fails `/readyz` and the CLI exits with a dedicated code. Lag
//!   beyond `--max-lag-epochs` only fails `/readyz` until the follower
//!   catches back up.

use crate::http::Response;
use crate::ingest::{Origin, Rejected};
use crate::server::{Lifecycle, ServeState};
use crate::wal::frame::{self, FrameDecoder, FrameError};
use deepdive_core::checkpoint::fnv1a64;
use deepdive_core::faults::points;
use parking_lot::Mutex;
use serde_json::{json, Value as Json};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the primary interleaves a heartbeat byte on an idle stream.
const HEARTBEAT_EVERY: Duration = Duration::from_secs(1);
/// How often the streamer polls the WAL for new frames.
const STREAM_POLL: Duration = Duration::from_millis(25);
/// The follower's socket read timeout; three missed heartbeats means the
/// primary is gone and the follower reconnects.
const FOLLOWER_READ_TIMEOUT: Duration = Duration::from_secs(3);
/// Reconnect backoff bounds (exponential, full jitter on top).
const BACKOFF_FLOOR: Duration = Duration::from_millis(200);
const BACKOFF_CEIL: Duration = Duration::from_secs(5);

/// Replication books, shared by `/metrics`, `/readyz`, and the report.
/// All lock-free except the fatal-error slot.
#[derive(Debug, Default)]
pub struct ReplicationStats {
    /// Follower: currently connected to the primary's stream.
    pub connected: AtomicBool,
    /// Follower: completed at least one handshake (lag is meaningful).
    pub handshook: AtomicBool,
    /// Follower: refused a divergent history (409, or a shipped record the
    /// local state could not apply). Permanent until re-seeded.
    pub diverged: AtomicBool,
    /// Follower: reconnect attempts after the first connection.
    pub reconnects: AtomicU64,
    /// Follower: records applied through DRed/IVM this run.
    pub records_applied: AtomicU64,
    /// Seq one past the last record applied to served state.
    pub applied_seq: AtomicU64,
    /// Highest primary head seq observed (handshake + shipped frames).
    pub watermark_seq: AtomicU64,
    /// Primary: `GET /wal` streams accepted.
    pub streams_served: AtomicU64,
    /// Primary: frames shipped across all streams.
    pub frames_shipped: AtomicU64,
    /// Follower: checkpoint resyncs completed after a 410 (compacted
    /// history) or a scrub-detected corruption repaired from the primary.
    pub resyncs: AtomicU64,
    /// Set when replication cannot continue (divergence, compacted
    /// history, future record version). The CLI exits nonzero on this.
    fatal: Mutex<Option<String>>,
}

impl ReplicationStats {
    /// Epochs the follower trails its latest knowledge of the primary.
    pub fn lag_epochs(&self) -> u64 {
        self.watermark_seq
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_seq.load(Ordering::SeqCst))
    }

    /// The unrecoverable-error message, when replication has failed.
    pub fn fatal_error(&self) -> Option<String> {
        self.fatal.lock().clone()
    }

    pub fn set_fatal(&self, diverged: bool, message: String) {
        if diverged {
            self.diverged.store(true, Ordering::SeqCst);
        }
        let mut slot = self.fatal.lock();
        if slot.is_none() {
            *slot = Some(message);
        }
    }

    /// Raise the primary-head watermark (it never moves backwards).
    pub fn observe_watermark(&self, seq: u64) {
        self.watermark_seq.fetch_max(seq, Ordering::SeqCst);
    }

    pub fn to_json(&self, follower: bool) -> Json {
        json!({
            "role": if follower { "follower" } else { "primary" },
            "lag_epochs": self.lag_epochs(),
            "wal_offset": self.applied_seq.load(Ordering::SeqCst),
            "watermark_seq": self.watermark_seq.load(Ordering::SeqCst),
            "reconnects": self.reconnects.load(Ordering::SeqCst),
            "records_applied": self.records_applied.load(Ordering::SeqCst),
            "connected": self.connected.load(Ordering::SeqCst),
            "handshook": self.handshook.load(Ordering::SeqCst),
            "diverged": self.diverged.load(Ordering::SeqCst),
            "streams_served": self.streams_served.load(Ordering::SeqCst),
            "frames_shipped": self.frames_shipped.load(Ordering::SeqCst),
            "resyncs": self.resyncs.load(Ordering::SeqCst),
            "fatal": self.fatal_error(),
        })
    }
}

/// xorshift64* seeded from the OS (via `RandomState`'s per-instance key) —
/// jitter-quality randomness without an RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn seeded() -> XorShift {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        let mut h = RandomState::new().build_hasher();
        h.write_u64(std::process::id() as u64);
        XorShift(h.finish() | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

thread_local! {
    static JITTER_RNG: std::cell::RefCell<XorShift> = std::cell::RefCell::new(XorShift::seeded());
}

/// `Retry-After` seconds with small random jitter: uniform in
/// `[base, 2·base]` so a fleet of shed clients (or reconnecting followers)
/// does not retry in lockstep and re-create the spike that shed them.
pub fn jittered_retry_secs(base: u64) -> u64 {
    let base = base.max(1);
    base + JITTER_RNG.with(|rng| rng.borrow_mut().next()) % (base + 1)
}

fn jitter_duration(rng: &mut XorShift, upto: Duration) -> Duration {
    let millis = upto.as_millis().max(1) as u64;
    Duration::from_millis(rng.next() % millis)
}

// ---------------------------------------------------------------------------
// Primary side: `GET /wal` streaming.
// ---------------------------------------------------------------------------

pub(crate) fn write_chunk(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    write!(w, "{:x}\r\n", bytes.len())?;
    w.write_all(bytes)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Serve one follower's tail of the WAL. Writes the entire response
/// (headers + chunked body) itself; returns whether the exchange was
/// healthy (for the endpoint's error book).
///
/// The WAL mutex is held only to batch-read frames — never across a socket
/// write — so a slow follower cannot block ingest.
pub(crate) fn serve_wal_stream(
    req: &crate::http::Request,
    sock: &mut TcpStream,
    state: &ServeState,
) -> bool {
    let Some(wal) = &state.wal else {
        let _ = Response::error(
            404,
            "replication requires a WAL; start this node with --wal-dir",
        )
        .write_to(sock);
        return false;
    };
    let from = match req.query_param("from").map(str::parse::<u64>) {
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            let _ = Response::error(400, "from: not an integer").write_to(sock);
            return false;
        }
        None => {
            let _ = Response::error(400, "missing required query param `from`").write_to(sock);
            return false;
        }
    };
    let peer_stream = match req.query_param("stream") {
        None => 0,
        Some(raw) => match u64::from_str_radix(raw, 16) {
            Ok(v) => v,
            Err(_) => {
                let _ = Response::error(400, "stream: not a hex id").write_to(sock);
                return false;
            }
        },
    };
    let peer_term = match req.query_param("term") {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                let _ = Response::error(400, "term: not an integer").write_to(sock);
                return false;
            }
        },
    };

    let (stream_id, base_seq, head) = {
        let w = wal.lock();
        (w.stream_id(), w.base_seq(), w.next_seq())
    };
    let term = state.term();
    if peer_term > term {
        // Fencing: the peer has seen a later election than we have. We are
        // a stale primary — stop taking writes immediately and tell the
        // peer; serving it frames from a dead term would split the brain.
        state.fence(peer_term);
        let _ = Response::error(
            409,
            &format!(
                "stale term: this node is at term {term} but the peer has \
                 seen term {peer_term}; this node is fenced"
            ),
        )
        .with_header("X-DD-Term", peer_term.to_string())
        .write_to(sock);
        return false;
    }
    if peer_stream != 0 && peer_stream != stream_id {
        let _ = Response::error(
            409,
            &format!(
                "divergent histories: this primary's stream is {stream_id:016x}, \
                 the follower adopted {peer_stream:016x}; re-seed the follower"
            ),
        )
        .write_to(sock);
        return false;
    }
    if from > head {
        let _ = Response::error(
            409,
            &format!(
                "divergent histories: follower resumes at seq {from} but this \
                 primary's head is {head}; the follower holds records this \
                 primary never wrote"
            ),
        )
        .write_to(sock);
        return false;
    }
    if from < base_seq {
        let _ = Response::error(
            410,
            &format!(
                "seq {from} was compacted away (oldest retained is {base_seq}); \
                 re-seed the follower from a fresh primary checkpoint"
            ),
        )
        .write_to(sock);
        return false;
    }

    let stats = state.replication();
    stats.streams_served.fetch_add(1, Ordering::SeqCst);
    let head_line = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\
         X-DD-Stream: {stream_id:016x}\r\nX-DD-From: {from}\r\nX-DD-End: {head}\r\n\
         X-DD-Term: {term}\r\n\r\n"
    );
    if sock.write_all(head_line.as_bytes()).is_err() {
        return false;
    }

    let window = state.stream_window;
    let mut pos = from;
    let mut last_send = Instant::now();
    loop {
        if state.stop_requested()
            || state.lifecycle() == Lifecycle::Draining
            || state.fenced.lock().is_some()
        {
            // Clean end-of-stream: the follower reconnects (with backoff)
            // and finds the restarted primary, or its successor. A fenced
            // node must stop shipping frames from its dead term.
            let _ = sock.write_all(b"0\r\n\r\n");
            return true;
        }
        let batch = { wal.lock().read_frames(pos, window) };
        match batch {
            Ok((bytes, end)) if !bytes.is_empty() => {
                if state.faults.trips(points::REPL_STREAM_CUT) {
                    // Ship a torn prefix of the batch and hang up: the
                    // follower's decoder must refuse the partial frame and
                    // resume from its durable offset.
                    let half = (bytes.len() / 2).max(1);
                    let _ = write_chunk(sock, &bytes[..half]);
                    return false;
                }
                if write_chunk(sock, &bytes).is_err() {
                    return true; // peer hung up; normal
                }
                stats.frames_shipped.fetch_add(end - pos, Ordering::SeqCst);
                pos = end;
                last_send = Instant::now();
            }
            Ok(_) => {
                if last_send.elapsed() >= HEARTBEAT_EVERY {
                    if write_chunk(sock, &[frame::HEARTBEAT]).is_err() {
                        return true;
                    }
                    last_send = Instant::now();
                }
                std::thread::sleep(STREAM_POLL);
            }
            Err(_) => {
                // The window compacted out from under a too-slow follower;
                // end the stream — its reconnect will be told 410.
                let _ = sock.write_all(b"0\r\n\r\n");
                return true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Follower side: the tailer thread.
// ---------------------------------------------------------------------------

enum TailError {
    /// Reconnect with backoff (network trouble, primary restarting,
    /// corrupt frame on the wire).
    Transient(String),
    /// The primary compacted history below our resume point (410): fetch
    /// its latest checkpoint over `GET /checkpoint` and resume tailing
    /// from the checkpoint's seq instead of dying.
    Resync(String),
    /// Stop replicating (divergence, future versions). The bool marks
    /// true divergence for the stats flag.
    Fatal(bool, String),
}

/// The follower's tail loop: connect → handshake → decode/apply until the
/// stream breaks → back off with jitter → reconnect from the durable
/// offset. Runs until shutdown or a fatal replication error.
pub(crate) fn run_follower(state: Arc<ServeState>, primary: String) {
    let mut rng = XorShift::seeded();
    let mut backoff = BACKOFF_FLOOR;
    let mut first_attempt = true;
    let stats = state.replication();
    while !state.stop_requested() {
        if state.lifecycle() == Lifecycle::Replaying {
            // Local WAL replay must finish (and set the durable offset)
            // before new records are applied on top.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        if state.replication_paused() {
            // Promotion in flight (or completed): idle without touching
            // the stream. The pause is cleared if promotion aborts.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        if !first_attempt {
            stats.reconnects.fetch_add(1, Ordering::SeqCst);
        }
        first_attempt = false;
        let outcome = tail_once(&state, &primary);
        stats.connected.store(false, Ordering::SeqCst);
        match outcome {
            Ok(()) => {
                // Clean end of stream (primary drained). Reset backoff —
                // its successor should be picked up promptly.
                backoff = BACKOFF_FLOOR;
            }
            Err(TailError::Resync(message)) => {
                eprintln!("deepdive serve: {message}; resyncing from the primary's checkpoint");
                match state.resync_from_primary(&primary) {
                    Ok(seq) => {
                        stats.resyncs.fetch_add(1, Ordering::SeqCst);
                        eprintln!(
                            "deepdive serve: resync complete; resuming the tail at seq {seq}"
                        );
                        backoff = BACKOFF_FLOOR;
                        continue; // reconnect immediately from the new offset
                    }
                    Err(e) => {
                        eprintln!(
                            "deepdive serve: checkpoint resync failed ({e}); \
                             retrying with backoff"
                        );
                    }
                }
            }
            Err(TailError::Fatal(diverged, message)) => {
                eprintln!("deepdive serve: replication failed permanently: {message}");
                stats.set_fatal(diverged, message);
                break;
            }
            Err(TailError::Transient(message)) => {
                if !state.stop_requested() {
                    eprintln!(
                        "deepdive serve: replication stream lost ({message}); \
                         reconnecting in ~{}ms",
                        backoff.as_millis()
                    );
                }
            }
        }
        sleep_interruptible(&state, backoff + jitter_duration(&mut rng, backoff));
        backoff = (backoff * 2).min(BACKOFF_CEIL);
    }
    stats.connected.store(false, Ordering::SeqCst);
}

fn sleep_interruptible(state: &ServeState, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !state.stop_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn transient(e: impl std::fmt::Display) -> TailError {
    TailError::Transient(e.to_string())
}

/// One connection's worth of tailing. `Ok(())` = the primary ended the
/// stream cleanly (drain); errors say whether to reconnect or give up.
fn tail_once(state: &ServeState, primary: &str) -> Result<(), TailError> {
    let wal = state
        .wal
        .as_ref()
        .expect("follower mode requires a WAL (checked at construction)");
    let (my_stream, from, my_term) = {
        let w = wal.lock();
        (w.stream_id(), w.next_seq(), w.term())
    };
    let stats = state.replication();

    let addr = primary
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string();
    let mut sock = TcpStream::connect(&addr).map_err(transient)?;
    sock.set_read_timeout(Some(FOLLOWER_READ_TIMEOUT))
        .map_err(transient)?;
    sock.set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(transient)?;
    let request = format!(
        "GET /wal?from={from}&stream={my_stream:016x}&term={my_term} HTTP/1.1\r\n\
         Host: {addr}\r\nConnection: close\r\n\r\n"
    );
    sock.write_all(request.as_bytes()).map_err(transient)?;

    let mut reader = BufReader::new(sock);
    let (status, headers) = read_response_head(&mut reader).map_err(transient)?;
    match status {
        200 => {}
        409 => {
            let body = response_error_body(&mut reader, &headers);
            if body.contains("stale term") {
                // Not divergence: we fenced a deposed primary that is
                // still answering on the old address. Keep retrying —
                // the operator (or failover tooling) will repoint us.
                return Err(TailError::Transient(format!(
                    "peer is a fenced, stale-term primary (409): {body}"
                )));
            }
            return Err(TailError::Fatal(
                true,
                format!("primary refused our history as divergent (409): {body}"),
            ));
        }
        410 => {
            return Err(TailError::Resync(format!(
                "primary compacted history below seq {from} (410): {}",
                response_error_body(&mut reader, &headers)
            )))
        }
        404 => {
            return Err(TailError::Fatal(
                false,
                "primary has no WAL (it must serve with --wal-dir to be followed)".into(),
            ))
        }
        503 => return Err(TailError::Transient("primary not ready (503)".into())),
        other => return Err(TailError::Transient(format!("primary answered {other}"))),
    }

    let primary_stream = headers
        .iter()
        .find(|(k, _)| k == "x-dd-stream")
        .and_then(|(_, v)| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| transient("handshake missing X-DD-Stream"))?;
    let head = headers
        .iter()
        .find(|(k, _)| k == "x-dd-end")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .ok_or_else(|| transient("handshake missing X-DD-End"))?;
    // Term fencing, follower side: adopt a newer term (a promotion
    // happened upstream); refuse frames from an older one (we already
    // follow a newer primary than this peer ever was).
    let primary_term = headers
        .iter()
        .find(|(k, _)| k == "x-dd-term")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .unwrap_or(0);
    if primary_term < my_term {
        return Err(TailError::Transient(format!(
            "peer serves term {primary_term} but we have seen term {my_term}; \
             refusing frames from a stale term"
        )));
    }
    if primary_term > my_term {
        state.adopt_term(primary_term).map_err(transient)?;
    }

    if my_stream == 0 {
        let mut w = wal.lock();
        // Re-check under the lock (we dropped it since the snapshot).
        if w.stream_id() == 0 {
            w.adopt_stream(primary_stream, from).map_err(transient)?;
        } else if w.stream_id() != primary_stream {
            return Err(TailError::Fatal(
                true,
                format!(
                    "adopted stream {:016x} but the primary serves {primary_stream:016x}",
                    w.stream_id()
                ),
            ));
        }
    } else if my_stream != primary_stream {
        return Err(TailError::Fatal(
            true,
            format!(
                "divergent histories: we adopted stream {my_stream:016x}, \
                 the primary serves {primary_stream:016x}"
            ),
        ));
    }
    stats.observe_watermark(head);
    stats.handshook.store(true, Ordering::SeqCst);
    stats.connected.store(true, Ordering::SeqCst);

    // Decode the endless chunked body. Chunk boundaries are arbitrary;
    // the FrameDecoder reassembles and re-verifies each frame. Each chunk
    // is fully decoded before anything is applied, and the watermark is
    // raised over the whole decoded batch first — so fetched-but-unapplied
    // records are visible as lag while the apply loop works through them.
    let mut decoder = FrameDecoder::new();
    let mut fetched = from;
    loop {
        if state.stop_requested() || state.replication_paused() {
            return Ok(());
        }
        match read_chunk(&mut reader) {
            Ok(None) => return Ok(()), // clean end: primary drained
            Ok(Some(data)) => {
                decoder.feed(&data);
                let mut batch = Vec::new();
                let mut failure = None;
                loop {
                    match decoder.next() {
                        Ok(Some(payload)) => batch.push(payload),
                        Ok(None) => break,
                        Err(FrameError::Corrupt(why)) => {
                            // Never apply from a stream that lied once;
                            // everything durable is still intact, so
                            // reconnect resumes exactly after the last
                            // good record.
                            failure = Some(TailError::Transient(format!(
                                "corrupt frame on the wire ({why}); dropping the \
                                 connection and resuming from the durable offset"
                            )));
                            break;
                        }
                        Err(e @ FrameError::FutureVersion(_)) => {
                            failure = Some(TailError::Fatal(false, e.to_string()));
                            break;
                        }
                    }
                }
                fetched += batch.len() as u64;
                stats.observe_watermark(fetched);
                // The records before the bad frame passed their checksums;
                // apply them so the reconnect resumes past them.
                for payload in &batch {
                    apply_one(state, payload)?;
                }
                if let Some(failure) = failure {
                    return Err(failure);
                }
            }
            Err(e) => return Err(transient(format!("stream cut: {e}"))),
        }
    }
}

/// Durably append one replicated record and apply it, through the same
/// commit path a live `POST /documents` takes — which is what makes a
/// caught-up follower's marginals bit-identical to the primary's. A record
/// that cannot apply is divergence (the primary applied it; a follower that
/// cannot is no longer a replica); an append failure is a local-disk
/// transient, and the resume offset never moves over an un-fsync'd record.
fn apply_one(state: &ServeState, payload: &[u8]) -> Result<(), TailError> {
    if state.faults.trips(points::REPL_APPLY_STALL) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut commit = state.apply_records(&[payload], Origin::New);
    match commit
        .outcomes
        .pop()
        .expect("one record in, one outcome out")
    {
        Ok(_) => {
            state
                .replication()
                .records_applied
                .fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        Err(Rejected::Wal(e)) => Err(transient(format!(
            "could not persist replicated record: {e}"
        ))),
        Err(why) => Err(TailError::Fatal(
            true,
            format!("replicated record failed to apply locally: {why}"),
        )),
    }
}

/// Parse an HTTP/1.1 response head: status line + headers (names
/// lower-cased) up to the blank line.
fn read_response_head(r: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let status_line = read_crlf_line(r)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(r)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        if headers.len() > 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many response headers",
            ));
        }
    }
    Ok((status, headers))
}

/// Best-effort read of an error response's JSON body (Content-Length
/// framed) for a useful fatal message.
fn response_error_body(r: &mut impl BufRead, headers: &[(String, String)]) -> String {
    let len = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0)
        .min(16 * 1024);
    let mut body = vec![0u8; len];
    if r.read_exact(&mut body).is_err() {
        return "<unreadable body>".into();
    }
    let text = String::from_utf8_lossy(&body).into_owned();
    match serde_json::from_str(&text) {
        Ok(v) => v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("<no error field>")
            .to_string(),
        Err(_) => text,
    }
}

fn read_crlf_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-line",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Read one transfer-encoding chunk. `Ok(None)` is the zero-length
/// terminator (clean end of stream).
fn read_chunk(r: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let size_line = read_crlf_line(r)?;
    let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad chunk size line: {size_line:?}"),
        )
    })?;
    if size == 0 {
        // Trailing CRLF after the last-chunk marker (best effort — the
        // peer may just close).
        let mut crlf = [0u8; 2];
        let _ = r.read_exact(&mut crlf);
        return Ok(None);
    }
    if size > 64 * 1024 * 1024 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunk over the 64 MiB cap",
        ));
    }
    let mut data = vec![0u8; size];
    r.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    r.read_exact(&mut crlf)?;
    Ok(Some(data))
}

// ---------------------------------------------------------------------------
// Checkpoint resync + control-plane HTTP helpers.
// ---------------------------------------------------------------------------

fn connect_peer(peer: &str, read_timeout: Duration) -> io::Result<(String, TcpStream)> {
    let addr = peer
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string();
    let sock = TcpStream::connect(&addr)?;
    sock.set_read_timeout(Some(read_timeout))?;
    sock.set_write_timeout(Some(Duration::from_secs(5)))?;
    Ok((addr, sock))
}

fn header_value<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Fetch the primary's current checkpoint bundle (`GET /checkpoint`) and
/// install it into `dest`, hash-verifying every file and writing each via
/// tmp + fsync + rename so a cut mid-transfer never leaves a torn
/// artifact. Returns the number of files installed.
///
/// The bundle is a sequence of text frames over a Content-Length body:
///
/// ```text
/// FILE <name> <len> <fnv1a64-hex>\n<len raw bytes>\n
/// ...
/// END\n
/// ```
pub(crate) fn fetch_checkpoint_bundle(primary: &str, dest: &std::path::Path) -> io::Result<usize> {
    let (addr, mut sock) = connect_peer(primary, Duration::from_secs(30))?;
    let request = format!("GET /checkpoint HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    sock.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(sock);
    let (status, headers) = read_response_head(&mut reader)?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "primary answered {status} to GET /checkpoint: {}",
            response_error_body(&mut reader, &headers)
        )));
    }

    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let mut installed = 0usize;
    loop {
        let line = read_crlf_line(&mut reader)?;
        if line == "END" {
            break;
        }
        let mut parts = line.split_whitespace();
        let (tag, name, len, hash) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        if tag != "FILE" {
            return Err(bad(format!("bad bundle frame header: {line:?}")));
        }
        if name.is_empty()
            || name.contains('/')
            || name.contains('\\')
            || name.contains("..")
            || name.starts_with('.')
        {
            return Err(bad(format!("unsafe bundle file name: {name:?}")));
        }
        let len: usize = len
            .parse()
            .map_err(|_| bad(format!("bad bundle length in {line:?}")))?;
        if len > 256 * 1024 * 1024 {
            return Err(bad(format!("bundle file {name} over the 256 MiB cap")));
        }
        let want = u64::from_str_radix(hash, 16)
            .map_err(|_| bad(format!("bad bundle hash in {line:?}")))?;
        let mut content = vec![0u8; len];
        reader.read_exact(&mut content)?;
        let mut nl = [0u8; 1];
        reader.read_exact(&mut nl)?;
        if nl[0] != b'\n' {
            return Err(bad(format!("bundle frame for {name} missing terminator")));
        }
        let got = fnv1a64(&content);
        if got != want {
            return Err(bad(format!(
                "bundle file {name} failed its hash check \
                 (got {got:016x}, want {want:016x})"
            )));
        }
        let tmp = dest.join(format!(".resync-{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&content)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, dest.join(name))?;
        installed += 1;
    }
    if let Ok(dir) = std::fs::File::open(dest) {
        let _ = dir.sync_all();
    }
    Ok(installed)
}

/// Minimal one-shot HTTP request returning `(status, parsed JSON body)`.
/// Used by the promote CLI, the scrubber's cross-node fingerprint check,
/// and the failover tests — all against this crate's own server.
pub fn http_request_json(method: &str, peer: &str, path: &str) -> io::Result<(u16, Json)> {
    let (addr, mut sock) = connect_peer(peer, Duration::from_secs(30))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: 0\r\n\r\n"
    );
    sock.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(sock);
    let (status, headers) = read_response_head(&mut reader)?;
    let body = match header_value(&headers, "content-length").and_then(|v| v.parse::<usize>().ok())
    {
        Some(len) => {
            let mut buf = vec![0u8; len.min(16 * 1024 * 1024)];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    let text = String::from_utf8_lossy(&body);
    Ok((status, serde_json::from_str(&text).unwrap_or(Json::Null)))
}

/// Ask the node at `peer` to promote itself to primary (`POST /promote`).
/// Returns the HTTP status and response body; 200 with `"promoted": true`
/// means the node now serves writes under a new term.
pub fn promote(peer: &str, force: bool) -> io::Result<(u16, Json)> {
    let path = if force {
        "/promote?force=1"
    } else {
        "/promote"
    };
    http_request_json("POST", peer, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jittered_retry_stays_in_range() {
        for _ in 0..100 {
            let v = jittered_retry_secs(1);
            assert!((1..=2).contains(&v), "{v}");
            let v = jittered_retry_secs(4);
            assert!((4..=8).contains(&v), "{v}");
        }
        // Jitter actually varies (not a constant offset).
        let draws: std::collections::HashSet<u64> =
            (0..64).map(|_| jittered_retry_secs(8)).collect();
        assert!(draws.len() > 1, "jitter must vary across draws");
    }

    #[test]
    fn chunk_reader_round_trips() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"5\r\nhello\r\n");
        wire.extend_from_slice(b"1\r\n\x00\r\n");
        wire.extend_from_slice(b"0\r\n\r\n");
        let mut r = std::io::BufReader::new(&wire[..]);
        assert_eq!(read_chunk(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_chunk(&mut r).unwrap().unwrap(), vec![0u8]);
        assert!(read_chunk(&mut r).unwrap().is_none());
    }

    #[test]
    fn response_head_parses_status_and_headers() {
        let raw = b"HTTP/1.1 409 Conflict\r\nContent-Type: application/json\r\n\
                    X-DD-Stream: 00000000deadbeef\r\n\r\n";
        let mut r = std::io::BufReader::new(&raw[..]);
        let (status, headers) = read_response_head(&mut r).unwrap();
        assert_eq!(status, 409);
        assert_eq!(
            headers
                .iter()
                .find(|(k, _)| k == "x-dd-stream")
                .map(|(_, v)| v.as_str()),
            Some("00000000deadbeef")
        );
    }
}
