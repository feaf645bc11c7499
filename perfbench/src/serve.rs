//! `serve`: open-loop `Validate` traffic to an in-process daemon
//! (`Daemon::spawn` over `PipeListener` duplex pipes, `workers = nproc`,
//! at most `nproc` client connections driven from one generator thread).
//!
//! The request mix is seeded over all 86 plans with fixed shares of
//! admits, rejects (NULL, wild and undersized pointers) and unchecked
//! pass-throughs, in frames of [`BATCH`] requests. Every reply is
//! decoded and compared with the verdict the generator expects.
//!
//! Two phases share the run's seconds:
//!
//! * saturation — closed-loop bursts, one frame in flight per
//!   connection, alternating `Validate` frames with same-size `Ping`
//!   frames (capacity and checking cost over the transport);
//! * ladder — open loop at each rate of [`LADDER`], every frame timed
//!   from when it was due to be sent.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use healers_ballista::NEVER_CRASHING;
use healers_core::checker::CheckCounters;
use healers_libc::{Libc, World};
use healers_serve::frame::{
    encode_frame, read_frame, Frame, FrameError, DIR_REQUEST, DIR_RESPONSE, HEADER_LEN,
};
use healers_serve::plans::{SCRATCH_BUF_LEN, SCRATCH_TEXT};
use healers_serve::{
    duplex, Daemon, DaemonConfig, DuplexStream, Limits, PlanConfig, Request, Response, ServePlans,
    ValidateVerdict,
};
use healers_simproc::SimValue;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{alloc, host, Budget, Metric, Outcome};

/// Requests per frame.
const BATCH: usize = 32;
/// Distinct frames the generator cycles through.
const POOL: usize = 256;
/// Open-loop request rates (requests/s), lowest first; `p50_us` and
/// `p99_us` are read at the middle one.
const LADDER: [f64; 5] = [25_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0];
/// The p99 latency a ladder rate must meet (µs from the due time).
const P99_LIMIT_US: f64 = 5_000.0;
/// Frames each connection sends per saturation burst.
const BURST_ROUNDS: usize = 200;
/// How long a rate waits for outstanding replies after its last send;
/// a frame not answered by then counts as failed.
const DRAIN: Duration = Duration::from_millis(500);
/// How long the late replies of a rate's failed frames may take to
/// arrive before the run fails: the daemon answers every frame while it
/// sheds nothing, and the next rate must start with none outstanding.
const SETTLE: Duration = Duration::from_secs(30);
/// Pipe capacity per direction (bytes): a whole rate's frames fit.
const PIPE_CAPACITY: usize = 4 << 20;
/// A pointer no page of the canonical world maps.
const WILD: u32 = 0xdead_0000;

/// The verdict the generator expects for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    Admit,
    Unchecked,
    Reject { arg: u16, check: String },
}

/// The shares of the mix, in percent: admits, NULL rejects, wild
/// rejects, undersized rejects, unchecked pass-throughs.
const SHARES: [u32; 5] = [50, 10, 10, 10, 20];

/// One pre-encoded request frame plus its expected verdicts.
struct PoolFrame {
    bytes: Vec<u8>,
    expect: Vec<Expect>,
}

/// What the generator knows about one function's plan.
struct FnShape {
    name: String,
    /// Active check notation per argument (`-` = unchecked).
    checks: Vec<String>,
}

/// Addresses in the canonical world the generator points arguments at.
#[derive(Clone, Copy)]
struct Targets {
    /// NUL-terminated scratch string.
    text: u32,
    /// Writable scratch buffer.
    buf: u32,
    /// An open stream (`stdout`'s FILE object).
    stream: u32,
}

/// A valid value for an argument with check `check`, or `None` when
/// the canonical world holds nothing that satisfies it.
fn satisfying(check: &str, at: Targets) -> Option<SimValue> {
    let base = check.split('[').next().unwrap_or(check);
    let size = check
        .split_once('[')
        .and_then(|(_, rest)| rest.trim_end_matches(']').parse::<u32>().ok());
    let text_len = SCRATCH_TEXT.len() as u32;
    match (base, size) {
        ("-", _) => Some(SimValue::Int(0)),
        ("INT_NONNEG" | "INT_POS", None) => Some(SimValue::Int(1)),
        ("INT_ZERO" | "INT_NONPOS", None) => Some(SimValue::Int(0)),
        ("INT_NEG", None) => Some(SimValue::Int(-1)),
        ("NTS" | "NTS_NULL" | "NTS_RW_ANY", None) => Some(SimValue::Ptr(at.text)),
        // A suffix of the scratch string short enough for the bound.
        ("NTS_MAX", Some(n)) => Some(SimValue::Ptr(at.text + text_len - n.min(text_len))),
        ("OPEN_FILE" | "OPEN_FILE_NULL", None) => Some(SimValue::Ptr(at.stream)),
        _ if array_size(check).is_some_and(|n| n <= SCRATCH_BUF_LEN) => Some(SimValue::Ptr(at.buf)),
        _ => None,
    }
}

/// An array claim's size, when the notation is one.
fn array_size(check: &str) -> Option<u32> {
    let (base, rest) = check.split_once('[')?;
    matches!(
        base,
        "R_ARRAY" | "W_ARRAY" | "RW_ARRAY" | "R_ARRAY_NULL" | "W_ARRAY_NULL" | "RW_ARRAY_NULL"
    )
    .then(|| rest.trim_end_matches(']').parse().ok())
    .flatten()
}

fn is_pointer_check(check: &str) -> bool {
    check.starts_with("NTS") || check.starts_with("OPEN_FILE") || array_size(check).is_some()
}

/// First address past `addr` that the canonical world does not map.
fn mapped_end(world: &World, addr: u32) -> u32 {
    let mut end = addr;
    while world.proc.mem.is_mapped(end) {
        end = (end | 0xfff) + 1;
    }
    end
}

/// The seeded request pool.
struct Mix {
    frames: Vec<PoolFrame>,
    ping: Vec<u8>,
    /// `(function, args, expected)` of every pooled request.
    requests: Vec<(String, Vec<SimValue>, Expect)>,
    functions_covered: usize,
    /// Functions (with their checks) no request exercises.
    uncovered: Vec<String>,
}

fn generate(plans: &ServePlans, seed: u64, tracer: Option<&Tracer>) -> Result<Mix, String> {
    let (s, b) = (plans.scratch_str(), plans.scratch_buf());
    let mut canonical = World::new();
    if (
        canonical.alloc_cstr(SCRATCH_TEXT),
        canonical.alloc_buf(SCRATCH_BUF_LEN),
    ) != (s, b)
    {
        return Err("the canonical serve world moved its scratch objects".to_string());
    }
    let end = mapped_end(&canonical, b);
    let at = Targets {
        text: s,
        buf: b,
        stream: canonical.stdout_file,
    };

    let shapes: Vec<FnShape> = plans
        .functions()
        .iter()
        .filter_map(|f| {
            let (_, args) = plans.explain(f)?;
            Some(FnShape {
                name: f.clone(),
                checks: args.into_iter().map(|a| a.check).collect(),
            })
        })
        .collect();
    // Per class, every (function, args, expected) the world can express.
    let mut classes: [Vec<(usize, Vec<SimValue>, Expect)>; 5] = Default::default();
    for (i, shape) in shapes.iter().enumerate() {
        let valid: Vec<Option<SimValue>> = shape.checks.iter().map(|c| satisfying(c, at)).collect();
        // The paper's nine never-crashing functions are declared safe:
        // the daemon passes them through without a plan.
        if NEVER_CRASHING.contains(&shape.name.as_str()) {
            classes[4].push((
                i,
                vec![SimValue::Int(0); shape.checks.len()],
                Expect::Unchecked,
            ));
            continue;
        }
        if valid.iter().all(Option::is_some) {
            let args = valid.iter().map(|v| v.expect("all valid")).collect();
            classes[0].push((i, args, Expect::Admit));
        }
        // Rejects break argument j; every checked argument before it
        // must be satisfiable (claims are checked in argument order).
        for (j, check) in shape.checks.iter().enumerate() {
            if check != "-" && !is_pointer_check(check) {
                break;
            }
            if is_pointer_check(check) {
                let base: Vec<SimValue> = valid
                    .iter()
                    .map(|v| v.unwrap_or(SimValue::Int(0)))
                    .collect();
                let expect = Expect::Reject {
                    arg: j as u16,
                    check: check.clone(),
                };
                let with = |bad: SimValue| {
                    let mut args = base.clone();
                    args[j] = bad;
                    args
                };
                if !check.contains("_NULL") {
                    classes[1].push((i, with(SimValue::NULL), expect.clone()));
                }
                classes[2].push((i, with(SimValue::Ptr(WILD)), expect.clone()));
                if let Some(n) = array_size(check).filter(|&n| n >= 2) {
                    classes[3].push((i, with(SimValue::Ptr(end - (n - 1))), expect));
                }
            }
            if valid[j].is_none() {
                break;
            }
        }
    }
    if let Some(empty) = classes.iter().position(Vec::is_empty) {
        return Err(format!(
            "request class {empty} has no function the world can express"
        ));
    }
    let mut covered = vec![false; shapes.len()];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e12_7e00);
    let mut requests = Vec::with_capacity(POOL * BATCH);
    let mut frames = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let mut messages = Vec::with_capacity(BATCH);
        let mut expect = Vec::with_capacity(BATCH);
        let mut picked = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let mut roll = rng.random_range(0..100u32);
            let class = SHARES
                .iter()
                .position(|&share| {
                    let hit = roll < share;
                    roll = roll.saturating_sub(share);
                    hit
                })
                .expect("shares sum to 100");
            let (f, args, e) = &classes[class][rng.random_range(0..classes[class].len())];
            covered[*f] = true;
            picked.push((shapes[*f].name.clone(), args.clone(), e.clone()));
        }
        let start = tracer.map(Tracer::now);
        for (function, args, e) in &picked {
            let mut buf = Vec::new();
            Request::Validate {
                function: function.clone(),
                args: args.clone(),
            }
            .encode(&mut buf);
            messages.push(buf);
            expect.push(e.clone());
        }
        let bytes = encode_frame(DIR_REQUEST, &messages);
        if let (Some(t), Some(start)) = (tracer, start) {
            t.record("frame.encode", start, t.now(), None, frames.len() as u64);
        }
        requests.extend(picked);
        frames.push(PoolFrame { bytes, expect });
    }
    let mut ping = Vec::new();
    Request::Ping.encode(&mut ping);
    let ping = encode_frame(DIR_REQUEST, &vec![ping; BATCH]);
    let uncovered: Vec<String> = shapes
        .iter()
        .zip(&covered)
        .filter(|(_, c)| !**c)
        .map(|(s, _)| format!("{}{:?}", s.name, s.checks))
        .collect();
    Ok(Mix {
        uncovered,
        frames,
        ping,
        requests,
        functions_covered: covered.iter().filter(|c| **c).count(),
    })
}

/// A running daemon plus the client ends of its connections.
struct Served {
    plans: Arc<ServePlans>,
    daemon: Daemon,
    dial: Sender<DuplexStream>,
    conns: Vec<Conn>,
}

struct Conn {
    stream: DuplexStream,
    inbox: Vec<u8>,
    /// `(pool index, sequence number)` per outstanding open-loop
    /// frame, in send order.
    pending: VecDeque<(usize, usize)>,
}

fn limits() -> Limits {
    Limits {
        max_frame_len: 1 << 20,
        max_batch: 4096,
    }
}

fn start(libc: &Libc) -> Result<Served, String> {
    let workers = host::nproc();
    let (plans, _) = ServePlans::build(
        libc,
        &PlanConfig {
            jobs: workers,
            ..PlanConfig::default()
        },
    )
    .map_err(|e| format!("plan build failed: {e}"))?;
    let plans = Arc::new(plans);
    let (dial, listener) = healers_serve::daemon::PipeListener::new();
    let connections = workers.min(2);
    let daemon = Daemon::spawn(
        Box::new(listener),
        Arc::clone(&plans),
        DaemonConfig {
            workers,
            queue_depth: connections,
            limits: limits(),
        },
    );
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        let (local, remote) = duplex(PIPE_CAPACITY);
        dial.send(remote)
            .map_err(|_| "daemon accept loop is gone".to_string())?;
        conns.push(Conn {
            stream: local,
            inbox: Vec::with_capacity(1 << 16),
            pending: VecDeque::new(),
        });
    }
    Ok(Served {
        plans,
        daemon,
        dial,
        conns,
    })
}

impl Served {
    /// Close every connection and join the daemon's threads. Connections
    /// the daemon shed count as failed.
    fn stop(self, out: &mut Outcome) {
        let shed = self
            .daemon
            .counters()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed);
        if shed > 0 {
            out.failed += shed;
            out.errors
                .push(format!("the daemon shed {shed} connections"));
        }
        drop(self.conns);
        drop(self.dial);
        self.daemon.trigger_shutdown();
        if let Err(e) = self.daemon.join() {
            out.errors.push(format!("daemon failed: {e}"));
        }
    }
}

/// One serve set-up (plan build plus daemon spawn) and its seconds.
fn timed_start(libc: &Libc) -> Result<(Served, f64), String> {
    let started = Instant::now();
    let served = start(libc)?;
    Ok((served, started.elapsed().as_secs_f64()))
}

/// Checks applied to every reply frame.
#[derive(Default)]
struct Verify {
    answered: u64,
    wrong: u64,
    first_wrong: Option<String>,
    read_ns: Vec<f64>,
    decode_ns: Vec<f64>,
}

impl Verify {
    /// Parse one complete reply frame from `bytes` and check it.
    fn bytes(&mut self, bytes: &[u8], expect: Option<&[Expect]>, traced: bool) {
        let t0 = traced.then(Instant::now);
        let frame = read_frame(&mut &bytes[..], &limits());
        if let Some(t0) = t0 {
            self.read_ns.push(t0.elapsed().as_nanos() as f64);
        }
        self.frame(frame, expect, traced);
    }

    /// Check one reply frame against the expected verdicts (`None`:
    /// a frame of pongs).
    fn frame(&mut self, frame: Result<Frame, FrameError>, expect: Option<&[Expect]>, traced: bool) {
        let frame = match frame {
            Ok(f) if f.direction == DIR_RESPONSE && f.messages.len() == BATCH => f,
            Ok(f) => {
                self.mismatch(
                    BATCH as u64,
                    format!("reply frame of {} messages", f.messages.len()),
                );
                return;
            }
            Err(e) => {
                self.mismatch(BATCH as u64, format!("undecodable reply frame: {e}"));
                return;
            }
        };
        let t0 = traced.then(Instant::now);
        for (i, msg) in frame.messages.iter().enumerate() {
            let ok = match (Response::decode(msg), expect.map(|e| &e[i])) {
                (Ok(Response::Pong), None) => true,
                (Ok(Response::Validated(v)), Some(e)) => match (v, e) {
                    (ValidateVerdict::Admit, Expect::Admit) => true,
                    (ValidateVerdict::AdmitUnchecked, Expect::Unchecked) => true,
                    (
                        ValidateVerdict::Reject { arg, check },
                        Expect::Reject { arg: a, check: c },
                    ) if arg == *a && check == *c => true,
                    (v, e) => {
                        self.note(format!("verdict {v:?} where {e:?} was expected"));
                        false
                    }
                },
                (other, e) => {
                    self.note(format!("reply {other:?} where {e:?} was expected"));
                    false
                }
            };
            self.answered += 1;
            if !ok {
                self.wrong += 1;
            }
        }
        if let Some(t0) = t0 {
            self.decode_ns
                .push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        }
    }

    fn note(&mut self, what: String) {
        self.first_wrong.get_or_insert(what);
    }

    fn mismatch(&mut self, n: u64, what: String) {
        self.answered += n;
        self.wrong += n;
        self.note(what);
    }
}

/// Move every reply byte available without blocking into the inbox and
/// hand each complete frame to `done(frame bytes, pending entry)`; the
/// entry is `None` for a reply no request is waiting for.
fn drain(
    conn: &mut Conn,
    mut done: impl FnMut(&[u8], Option<(usize, usize)>),
) -> std::io::Result<()> {
    let available = conn.stream.buffered();
    if available > 0 {
        let at = conn.inbox.len();
        conn.inbox.resize(at + available, 0);
        conn.stream.read_exact(&mut conn.inbox[at..])?;
    }
    let mut consumed = 0;
    while conn.inbox.len() - consumed >= HEADER_LEN {
        let header = &conn.inbox[consumed..consumed + HEADER_LEN];
        let payload = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes")) as usize;
        let len = HEADER_LEN + payload;
        if conn.inbox.len() - consumed < len {
            break;
        }
        let entry = conn.pending.pop_front();
        done(&conn.inbox[consumed..consumed + len], entry);
        consumed += len;
    }
    conn.inbox.drain(..consumed);
    Ok(())
}

/// One closed-loop burst: every connection keeps one frame in flight
/// for [`BURST_ROUNDS`] rounds, the generator blocking on each reply.
/// Returns the burst's seconds.
fn burst(
    served: &mut Served,
    mix: &Mix,
    ping: bool,
    round0: usize,
    verify: &mut Verify,
    traced: bool,
) -> std::io::Result<f64> {
    let started = Instant::now();
    let n = served.conns.len();
    for round in 0..BURST_ROUNDS {
        for (c, conn) in served.conns.iter_mut().enumerate() {
            let idx = (round0 + round * n + c) % POOL;
            let bytes = if ping {
                &mix.ping
            } else {
                &mix.frames[idx].bytes
            };
            conn.stream.write_all(bytes)?;
        }
        for (c, conn) in served.conns.iter_mut().enumerate() {
            let idx = (round0 + round * n + c) % POOL;
            let expect = (!ping).then(|| mix.frames[idx].expect.as_slice());
            verify.frame(read_frame(&mut conn.stream, &limits()), expect, traced);
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Windows each ladder rate is split into; a rate's p99 is the median
/// of its windows' p99s, so one host stall spoils one window, not the
/// rate.
const WINDOWS: usize = 10;

/// What one ladder rate observed.
#[derive(Debug, Default)]
struct Rate {
    rate: f64,
    sent: u64,
    answered: u64,
    failed: u64,
    /// Latency of each frame's requests from the due time (µs), in send
    /// order; unanswered frames read +inf.
    latency_us: Vec<f64>,
    /// How late the generator sent each frame (µs), in send order.
    late_us: Vec<f64>,
    backlog_max: u64,
    backlog_grew: bool,
    achieved: f64,
}

/// Median over [`WINDOWS`] consecutive windows of each window's
/// nearest-rank percentile `q`.
fn windowed(samples: &[f64], q: f64) -> f64 {
    let per = samples.len().div_ceil(WINDOWS).max(1);
    let mut values: Vec<f64> = samples
        .chunks(per)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, q)
        })
        .collect();
    values.sort_by(f64::total_cmp);
    // The upper median: with an even count the worse of the middle two.
    values.get(values.len() / 2).copied().unwrap_or(f64::NAN)
}

impl Rate {
    fn p50(&self) -> f64 {
        let mut all = self.latency_us.clone();
        all.sort_by(f64::total_cmp);
        percentile(&all, 50.0)
    }

    fn p99(&self) -> f64 {
        windowed(&self.latency_us, 99.0)
    }

    fn late_p99(&self) -> f64 {
        windowed(&self.late_us, 99.0)
    }

    /// The generator itself ran later than the latency limit: this rate
    /// says nothing about the daemon.
    fn generator_late(&self) -> bool {
        self.late_p99() > P99_LIMIT_US
    }

    fn met(&self) -> bool {
        self.failed == 0
            && !self.backlog_grew
            && !self.generator_late()
            && self.p99() <= P99_LIMIT_US
    }
}

/// Run one open-loop rate for `seconds`.
fn open_loop(
    served: &mut Served,
    mix: &Mix,
    rate: f64,
    seconds: f64,
    verify: &mut Verify,
    traced: bool,
) -> std::io::Result<Rate> {
    let interval_ns = BATCH as f64 / rate * 1e9;
    let frames = ((seconds * rate / BATCH as f64) as usize).max(8 * WINDOWS);
    let n = served.conns.len();
    let origin = Instant::now() + Duration::from_millis(1);
    let now = || Instant::now().saturating_duration_since(origin).as_nanos() as u64;
    let due = |k: usize| (k as f64 * interval_ns) as u64;
    let mut out = Rate {
        rate,
        latency_us: vec![f64::INFINITY; frames],
        late_us: Vec::with_capacity(frames),
        ..Rate::default()
    };
    let mut outstanding_samples: Vec<u64> = Vec::with_capacity(frames);
    let mut next = 0usize;
    let mut last_reply = 0u64;
    let drain_deadline = due(frames) + DRAIN.as_nanos() as u64;
    loop {
        let mut t = now();
        while next < frames && due(next) <= t {
            let conn = &mut served.conns[next % n];
            let idx = next % POOL;
            conn.stream.write_all(&mix.frames[idx].bytes)?;
            conn.pending.push_back((idx, next));
            out.late_us.push(t.saturating_sub(due(next)) as f64 / 1e3);
            out.sent += BATCH as u64;
            next += 1;
            let outstanding: usize = served.conns.iter().map(|c| c.pending.len()).sum();
            outstanding_samples.push(outstanding as u64);
            t = now();
        }
        for conn in &mut served.conns {
            drain(conn, |bytes, entry| {
                let Some((idx, seq)) = entry else {
                    verify.mismatch(BATCH as u64, "a reply no request waited for".to_string());
                    return;
                };
                let at = now();
                last_reply = at;
                verify.bytes(bytes, Some(&mix.frames[idx].expect), traced);
                if let Some(slot) = out.latency_us.get_mut(seq) {
                    *slot = at.saturating_sub(due(seq)) as f64 / 1e3;
                }
                out.answered += BATCH as u64;
            })?;
        }
        let outstanding: usize = served.conns.iter().map(|c| c.pending.len()).sum();
        if next == frames && outstanding == 0 {
            break;
        }
        let t = now();
        if t > drain_deadline {
            break;
        }
        let wait = if next < frames {
            due(next).saturating_sub(t)
        } else {
            100_000
        };
        if wait > 0 {
            std::thread::sleep(Duration::from_nanos(wait.min(50_000)));
        }
    }
    // Whatever is still outstanding was not answered in time; counted
    // from the pending frames, so sent = answered + failed is a check.
    out.failed = served
        .conns
        .iter()
        .map(|c| (c.pending.len() * BATCH) as u64)
        .sum();
    out.backlog_max = outstanding_samples.iter().copied().max().unwrap_or(0);
    // A backlog that grows: the outstanding count's median over the
    // last quarter of sends well above its median over the first.
    let quarter = (outstanding_samples.len() / 4).max(1);
    let median_of = |xs: &[u64]| median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>());
    let head = median_of(&outstanding_samples[..quarter]);
    let tail = median_of(&outstanding_samples[outstanding_samples.len() - quarter..]);
    out.backlog_grew = tail > 2.0 * head + 4.0;
    let span_s = (last_reply.max(1) as f64) / 1e9;
    out.achieved = out.answered as f64 / span_s;
    Ok(out)
}

/// After a rate that left frames unanswered, wait for every one of
/// their late replies, checking each, so that the next rate starts with
/// no frame outstanding and no reply is matched to another frame.
fn settle(served: &mut Served, mix: &Mix, verify: &mut Verify) -> Result<(), String> {
    let deadline = Instant::now() + SETTLE;
    loop {
        let outstanding: usize = served.conns.iter().map(|c| c.pending.len()).sum();
        if outstanding == 0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "{outstanding} frames still unanswered {} s after their rate ended",
                SETTLE.as_secs()
            ));
        }
        for conn in &mut served.conns {
            drain(conn, |bytes, entry| match entry {
                Some((idx, _)) => verify.bytes(bytes, Some(&mix.frames[idx].expect), false),
                None => verify.mismatch(BATCH as u64, "a reply no request waited for".to_string()),
            })
            .map_err(|e| format!("connection failed: {e}"))?;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Run one ladder rate for `seconds` and account for it: sent must equal
/// answered plus failed.
fn run_rate(
    served: &mut Served,
    mix: &Mix,
    rate: f64,
    seconds: f64,
    verify: &mut Verify,
    traced: bool,
    out: &mut Outcome,
) -> Result<Rate, String> {
    let r = open_loop(served, mix, rate, seconds, verify, traced)
        .map_err(|e| format!("connection failed: {e}"))?;
    out.attempted += r.sent;
    out.failed += r.failed;
    if r.sent != r.answered + r.failed {
        out.errors.push(format!(
            "at {rate} req/s sent {} != answered {} + failed {}",
            r.sent, r.answered, r.failed
        ));
    }
    if r.failed > 0 {
        settle(served, mix, verify)?;
    }
    Ok(r)
}

fn check_replies(verify: &Verify, out: &mut Outcome) {
    if verify.wrong > 0 {
        out.errors.push(format!(
            "{} of {} replies differ from the expected verdict; first: {}",
            verify.wrong,
            verify.answered,
            verify.first_wrong.as_deref().unwrap_or("?")
        ));
    }
}

fn describe(rates: &[Rate]) -> Vec<String> {
    rates
        .iter()
        .map(|r| {
            format!(
                "rate {:>8.0} req/s: achieved {:.0}, p50 {:.1} us, p99 {:.1} us, late p99 {:.1} us, \
                 backlog max {} frames{}, failed {} -> {}",
                r.rate,
                r.achieved,
                r.p50(),
                r.p99(),
                r.late_p99(),
                r.backlog_max,
                if r.backlog_grew { " (grew)" } else { "" },
                r.failed,
                if r.generator_late() {
                    "invalid (generator late)"
                } else if r.met() {
                    "met"
                } else {
                    "missed"
                }
            )
        })
        .collect()
}

/// What a client sees of the ladder: the highest rate met, and latency
/// at the middle rate. Reported, not bounded: they move with the host's
/// speed and stalls more than a bound could allow.
fn ladder_metrics(rates: &[Rate]) -> Vec<Metric> {
    let best = rates
        .iter()
        .filter(|r| r.met())
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    let middle = &rates[rates.len() / 2];
    vec![
        Metric::single("serve.rps_max", "1/s", best.map_or(0.0, |r| r.achieved)),
        Metric::single("serve.p50_us", "us", middle.p50()),
        Metric::single("serve.p99_us", "us", middle.p99()),
    ]
}

/// Share of the run's seconds spent in saturation bursts; the ladder
/// gets the rest.
const SATURATION_SHARE: f64 = 0.4;

/// The untraced run: end-to-end metrics. `overhead_pct` is the median
/// over interleaved pairs of (`Validate` burst / `Ping` burst seconds
/// − 1): the checking cost over the transport. The run is split into
/// `budget.setups` rounds, each starting with a cold set-up that
/// replaces the daemon (their median is `setup_s`), then its share of
/// the saturation bursts and of the ladder rates.
pub fn measure(seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let libc = Libc::standard();
    let (mut served, first) = match timed_start(&libc) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut setup_times = vec![first];
    let result = (|| -> Result<(), String> {
        let mix = generate(&served.plans, seed, None)?;
        out.notes.push(format!(
            "serve: {} connections, {} workers, {} functions covered by the mix",
            served.conns.len(),
            host::nproc(),
            mix.functions_covered
        ));
        if !mix.uncovered.is_empty() {
            out.notes
                .push(format!("serve: not covered: {}", mix.uncovered.join(" ")));
        }
        let mut verify = Verify::default();
        let io = |e: std::io::Error| format!("connection failed: {e}");
        let saturation_s = budget.seconds * SATURATION_SHARE;
        let per_rate = budget.seconds * (1.0 - SATURATION_SHARE) / LADDER.len() as f64;
        let mut walls = Vec::new();
        let mut overheads = Vec::new();
        let mut saturated = 0.0;
        let mut rates = Vec::with_capacity(LADDER.len());
        let mut round0 = 0;
        for round in 1..=budget.setups {
            if round > 1 {
                let (next, t) = timed_start(&libc)?;
                std::mem::replace(&mut served, next).stop(&mut out);
                setup_times.push(t);
            }
            // Saturation: validate and ping bursts in alternating order.
            loop {
                let validate_first = walls.len() % 2 == 0;
                let mut times = [0.0; 2];
                for ping in [!validate_first, validate_first] {
                    times[usize::from(ping)] =
                        burst(&mut served, &mix, ping, round0, &mut verify, false).map_err(io)?;
                }
                round0 += BURST_ROUNDS * served.conns.len();
                out.attempted += 2 * (BURST_ROUNDS * served.conns.len() * BATCH) as u64;
                walls.push(times[0]);
                overheads.push((times[0] / times[1] - 1.0) * 100.0);
                saturated += times[0] + times[1];
                if saturated >= saturation_s * round as f64 / budget.setups as f64 {
                    break;
                }
            }
            while rates.len() < LADDER.len() * round / budget.setups {
                let rate = LADDER[rates.len()];
                rates.push(run_rate(
                    &mut served,
                    &mix,
                    rate,
                    per_rate,
                    &mut verify,
                    false,
                    &mut out,
                )?);
            }
        }
        check_replies(&verify, &mut out);
        out.push(Metric::samples("overhead_pct", "%", overheads));
        out.info.push(Metric::samples("serve.burst_s", "s", walls));
        out.info.extend(ladder_metrics(&rates));
        out.notes.extend(describe(&rates));
        Ok(())
    })();
    if let Err(e) = result {
        out.errors.push(e);
    }
    served.stop(&mut out);
    out.push(Metric::samples("setup_s", "s", setup_times));
    out
}

/// ns per request of `ServePlans::resolve` and `validate_resolved` over
/// the pooled requests, plus bytes the checks scanned per request.
fn plans_timing(plans: &ServePlans, mix: &Mix) -> (f64, f64, f64) {
    let passes = (100_000 / mix.requests.len()).max(1);
    let started = Instant::now();
    let mut found = 0u64;
    for _ in 0..passes {
        for (function, _, _) in &mix.requests {
            found += u64::from(plans.resolve(function).is_some());
        }
    }
    let resolve_ns = started.elapsed().as_nanos() as f64 / (passes * mix.requests.len()) as f64;
    std::hint::black_box(found);
    let resolved: Vec<_> = mix
        .requests
        .iter()
        .filter_map(|(f, args, _)| plans.resolve(f).map(|id| (id, args)))
        .collect();
    let mut ctrs = CheckCounters::default();
    for (id, args) in &resolved {
        std::hint::black_box(plans.validate_resolved(*id, args, &mut ctrs));
    }
    let bytes = ctrs.bytes_scanned as f64 / resolved.len().max(1) as f64;
    let started = Instant::now();
    for _ in 0..passes {
        for (id, args) in &resolved {
            std::hint::black_box(plans.validate_resolved(*id, args, &mut ctrs));
        }
    }
    let validate_ns = started.elapsed().as_nanos() as f64 / (passes * resolved.len().max(1)) as f64;
    (resolve_ns, validate_ns, bytes)
}

/// The traced run: frame, proto, plans, daemon and loadgen per-layer
/// metrics, and (unless `census`) the tracing overhead from interleaved
/// untraced and traced validate bursts.
pub fn profile(seed: u64, budget: Budget, tracer: &Tracer, census: bool) -> Outcome {
    let mut out = Outcome::default();
    let libc = Libc::standard();
    let mut served = match timed_start(&libc) {
        Ok((s, _)) => s,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let result = (|| -> Result<(), String> {
        let mix = generate(&served.plans, seed, Some(tracer))?;
        let io = |e: std::io::Error| format!("connection failed: {e}");
        let mut verify = Verify::default();
        let mut overheads = Vec::new();
        let mut walls = Vec::new();
        let mut allocs_per_frame = Vec::new();
        let started = Instant::now();
        let mut round0 = 0;
        let frames = (BURST_ROUNDS * served.conns.len()) as f64;
        while overheads.len() < 2 || started.elapsed().as_secs_f64() < budget.seconds * 0.5 {
            let a0 = alloc::events();
            let plain = burst(&mut served, &mix, false, round0, &mut verify, false).map_err(io)?;
            allocs_per_frame.push((alloc::events() - a0) as f64 / frames);
            walls.push(plain);
            let traced = burst(&mut served, &mix, false, round0, &mut verify, true).map_err(io)?;
            round0 += BURST_ROUNDS * served.conns.len();
            out.attempted += 2 * (BURST_ROUNDS * served.conns.len() * BATCH) as u64;
            overheads.push((traced / plain - 1.0) * 100.0);
        }
        let per_rate = budget.seconds * 0.5 / LADDER.len() as f64;
        let mut rates = Vec::with_capacity(LADDER.len());
        for rate in LADDER {
            rates.push(run_rate(
                &mut served,
                &mix,
                rate,
                per_rate,
                &mut verify,
                true,
                &mut out,
            )?);
        }
        check_replies(&verify, &mut out);
        let (resolve_ns, validate_ns, bytes) = plans_timing(&served.plans, &mix);
        let (_, _, bytes_again) = plans_timing(&served.plans, &mix);
        if bytes != bytes_again {
            out.errors.push(format!(
                "count plans.bytes_scanned_per_request differs between runs: {bytes} vs {bytes_again}"
            ));
        }
        let totals = tracer.totals();
        let mean_read = median(&verify.read_ns);
        out.push(Metric::single(
            "frame.encode_ns",
            "ns",
            totals.get("frame.encode").map_or(f64::NAN, |t| t.mean_ns()),
        ));
        out.push(Metric::single("frame.read_ns", "ns", mean_read));
        out.push(Metric::single(
            "proto.decode_ns",
            "ns",
            median(&verify.decode_ns),
        ));
        out.push(Metric::single("plans.resolve_ns", "ns", resolve_ns));
        out.push(Metric::single("plans.validate_ns", "ns", validate_ns));
        out.push(Metric::single(
            "plans.bytes_scanned_per_request",
            "bytes",
            bytes,
        ));
        let counters = served.daemon.counters();
        out.push(Metric::single(
            "daemon.shed",
            "count",
            counters.shed.load(std::sync::atomic::Ordering::Relaxed) as f64,
        ));
        out.push(Metric::single(
            "daemon.queue_highwater",
            "count",
            served.daemon.stats_hub().queue_highwater() as f64,
        ));
        let late = rates.iter().map(Rate::late_p99).fold(0.0, f64::max);
        out.push(Metric::single("loadgen.late_p99_us", "us", late));
        out.push(Metric::single(
            "loadgen.backlog_max",
            "count",
            rates.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
        ));
        out.push(Metric::single(
            "serve.allocs_per_frame",
            "ratio",
            median(&allocs_per_frame),
        ));
        out.push(Metric::samples("serve.burst_s", "s", walls));
        for m in ladder_metrics(&rates) {
            out.push(m);
        }
        let pairs = overheads.len();
        if !census {
            out.push(Metric::samples("trace.overhead_pct", "%", overheads));
        }
        out.notes.push(format!(
            "serve traced: {pairs} burst pairs{}",
            if census { " (census)" } else { "" }
        ));
        out.notes.extend(describe(&rates));
        Ok(())
    })();
    if let Err(e) = result {
        out.errors.push(e);
    }
    served.stop(&mut out);
    out
}
