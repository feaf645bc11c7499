//! Allocation audit of the daemon's validate path: once a session is
//! warm, a frame of `Validate`s allocates exactly as much as a frame of
//! as many `Ping`s — the transport's per-message buffers and nothing
//! else. A counting `#[global_allocator]`, installed in this test
//! binary only, measures it while `serve_session` runs on the test
//! thread over an in-memory connection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;

use healers_core::checker::CheckCounters;
use healers_serve::daemon::{serve_session, ServeTelemetry};
use healers_serve::frame::{encode_frame, DIR_REQUEST};
use healers_serve::{
    Limits, PlanConfig, Request, ServeCounters, ServePlans, StatsHub, ValidateVerdict,
};
use healers_simproc::SimValue;

/// Forwards to the system allocator and counts the allocation events
/// (`alloc`, `alloc_zeroed`, `realloc`) of the current thread.
struct Counting;

thread_local! {
    // A `const` initializer with no destructor: reading it never
    // allocates, so the allocator itself may use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A connection that replays fixed request bytes and discards every
/// reply byte.
struct Replay(io::Cursor<Vec<u8>>);

impl Read for Replay {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Replay {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Requests per frame.
const BATCH: usize = 32;
/// Measured frames per session.
const FRAMES: usize = 16;

fn plans(repair_hints: bool) -> ServePlans {
    let config = PlanConfig {
        functions: vec!["strlen".into(), "strcpy".into(), "abs".into()],
        repair_hints,
        ..PlanConfig::default()
    };
    ServePlans::build(&healers_libc::Libc::standard(), &config)
        .unwrap()
        .0
}

/// One validate of every verdict kind, cycled to fill a frame.
fn validates(plans: &ServePlans) -> Vec<(String, Vec<SimValue>)> {
    let (s, b) = (plans.scratch_str(), plans.scratch_buf());
    [
        ("strlen", vec![SimValue::Ptr(s)]),
        ("strlen", vec![SimValue::NULL]),
        ("strcpy", vec![SimValue::Ptr(b), SimValue::Ptr(0xdead_0000)]),
        ("abs", vec![SimValue::Int(-5)]),
        ("frobnicate", vec![SimValue::Int(1)]),
    ]
    .iter()
    .cycle()
    .take(BATCH)
    .map(|(f, args)| (f.to_string(), args.clone()))
    .collect()
}

fn frame_of(requests: &[Request]) -> Vec<u8> {
    let messages: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            buf
        })
        .collect();
    encode_frame(DIR_REQUEST, &messages)
}

/// Serve a warm-up `Validate` frame and a warm-up `Ping` frame, then
/// [`FRAMES`] copies of `measured`; returns the session's allocation
/// events and the daemon counters it published.
fn session_allocs(
    plans: &ServePlans,
    validate: &[u8],
    ping: &[u8],
    measured: &[u8],
) -> (u64, ServeCounters) {
    let mut input = [validate, ping].concat();
    for _ in 0..FRAMES {
        input.extend_from_slice(measured);
    }
    let mut conn = Replay(io::Cursor::new(input));
    let counters = ServeCounters::default();
    let telemetry = ServeTelemetry::default();
    let hub = StatsHub::new(plans.functions(), 1);
    let limits = Limits::default();
    let before = ALLOCS.with(Cell::get);
    let outcome = serve_session(&mut conn, plans, &limits, &counters, &telemetry, &hub, 0);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(!outcome.shutdown);
    assert_eq!(outcome.stats.frames, 2 + FRAMES as u64);
    assert_eq!(outcome.stats.errors, 0);
    (allocs, counters)
}

fn assert_validates_allocate_like_pings(repair_hints: bool) {
    let plans = plans(repair_hints);
    let requests = validates(&plans);

    // The frame covers every verdict the daemon can give.
    let mut ctrs = CheckCounters::default();
    let verdicts: Vec<ValidateVerdict> = requests
        .iter()
        .map(|(f, args)| plans.validate(f, args, &mut ctrs))
        .collect();
    let failed = |v: &ValidateVerdict| {
        if repair_hints {
            matches!(v, ValidateVerdict::WouldRepair { .. })
        } else {
            matches!(v, ValidateVerdict::Reject { .. })
        }
    };
    assert!(verdicts.contains(&ValidateVerdict::Admit), "{verdicts:?}");
    assert!(
        verdicts.iter().filter(|v| failed(v)).count() >= 2,
        "{verdicts:?}"
    );
    assert!(
        verdicts.contains(&ValidateVerdict::AdmitUnchecked),
        "{verdicts:?}"
    );
    assert!(
        verdicts.contains(&ValidateVerdict::UnknownFunction),
        "{verdicts:?}"
    );

    let validate = frame_of(
        &requests
            .iter()
            .map(|(function, args)| Request::Validate {
                function: function.clone(),
                args: args.clone(),
            })
            .collect::<Vec<_>>(),
    );
    let ping = frame_of(&vec![Request::Ping; BATCH]);

    let (validate_allocs, counters) = session_allocs(&plans, &validate, &ping, &validate);
    let (ping_allocs, _) = session_allocs(&plans, &validate, &ping, &ping);
    assert_eq!(
        validate_allocs, ping_allocs,
        "{FRAMES} frames of {BATCH} validates allocate {validate_allocs} events, \
         as many pings {ping_allocs}"
    );

    // Every validate was served and published.
    let served = ((1 + FRAMES) * BATCH) as u64;
    assert_eq!(counters.validates.load(Ordering::Relaxed), served);
    assert_eq!(
        counters.requests.load(Ordering::Relaxed),
        served + BATCH as u64
    );
    assert_eq!(counters.frames.load(Ordering::Relaxed), 2 + FRAMES as u64);
}

#[test]
fn validate_frames_allocate_as_much_as_ping_frames() {
    assert_validates_allocate_like_pings(false);
}

#[test]
fn would_repair_frames_allocate_as_much_as_ping_frames() {
    assert_validates_allocate_like_pings(true);
}
