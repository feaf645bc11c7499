//! `app_steady` and `app_churn`: a seeded call program run once through
//! `Libc::call` and once through `RobustnessWrapper::call` per rep, on
//! fresh identical worlds, alternating which side goes first.
//!
//! The program runs once at set-up against the library and its call
//! sequence (names, arguments and return values) is recorded. Each rep
//! replays that sequence on two fresh worlds, one through each path, in
//! interleaved blocks of [`BLOCK`] calls — wrapped block first, then
//! unwrapped first, and so on — and checks every return value against
//! the recording. Interleaving at that grain keeps both sides on the
//! same host speed: on a shared machine the speed of the same code can
//! swing by more than the overhead being measured within a second.
//!
//! * steady — the Table 2 call mixes with the compute ballast removed:
//!   gcc-like line parsing with `str*`/`sprintf`, ps2pdf-like
//!   `fgetc`/`fputc`/`fputs`, tar-like `fread`/`fwrite`, over a few
//!   long-lived `malloc`ed buffers (far fewer than the validity
//!   cache's 4096 entries), the order of lines and files drawn from
//!   the seed;
//! * churn — seeded `malloc`/`realloc`/`free`/`strdup`,
//!   `fopen`/`fclose` and `opendir`/`readdir`/`closedir` interleaved
//!   with string calls on freshly allocated blocks, so the tracking
//!   tables are written on most calls, the validity cache is flushed
//!   every few calls and the distinct pointers exceed 4096.

use std::collections::BTreeSet;
use std::time::Instant;

use healers_ballista::ballista_targets;
use healers_campaign::{Campaign, CampaignConfig};
use healers_core::checker::CheckKind;
use healers_core::{RobustnessWrapper, WrapperBuilder, WrapperConfig};
use healers_libc::{Libc, World};
use healers_simproc::SimValue;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::Tracer;
use crate::{alloc, host, Budget, Metric, Outcome};

/// Which call program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Table 2 mixes over long-lived buffers.
    Steady,
    /// Allocation, handle and directory churn beside string calls.
    Churn,
}

/// In a traced rep, one call in 2^4 gets a span.
const SAMPLE_MASK: usize = 15;
/// Calls per interleaved block.
const BLOCK: usize = 256;
/// Tar-like archive members.
const MEMBERS: usize = 8;
/// Live blocks the churn program keeps before freeing the oldest.
const LIVE_BLOCKS: usize = 64;

/// One step of the churn program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `malloc` a block, format into it, scan it. Sizes leave the
    /// 64 bytes beyond the format that the wrapper's built-in
    /// `sprintf` size assertion demands.
    Alloc(u32),
    /// `realloc` a live block larger and append to it.
    Grow(usize, u32),
    /// `strdup` a live block and compare the copy.
    Dup(usize),
    /// String calls on a live block.
    Scan(usize),
    /// `fopen`/`fgets`/`fclose` one member file.
    File(usize),
    /// `opendir`/`readdir`×2/`closedir` on `/tmp`.
    Dir,
}

/// The seeded inputs: file contents plus the churn step list.
struct Inputs {
    program: Program,
    source: Vec<u8>,
    document: Vec<u8>,
    members: Vec<Vec<u8>>,
    steps: Vec<Step>,
}

fn printable(rng: &mut StdRng, len: usize) -> Vec<u8> {
    const WORDS: &[&[u8]] = &[
        b"int ", b"return ", b"(", b")", b"x", b"+", b"; ", b"f", b"{ ", b"} ",
    ];
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(WORDS[rng.random_range(0..WORDS.len())]);
    }
    out.truncate(len);
    out
}

/// A seeded permutation of `values`: the seed decides the order, never
/// the multiset, so every seed does the same amount of work.
fn shuffled<T>(rng: &mut StdRng, mut values: Vec<T>) -> Vec<T> {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.random_range(0..=i));
    }
    values
}

/// Source lines of the gcc-like part.
const LINES: usize = 160;
/// Bytes of the ps2pdf-like input document.
const DOCUMENT: usize = 4096;
/// Steps of the churn program: enough allocating steps for more than
/// 4096 distinct pointers.
const STEPS: usize = 7000;

impl Inputs {
    fn generate(program: Program, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05ee_da99);
        // Line lengths 8..=199 spread evenly, in seeded order.
        let lengths = shuffled(&mut rng, (0..LINES).map(|i| 8 + i * 192 / LINES).collect());
        // A line's text is a function of its length alone: where `(`
        // and `return` fall decides how far `strchr`/`strstr` search,
        // so the seed permutes the lines but never changes the work.
        let mut source = Vec::new();
        for len in lengths {
            source.extend(printable(&mut StdRng::seed_from_u64(len as u64), len));
            source.push(b'\n');
        }
        let document: Vec<u8> = (0..DOCUMENT)
            .map(|_| b'!' + rng.random_range(0u8..90))
            .collect();
        let sizes = shuffled(&mut rng, (0..MEMBERS).map(|i| 300 + i * 350).collect());
        let members = sizes
            .into_iter()
            .map(|len| {
                let mut m = printable(&mut rng, len);
                m.push(b'\n');
                m
            })
            .collect();
        let steps = match program {
            Program::Steady => Vec::new(),
            Program::Churn => {
                // Fixed shares of each step kind, and evenly spread
                // sizes, both in seeded order; only which live block a
                // step touches is drawn freely.
                let kinds = (0..STEPS).map(|i| (i * 100 / STEPS) as u32).collect();
                let mut sizes = shuffled(
                    &mut rng,
                    (0..STEPS).map(|i| (80 + i * 432 / STEPS) as u32).collect(),
                )
                .into_iter();
                let mut size = move || sizes.next().expect("one size per step");
                shuffled(&mut rng, kinds)
                    .into_iter()
                    .enumerate()
                    .map(|(i, kind)| match kind {
                        0..=34 => Step::Alloc(size()),
                        35..=49 => Step::Grow(rng.random_range(0..LIVE_BLOCKS), size() / 2),
                        50..=64 => Step::Dup(rng.random_range(0..LIVE_BLOCKS)),
                        65..=84 => Step::Scan(rng.random_range(0..LIVE_BLOCKS)),
                        85..=94 => Step::File(i % MEMBERS),
                        _ => Step::Dir,
                    })
                    .collect()
            }
        };
        Inputs {
            program,
            source,
            document,
            members,
            steps,
        }
    }
}

/// Constant strings the program passes, allocated in world set-up.
struct Consts {
    program_path: SimValue,
    doc_path: SimValue,
    pdf_path: SimValue,
    tar_path: SimValue,
    member_paths: Vec<SimValue>,
    tmp_dir: SimValue,
    mode_r: SimValue,
    mode_w: SimValue,
    kw_int: SimValue,
    kw_return: SimValue,
    kw_sym: SimValue,
    suffix: SimValue,
    tag: SimValue,
    fmt_sym: SimValue,
    fmt_obj: SimValue,
    fmt_member: SimValue,
}

/// Files whose final bytes the wrapped run must reproduce.
const OUTPUTS: &[&str] = &["/tmp/document.pdf", "/tmp/archive.tar"];

fn fresh_world(inputs: &Inputs) -> (World, Consts) {
    let mut world = World::new();
    let k = &mut world.kernel;
    k.write_file("/tmp/program.c", &inputs.source)
        .expect("set-up write");
    k.write_file("/tmp/document.ps", &inputs.document)
        .expect("set-up write");
    for (i, m) in inputs.members.iter().enumerate() {
        k.write_file(&format!("/tmp/member{i}.txt"), m)
            .expect("set-up write");
    }
    let mut s = |text: &str| SimValue::Ptr(world.alloc_cstr(text));
    let consts = Consts {
        program_path: s("/tmp/program.c"),
        doc_path: s("/tmp/document.ps"),
        pdf_path: s(OUTPUTS[0]),
        tar_path: s(OUTPUTS[1]),
        member_paths: (0..MEMBERS)
            .map(|i| s(&format!("/tmp/member{i}.txt")))
            .collect(),
        tmp_dir: s("/tmp"),
        mode_r: s("r"),
        mode_w: s("w"),
        kw_int: s("int"),
        kw_return: s("return"),
        kw_sym: s("sym"),
        suffix: s("-grown"),
        tag: s("src"),
        fmt_sym: s("sym_%d"),
        fmt_obj: s("obj %d 0 R"),
        fmt_member: s("member-%s-%04d"),
    };
    (world, consts)
}

/// One recorded library call.
#[derive(Debug, Clone)]
struct Call {
    name: &'static str,
    args: Vec<SimValue>,
    ret: SimValue,
}

/// Runs the program against the library once, recording every call.
struct Recorder<'a> {
    libc: &'a Libc,
    world: &'a mut World,
    calls: Vec<Call>,
    faults: u64,
    /// Distinct pointers the allocating calls returned.
    pointers: BTreeSet<u32>,
}

impl Recorder<'_> {
    fn call(&mut self, name: &'static str, args: &[SimValue]) -> SimValue {
        let ret = self.libc.call(self.world, name, args).unwrap_or_else(|_| {
            self.faults += 1;
            SimValue::Int(-1)
        });
        self.calls.push(Call {
            name,
            args: args.to_vec(),
            ret,
        });
        ret
    }

    fn alloc_call(&mut self, name: &'static str, args: &[SimValue]) -> SimValue {
        let p = self.call(name, args);
        self.pointers.insert(p.as_ptr());
        p
    }
}

/// The program's recorded call sequence plus the final bytes of its
/// output files.
struct Trace {
    calls: Vec<Call>,
    files: Vec<Vec<u8>>,
    distinct_pointers: usize,
}

fn output_files(world: &World) -> Vec<Vec<u8>> {
    OUTPUTS
        .iter()
        .map(|p| world.kernel.read_file(p).unwrap_or_default())
        .collect()
}

fn record(libc: &Libc, inputs: &Inputs) -> Result<Trace, String> {
    let (mut world, consts) = fresh_world(inputs);
    let mut r = Recorder {
        libc,
        world: &mut world,
        calls: Vec::new(),
        faults: 0,
        pointers: BTreeSet::new(),
    };
    match inputs.program {
        Program::Steady => steady(&mut r, &consts),
        Program::Churn => churn(&mut r, &consts, &inputs.steps),
    }
    if r.faults > 0 {
        return Err(format!(
            "the program faulted {} times against the library",
            r.faults
        ));
    }
    let (calls, distinct_pointers) = (r.calls, r.pointers.len());
    Ok(Trace {
        calls,
        files: output_files(&world),
        distinct_pointers,
    })
}

const fn int(v: i64) -> SimValue {
    SimValue::Int(v)
}

fn steady(c: &mut Recorder<'_>, k: &Consts) {
    let line = c.call("malloc", &[int(256)]);
    let token = c.call("malloc", &[int(256)]);
    let symbol = c.call("malloc", &[int(128)]);
    let block = c.call("malloc", &[int(512)]);
    let header = c.call("malloc", &[int(512)]);
    let obj = c.call("malloc", &[int(128)]);

    // gcc-like: two "processes" re-read and tokenize the source.
    let mut sym = 0;
    for _process in 0..2 {
        let src = c.call("fopen", &[k.program_path, k.mode_r]);
        loop {
            if c.call("fgets", &[line, int(256), src]).is_null() {
                break;
            }
            c.call("strlen", &[line]);
            c.call("strcpy", &[token, line]);
            c.call("strchr", &[token, int(i64::from(b'('))]);
            c.call("strncmp", &[token, k.kw_int, int(3)]);
            c.call("strstr", &[token, k.kw_return]);
            c.call("sprintf", &[symbol, k.fmt_sym, int(sym)]);
            c.call("strcmp", &[symbol, token]);
            sym += 1;
        }
        c.call("fclose", &[src]);
    }

    // ps2pdf-like: character-at-a-time transformation.
    let input = c.call("fopen", &[k.doc_path, k.mode_r]);
    let output = c.call("fopen", &[k.pdf_path, k.mode_w]);
    let mut count = 0;
    loop {
        let ch = c.call("fgetc", &[input]);
        if ch.as_int() < 0 {
            break;
        }
        c.call("fputc", &[ch, output]);
        count += 1;
        if count % 64 == 0 {
            c.call("sprintf", &[obj, k.fmt_obj, int(count / 64)]);
            c.call("fputs", &[obj, output]);
        }
    }
    c.call("fclose", &[input]);
    c.call("fclose", &[output]);

    // tar-like: block I/O.
    let archive = c.call("fopen", &[k.tar_path, k.mode_w]);
    for (i, path) in k.member_paths.iter().enumerate() {
        let member = c.call("fopen", &[*path, k.mode_r]);
        c.call("sprintf", &[header, k.fmt_member, k.tag, int(i as i64)]);
        c.call("fwrite", &[header, int(1), int(512), archive]);
        loop {
            let got = c.call("fread", &[block, int(1), int(512), member]);
            if got.as_int() <= 0 {
                break;
            }
            c.call("fwrite", &[block, int(1), got, archive]);
        }
        c.call("fclose", &[member]);
    }
    c.call("fclose", &[archive]);
    for p in [line, token, symbol, block, header, obj] {
        c.call("free", &[p]);
    }
}

fn churn(c: &mut Recorder<'_>, k: &Consts, steps: &[Step]) {
    let line = c.call("malloc", &[int(256)]);
    let mut live: Vec<SimValue> = Vec::with_capacity(LIVE_BLOCKS + 1);
    let retire = |c: &mut Recorder<'_>, live: &mut Vec<SimValue>, p: SimValue| {
        live.push(p);
        if live.len() > LIVE_BLOCKS {
            let oldest = live.remove(0);
            c.call("free", &[oldest]);
        }
    };
    for (i, step) in steps.iter().enumerate() {
        let pick = |n: usize, live: &[SimValue]| live[n % live.len()];
        match *step {
            Step::Alloc(size) => {
                let p = c.alloc_call("malloc", &[int(i64::from(size))]);
                c.call("sprintf", &[p, k.fmt_sym, int(i as i64)]);
                c.call("strlen", &[p]);
                retire(c, &mut live, p);
            }
            _ if live.is_empty() => {}
            Step::Grow(n, by) => {
                let slot = n % live.len();
                // Live blocks hold short strings: 264 bytes or more
                // always fit one more suffix.
                let q = c.alloc_call("realloc", &[live[slot], int(i64::from(by) + 256)]);
                c.call("strcat", &[q, k.suffix]);
                live[slot] = q;
            }
            Step::Dup(n) => {
                let p = pick(n, &live);
                let q = c.alloc_call("strdup", &[p]);
                c.call("strcmp", &[p, q]);
                retire(c, &mut live, q);
            }
            Step::Scan(n) => {
                let p = pick(n, &live);
                c.call("strlen", &[p]);
                c.call("strchr", &[p, int(i64::from(b'_'))]);
                c.call("strncmp", &[p, k.kw_sym, int(3)]);
            }
            Step::File(m) => {
                let f = c.call("fopen", &[k.member_paths[m], k.mode_r]);
                c.call("fgets", &[line, int(128), f]);
                c.call("fclose", &[f]);
            }
            Step::Dir => {
                let d = c.call("opendir", &[k.tmp_dir]);
                c.call("readdir", &[d]);
                c.call("readdir", &[d]);
                c.call("closedir", &[d]);
            }
        }
    }
    for p in live {
        c.call("free", &[p]);
    }
    c.call("free", &[line]);
}

/// What the two sides of one rep observed.
struct Pair {
    /// Seconds through the library alone.
    unwrapped_s: f64,
    /// Seconds through the wrapper.
    wrapped_s: f64,
    calls: u64,
    counts: Vec<(&'static str, f64)>,
}

/// One rep: replay the trace on two fresh identical worlds, through
/// the library and through a fresh copy of the wrapper, in interleaved
/// blocks, checking every return value and the final output files.
/// With a tracer, each block side gets a span and one call in
/// `SAMPLE_MASK + 1` a span under it.
fn pair(
    libc: &Libc,
    inputs: &Inputs,
    trace: &Trace,
    template: &RobustnessWrapper,
    wrapped_first: bool,
    traced: Option<(&Tracer, u64)>,
    out: &mut Outcome,
) -> Pair {
    let mut wrapper = template.clone();
    wrapper.reset_stats();
    let (mut plain_world, _) = fresh_world(inputs);
    let (mut wrapped_world, _) = fresh_world(inputs);
    let (mut seconds, mut allocs, mut faults, mut wrong) =
        ([0.0f64; 2], [0u64; 2], [0u64; 2], [0u64; 2]);
    for (b, block) in trace.calls.chunks(BLOCK).enumerate() {
        let first = (b % 2 == 0) == wrapped_first;
        for wrapped in [first, !first] {
            let side = usize::from(wrapped);
            let world = if wrapped {
                &mut wrapped_world
            } else {
                &mut plain_world
            };
            let span = traced.map(|(t, rep)| {
                let name = if wrapped {
                    "app.block.wrapped"
                } else {
                    "app.block.unwrapped"
                };
                t.open(name, None, rep)
            });
            let a0 = alloc::events();
            let started = Instant::now();
            for (i, call) in block.iter().enumerate() {
                let sample = traced
                    .filter(|_| i & SAMPLE_MASK == 0)
                    .map(|(t, rep)| (t, rep, t.now()));
                let result = if wrapped {
                    wrapper.call(libc, world, call.name, &call.args)
                } else {
                    libc.call(world, call.name, &call.args)
                };
                if let Some((t, rep, start)) = sample {
                    let name = if wrapped { "wrapper.call" } else { "libc.call" };
                    t.record(name, start, t.now(), span, rep);
                }
                match result {
                    Ok(v) if v == call.ret => {}
                    Ok(_) => wrong[side] += 1,
                    Err(_) => faults[side] += 1,
                }
            }
            seconds[side] += started.elapsed().as_secs_f64();
            allocs[side] += alloc::events() - a0;
            if let (Some((t, _)), Some(span)) = (traced, span) {
                t.close(span);
            }
        }
    }
    let calls = trace.calls.len() as u64;
    out.attempted += calls;
    out.failed += faults[0] + faults[1] + wrapper.stats.violations;
    if faults[0] + faults[1] > 0 {
        out.errors.push(format!(
            "calls faulted: {} wrapped, {} unwrapped",
            faults[1], faults[0]
        ));
    }
    if let Some(v) = wrapper.violations().first() {
        out.errors.push(format!(
            "{} calls of a correct program were rejected, first {}(arg {} = {:?}) failing {}",
            wrapper.stats.violations, v.function, v.arg, v.value, v.check
        ));
    }
    if wrong[0] + wrong[1] > 0 {
        out.errors.push(format!(
            "return values differ from the recording: {} wrapped, {} unwrapped",
            wrong[1], wrong[0]
        ));
    }
    if output_files(&wrapped_world) != trace.files || output_files(&plain_world) != trace.files {
        out.errors
            .push("output files differ from the recording".to_string());
    }
    let per_call = |n: f64| n / calls.max(1) as f64;
    let s = &wrapper.stats;
    let fmt =
        s.check_outcomes.passed(CheckKind::Format) + s.check_outcomes.failed(CheckKind::Format);
    let counts = vec![
        ("app.calls", s.calls as f64),
        ("app.wrapped_calls", s.wrapped_calls as f64),
        ("wrapper.checks_per_call", per_call(s.checks as f64)),
        (
            "wrapper.cache_hit_ratio",
            s.check_cache_hits as f64 / s.checks.max(1) as f64,
        ),
        (
            "wrapper.allocs_per_call",
            per_call(allocs[1] as f64 - allocs[0] as f64),
        ),
        (
            "checker.bytes_scanned_per_call",
            per_call(s.check_kinds.bytes_scanned as f64),
        ),
        (
            "checker.run_probes_per_call",
            per_call(s.check_kinds.run_probes as f64),
        ),
        (
            "checker.nul_scans_per_call",
            per_call(s.check_kinds.nul_scans as f64),
        ),
        ("checker.format_checks", fmt as f64),
    ];
    Pair {
        unwrapped_s: seconds[0],
        wrapped_s: seconds[1],
        calls,
        counts,
    }
}

/// Cold analysis of the 86 targets plus the full-auto wrapper build.
fn build_wrapper(libc: &Libc) -> std::io::Result<RobustnessWrapper> {
    let campaign = Campaign::new(&CampaignConfig {
        jobs: host::nproc(),
        ..CampaignConfig::default()
    })?;
    let (decls, _) = campaign.analyze(libc, &ballista_targets())?;
    campaign.finish()?;
    // Violations are never expected; logging them names the call in
    // the check failure and costs nothing while there are none.
    Ok(WrapperBuilder::new()
        .decls(decls)
        .config(WrapperConfig {
            log_violations: true,
            ..WrapperConfig::full_auto()
        })
        .build())
}

fn check_counts(
    first: &mut Option<Vec<(&'static str, f64)>>,
    counts: &[(&'static str, f64)],
    out: &mut Outcome,
) {
    match first {
        None => *first = Some(counts.to_vec()),
        Some(first) => {
            for ((name, a), (_, b)) in first.iter().zip(counts) {
                if a != b {
                    out.errors
                        .push(format!("count {name} differs between reps: {a} vs {b}"));
                }
            }
        }
    }
}

/// Everything a rep needs, built once.
struct Setup {
    libc: Libc,
    inputs: Inputs,
    trace: Trace,
    wrapper: RobustnessWrapper,
}

/// A cold analysis plus wrapper build, and its seconds.
fn timed_build(libc: &Libc) -> Result<(RobustnessWrapper, f64), String> {
    let started = Instant::now();
    let wrapper = build_wrapper(libc).map_err(|e| format!("cold analysis failed: {e}"))?;
    Ok((wrapper, started.elapsed().as_secs_f64()))
}

/// The recorded program plus one cold-built wrapper, and that build's
/// seconds.
fn setup(program: Program, seed: u64) -> Result<(Setup, f64), String> {
    let libc = Libc::standard();
    let inputs = Inputs::generate(program, seed);
    let trace = record(&libc, &inputs)?;
    let (wrapper, seconds) = timed_build(&libc)?;
    Ok((
        Setup {
            libc,
            inputs,
            trace,
            wrapper,
        },
        seconds,
    ))
}

/// The reps of one run, in pairs with opposite block orders.
#[derive(Default)]
struct Series {
    /// Per rep: (wrapped / unwrapped seconds − 1) × 100.
    overheads: Vec<f64>,
    /// Wrapped seconds per rep.
    walls: Vec<f64>,
    wrapped_calls: u64,
    wrapped_seconds: f64,
    first: Option<Vec<(&'static str, f64)>>,
}

impl Series {
    /// Two untraced reps with opposite block orders.
    fn reps(&mut self, s: &Setup, out: &mut Outcome) {
        for wrapped_first in [true, false] {
            let p = pair(
                &s.libc,
                &s.inputs,
                &s.trace,
                &s.wrapper,
                wrapped_first,
                None,
                out,
            );
            check_counts(&mut self.first, &p.counts, out);
            self.overheads
                .push((p.wrapped_s / p.unwrapped_s - 1.0) * 100.0);
            self.walls.push(p.wrapped_s);
            self.wrapped_calls += p.calls;
            self.wrapped_seconds += p.wrapped_s;
        }
    }

    /// What a user of the wrapped program sees, in absolute time:
    /// reported, not bounded (host speed varies too much to gate it).
    fn user_metrics(&self) -> Vec<Metric> {
        vec![
            Metric::samples("app.wall_s", "s", self.walls.clone()),
            Metric::single(
                "app.calls_per_s",
                "1/s",
                self.wrapped_calls as f64 / self.wrapped_seconds,
            ),
        ]
    }
}

fn program_name(program: Program) -> &'static str {
    match program {
        Program::Steady => "app_steady",
        Program::Churn => "app_churn",
    }
}

/// The untraced run: end-to-end metrics. `overhead_pct` is the paper's
/// execution overhead: the median over reps of (wrapped / unwrapped
/// seconds − 1) × 100 on identical inputs. `setup_s` is the median of
/// `budget.setups` cold wrapper builds spread evenly over the reps.
pub fn measure(program: Program, seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, first) = match setup(program, seed) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut setup_times = vec![first];
    if program == Program::Churn {
        let distinct = s.trace.distinct_pointers;
        out.notes
            .push(format!("churn: {distinct} distinct allocated pointers"));
        if distinct <= 4096 {
            out.errors.push(format!(
                "churn program allocated only {distinct} distinct pointers, not more than 4096"
            ));
        }
    }
    let mut series = Series::default();
    // Seconds spent in reps; set-ups do not count.
    let mut measured = 0.0;
    while series.overheads.len() < 8
        || measured < budget.seconds
        || setup_times.len() < budget.setups
    {
        let due = setup_times.len() as f64 * budget.seconds / budget.setups as f64;
        if setup_times.len() < budget.setups && measured >= due {
            match timed_build(&s.libc) {
                Ok((wrapper, t)) => {
                    s.wrapper = wrapper;
                    setup_times.push(t);
                }
                Err(e) => {
                    out.errors.push(e);
                    break;
                }
            }
        }
        let started = Instant::now();
        series.reps(&s, &mut out);
        measured += started.elapsed().as_secs_f64();
    }
    out.push(Metric::samples("setup_s", "s", setup_times));
    out.push(Metric::samples(
        "overhead_pct",
        "%",
        series.overheads.clone(),
    ));
    out.info.extend(series.user_metrics());
    out.notes.push(format!(
        "{}: {} reps of {} calls in blocks of {BLOCK}",
        program_name(program),
        series.overheads.len(),
        s.trace.calls.len(),
    ));
    out
}

/// `precheck` replay of the recorded calls: each checked call's
/// `precheck` runs, timed alone, against the world exactly as the
/// program left it just before that call, then the call itself goes
/// through the wrapper. Returns ns (net of the clock's own cost) and
/// allocations per checked call, and the number of checked calls.
fn precheck_replay(s: &Setup) -> (f64, f64, usize) {
    let mut clock = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t = Instant::now();
        clock.push(t.elapsed().as_nanos() as f64);
    }
    let clock_ns = crate::stats::median(&clock);
    let mut wrapper = s.wrapper.clone();
    wrapper.reset_stats();
    let (mut world, _) = fresh_world(&s.inputs);
    let (mut ns, mut allocs, mut checked) = (0.0, 0u64, 0usize);
    for call in &s.trace.calls {
        if let Some(id) = wrapper
            .resolve(call.name)
            .filter(|&id| wrapper.is_checked(id))
        {
            let a0 = alloc::events();
            let t = Instant::now();
            let admitted = wrapper.precheck(&world, id, &call.args);
            ns += t.elapsed().as_nanos() as f64 - clock_ns;
            allocs += alloc::events() - a0;
            checked += 1;
            std::hint::black_box(admitted);
        }
        let _ = wrapper.call(&s.libc, &mut world, call.name, &call.args);
    }
    let n = checked.max(1) as f64;
    (ns / n, allocs as f64 / n, checked)
}

/// The traced run: wrapper, checker and libc per-layer metrics, the
/// user-visible numbers of the untraced reps, and (unless `census`) the
/// tracing overhead from interleaved untraced and traced reps.
pub fn profile(
    program: Program,
    seed: u64,
    budget: Budget,
    tracer: &Tracer,
    census: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let s = match setup(program, seed) {
        Ok((s, _)) => s,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut series = Series::default();
    let mut overheads = Vec::new();
    let started = Instant::now();
    let mut rep = 0u64;
    while rep < 2 || started.elapsed().as_secs_f64() < budget.seconds {
        rep += 1;
        let before = series.walls.len();
        series.reps(&s, &mut out);
        let plain: f64 = series.walls[before..].iter().sum();
        let mut traced = 0.0;
        for wrapped_first in [true, false] {
            // Counts are compared on untraced reps only: span storage
            // may allocate during a traced one.
            let p = pair(
                &s.libc,
                &s.inputs,
                &s.trace,
                &s.wrapper,
                wrapped_first,
                Some((tracer, rep)),
                &mut out,
            );
            traced += p.wrapped_s;
        }
        overheads.push((traced / plain - 1.0) * 100.0);
    }
    let totals = tracer.totals();
    let mean = |name: &str| totals.get(name).map_or(f64::NAN, |t| t.mean_ns());
    // A wrapped call is the wrapper's own work plus the library call the
    // unwrapped side makes, on an identical world, for the same recorded
    // step; both sides sample the same steps. The difference of the two
    // sides' mean spans is the wrapper's self time per call.
    out.push(Metric::single(
        "wrapper.ns_per_call",
        "ns",
        mean("wrapper.call") - mean("libc.call"),
    ));
    out.push(Metric::single("libc.ns_per_call", "ns", mean("libc.call")));
    let (check_ns, precheck_allocs, checked) = precheck_replay(&s);
    out.push(Metric::single("wrapper.check_ns_per_call", "ns", check_ns));
    out.push(Metric::single(
        "wrapper.precheck_allocs_per_call",
        "ratio",
        precheck_allocs,
    ));
    for (name, value) in series.first.clone().unwrap_or_default() {
        if let Some(unit) = crate::layer_unit(name) {
            out.push(Metric::single(name, unit, value));
        }
    }
    for m in series.user_metrics() {
        out.push(m);
    }
    if !census {
        out.push(Metric::samples("trace.overhead_pct", "%", overheads));
    }
    out.notes.push(format!(
        "{} traced: {rep} untraced/traced rep sets, {checked} checked calls replayed{}",
        program_name(program),
        if census { " (census)" } else { "" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::generate(Program::Churn, 7);
        let b = Inputs::generate(Program::Churn, 7);
        let c = Inputs::generate(Program::Churn, 8);
        assert_eq!(a.source, b.source);
        assert_eq!(format!("{:?}", a.steps), format!("{:?}", b.steps));
        assert_ne!(a.source, c.source);
    }
}
