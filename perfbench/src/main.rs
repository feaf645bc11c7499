//! The repository's benchmark: one seeded command that runs a workload
//! through the public APIs of the HEALERS crates, checks its outputs and
//! prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <app_steady|app_churn|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: the named workload with
//! spans around every call into a layer, plus a short traced census of
//! the layers that workload does not exercise (cold hardening among
//! them), giving every per-layer metric and the tracing overhead. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/README.md` defines every metric per workload.

mod alloc;
mod app;
mod harden;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("overhead_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("harden.wall_s", "s"),
    ("harden.calls_per_s", "1/s"),
    ("app.wall_s", "s"),
    ("app.calls_per_s", "1/s"),
    ("serve.burst_s", "s"),
    ("serve.rps_max", "1/s"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("corpus.extract_s", "s"),
    ("corpus.prototypes_found", "count"),
    ("inject.busy_s", "s"),
    ("inject.calls", "count"),
    ("inject.retries", "count"),
    ("inject.fuel", "count"),
    ("simproc.snapshots", "count"),
    ("simproc.pages_shared", "count"),
    ("simproc.pages_copied_per_snapshot", "ratio"),
    ("campaign.parallel_eff", "ratio"),
    ("campaign.idle_s", "s"),
    ("ballista.eval_s.unwrapped", "s"),
    ("ballista.eval_s.full", "s"),
    ("ballista.eval_s.semi", "s"),
    ("ballista.tests", "count"),
    ("ballista.tests_per_s", "1/s"),
    ("emit.s", "s"),
    ("emit.bytes", "bytes"),
    ("wrapper.ns_per_call", "ns"),
    ("wrapper.check_ns_per_call", "ns"),
    ("wrapper.checks_per_call", "ratio"),
    ("wrapper.cache_hit_ratio", "ratio"),
    ("wrapper.allocs_per_call", "ratio"),
    ("wrapper.precheck_allocs_per_call", "ratio"),
    ("checker.bytes_scanned_per_call", "bytes"),
    ("checker.run_probes_per_call", "ratio"),
    ("checker.nul_scans_per_call", "ratio"),
    ("checker.format_checks", "count"),
    ("libc.ns_per_call", "ns"),
    ("frame.encode_ns", "ns"),
    ("frame.read_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("plans.resolve_ns", "ns"),
    ("plans.validate_ns", "ns"),
    ("plans.bytes_scanned_per_request", "bytes"),
    ("daemon.shed", "count"),
    ("daemon.queue_highwater", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("serve.allocs_per_frame", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a per-layer metric, or `None` for a name that is not one.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds the measured phase runs for (at least the minimum
    /// repetitions each workload needs), not counting set-ups.
    pub seconds: f64,
    /// Cold set-ups, spread evenly over the measured phase (their
    /// median is `setup_s`).
    pub setups: usize,
}

/// Set-ups per run. They are spread over the run rather than done back
/// to back, so that one slow stretch of a shared host does not decide
/// their median.
const SETUPS: usize = 8;

/// Seconds each census workload of a traced run measures for.
const CENSUS: Budget = Budget {
    seconds: 0.5,
    setups: 1,
};

/// One reported metric: its value plus the samples it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    /// The median of `samples`.
    pub fn samples(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: stats::median(&samples),
            samples,
        }
    }

    /// A single measured value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Human-readable context lines.
    pub notes: Vec<String>,
    /// Absolute-time numbers printed (and kept in the run metadata) but
    /// not part of the result's metrics.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// Add (or replace) a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.retain(|m| m.name != metric.name);
        self.metrics.push(metric);
    }

    /// Fold a census outcome in: its metrics do not replace ours, its
    /// failures and check errors count.
    fn absorb_census(&mut self, census: Outcome) {
        for m in census.metrics {
            if !self.metrics.iter().any(|own| own.name == m.name) {
                self.metrics.push(m);
            }
        }
        self.failed += census.failed;
        self.attempted += census.attempted;
        self.errors.extend(census.errors);
        self.notes.extend(census.notes);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AppSteady,
    AppChurn,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::AppSteady, Workload::AppChurn, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::AppSteady => "app_steady",
            Workload::AppChurn => "app_churn",
            Workload::Serve => "serve",
        }
    }

    fn measure(self, seed: u64, budget: Budget) -> Outcome {
        match self {
            Workload::AppSteady => app::measure(app::Program::Steady, seed, budget),
            Workload::AppChurn => app::measure(app::Program::Churn, seed, budget),
            Workload::Serve => serve::measure(seed, budget),
        }
    }

    fn profile(self, seed: u64, budget: Budget, tracer: &trace::Tracer) -> Outcome {
        match self {
            Workload::AppSteady => app::profile(app::Program::Steady, seed, budget, tracer, false),
            Workload::AppChurn => app::profile(app::Program::Churn, seed, budget, tracer, false),
            Workload::Serve => serve::profile(seed, budget, tracer, false),
        }
    }

    /// Traced runs of the layers this workload does not exercise: cold
    /// hardening owns corpus/inject/simproc/campaign/ballista/emit, the
    /// app workloads own wrapper/checker/libc, and serve owns
    /// frame/proto/plans/daemon/loadgen.
    fn census(self, seed: u64, tracer: &trace::Tracer) -> Vec<Outcome> {
        let other = match self {
            Workload::AppSteady | Workload::AppChurn => serve::profile(seed, CENSUS, tracer, true),
            Workload::Serve => app::profile(app::Program::Steady, seed, CENSUS, tracer, true),
        };
        vec![harden::profile(seed, tracer), other]
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Where result and trace files go: inside the build directory, which
/// the repository ignores.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench-out")
}

fn json_number(v: f64) -> String {
    // Display prints the shortest string that round-trips: all digits.
    format!("{v}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <app_steady|app_churn|serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = host::Fingerprint::probe();
    let budget = Budget {
        seconds: args.seconds,
        setups: SETUPS,
    };
    let (mut outcome, expected) = if args.trace {
        let tracer = trace::Tracer::with_capacity(1 << 20);
        let mut own = args.workload.profile(args.seed, budget, &tracer);
        for census in args.workload.census(args.seed, &tracer) {
            own.absorb_census(census);
        }
        let dir = out_dir();
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tracer.write_chrome(&path)) {
            own.notes
                .push(format!("could not write {}: {e}", path.display()));
        } else {
            own.notes
                .push(format!("spans written to {}", path.display()));
        }
        (own, PER_LAYER)
    } else {
        let mut own = args.workload.measure(args.seed, budget);
        own.push(Metric::single("peak_rss_mb", "MB", host::peak_rss_mb()));
        (own, END_TO_END)
    };

    // The reported set must be exactly the declared one.
    let mut by_name: BTreeMap<&str, &Metric> = BTreeMap::new();
    for m in &outcome.metrics {
        by_name.insert(m.name.as_str(), m);
    }
    let mut problems = Vec::new();
    for (name, unit) in expected {
        match by_name.get(name) {
            None => problems.push(format!("metric {name} was not measured")),
            Some(m) if m.unit != *unit => {
                problems.push(format!("metric {name} has unit {} not {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => {
                problems.push(format!("metric {name} is not finite ({})", m.value))
            }
            Some(_) => {}
        }
    }
    for name in by_name.keys() {
        if !expected.iter().any(|(n, _)| n == name) {
            problems.push(format!("metric {name} is not declared"));
        }
    }
    outcome.errors.extend(problems);
    // A defect that repeats every rep is reported once, with its count.
    let mut counted: Vec<(String, usize)> = Vec::new();
    for e in outcome.errors.drain(..) {
        match counted.iter_mut().find(|(seen, _)| *seen == e) {
            Some((_, n)) => *n += 1,
            None => counted.push((e, 1)),
        }
    }
    outcome.errors = counted
        .into_iter()
        .map(|(e, n)| {
            if n == 1 {
                e
            } else {
                format!("{e} ({n} times)")
            }
        })
        .collect();
    if outcome.attempted == 0 {
        outcome
            .errors
            .push("no operation was attempted".to_string());
        outcome.attempted = 1;
        outcome.failed = 1;
    }
    let correct = outcome.errors.is_empty();

    // Human-readable report.
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host cpu=\"{}\" nproc={} rustc=\"{}\" commit={}",
        host.cpu_model, host.nproc, host.rustc, host.commit
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, _) in expected {
        if let Some(m) = by_name.get(name) {
            let (q1, med, q3) = stats::quartiles(&m.samples);
            println!(
                "{name:<36} {:>16.6} {:<6} median {med:.6} q1 {q1:.6} q3 {q3:.6} n {}",
                m.value,
                m.unit,
                m.samples.len()
            );
        }
    }
    for m in &outcome.info {
        let (q1, med, q3) = stats::quartiles(&m.samples);
        println!(
            "{:<36} {:>16.6} {:<6} median {med:.6} q1 {q1:.6} q3 {q3:.6} n {} (reported, not bounded)",
            m.name,
            m.value,
            m.unit,
            m.samples.len()
        );
    }
    for e in &outcome.errors {
        println!("# CHECK FAILED: {e}");
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "# attempted {} failed {} fail_pct {:.4}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 * 100.0 / outcome.attempted as f64
    );

    // Run metadata: host fingerprint, seed, and per-metric quartiles.
    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cpu_model\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"quartiles\":{{",
        args.workload.name(),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        host.cpu_model.replace(['"', '\\'], ""),
        host.nproc,
        host.rustc.replace(['"', '\\'], ""),
        host.commit.replace(['"', '\\'], ""),
    );
    let mut result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted, outcome.failed
    );
    let mut first = true;
    for (name, _) in expected {
        let Some(m) = by_name.get(name) else { continue };
        if !m.value.is_finite() {
            continue;
        }
        let sep = if first { "" } else { "," };
        first = false;
        let (q1, med, q3) = stats::quartiles(&m.samples);
        let _ = write!(
            meta,
            "{sep}\"{name}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            json_number(med),
            json_number(q1),
            json_number(q3),
            m.samples.len()
        );
        let _ = write!(
            result,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            json_number(m.value),
            m.unit
        );
    }
    meta.push_str("},\"info\":{");
    for (i, m) in outcome.info.iter().enumerate() {
        let (q1, med, q3) = stats::quartiles(&m.samples);
        let _ = write!(
            meta,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            if i == 0 { "" } else { "," },
            m.name,
            json_number(m.value),
            m.unit,
            json_number(med),
            json_number(q1),
            json_number(q3),
            m.samples.len()
        );
    }
    meta.push_str("}}}");
    result.push_str("}}");
    let dir = out_dir();
    let path = dir.join(format!(
        "result-{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{meta}\n{result}\n")));
    println!("{meta}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this binary reports, with the same units.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| {
            let at = doc.find(&format!("\"{key}\"")).expect(key);
            let rest = &doc[at..];
            rest[..rest.find(']').expect("section end")].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), list.len(), "{key} count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
