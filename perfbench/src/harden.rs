//! `harden`: cold hardening of the 86 Ballista targets — §3 extraction,
//! fault-injection analysis without a declaration cache, C wrapper
//! emission, and Ballista evaluation in all three modes. It runs in the
//! census of every traced run, where it gives the per-layer metrics of
//! the hardening layers.

use std::panic::AssertUnwindSafe;
use std::time::Instant;

use healers_ballista::{ballista_targets, Ballista, BallistaReport, Mode};
use healers_campaign::{run_indexed, Campaign, CampaignConfig, CampaignMetrics};
use healers_core::{decls_to_xml, emit_wrapper_source_as, FunctionDecl, ViolationAction};
use healers_corpus::{recover_all, Corpus, CorpusConfig};
use healers_libc::Libc;

use crate::stats::{fnv1a, FNV_BASIS};
use crate::trace::{SpanId, Tracer};
use crate::{host, Metric, Outcome};

/// Safe/unsafe attribute split of the 86 targets (§6).
const SAFE: usize = 9;
const UNSAFE: usize = 77;

/// Everything one pass consumes, built once per set-up.
struct Inputs {
    libc: Libc,
    corpus: Corpus,
    targets: Vec<&'static str>,
    ballista: Ballista,
    jobs: usize,
}

fn setup(seed: u64) -> Inputs {
    Inputs {
        libc: Libc::standard(),
        corpus: CorpusConfig {
            seed,
            ..CorpusConfig::default()
        }
        .generate(),
        targets: ballista_targets(),
        ballista: Ballista::new().with_seed(seed),
        jobs: host::nproc(),
    }
}

/// What one pass measured and produced.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    extract_s: f64,
    analyze_s: f64,
    emit_s: f64,
    /// Evaluation seconds in [`Mode::ALL`] order.
    eval_s: [f64; 3],
    /// Σ per-function analysis seconds (traced passes only).
    busy_s: f64,
    prototypes_found: u64,
    analysis: CampaignMetrics,
    evaluation: CampaignMetrics,
    emit_bytes: u64,
    xml_digest: u64,
    errors: Vec<String>,
}

impl Pass {
    /// Library calls the pass made: injected calls plus Ballista tests.
    fn calls(&self) -> u64 {
        self.analysis.injected_calls + self.evaluation.evaluation_tests
    }

    /// The exactly repeatable counts of a pass, by metric name.
    fn counts(&self) -> Vec<(&'static str, f64)> {
        let snapshots = self.analysis.snapshots + self.evaluation.snapshots;
        let copied = self.analysis.pages_copied + self.evaluation.pages_copied;
        vec![
            ("corpus.prototypes_found", self.prototypes_found as f64),
            ("inject.calls", self.analysis.injected_calls as f64),
            ("inject.retries", self.analysis.adaptive_retries as f64),
            ("inject.fuel", self.analysis.fuel_used as f64),
            ("simproc.snapshots", snapshots as f64),
            (
                "simproc.pages_shared",
                (self.analysis.pages_shared + self.evaluation.pages_shared) as f64,
            ),
            (
                "simproc.pages_copied_per_snapshot",
                copied as f64 / snapshots.max(1) as f64,
            ),
            ("ballista.tests", self.evaluation.evaluation_tests as f64),
            ("emit.bytes", self.emit_bytes as f64),
            ("harden.xml_digest", self.xml_digest as f64),
        ]
    }
}

/// Analysis decomposed per function for the traced run: each function
/// goes through its own `Campaign::analyze` call, scheduled over `jobs`
/// threads by the campaign's public scheduler, inside one span.
fn analyze_per_function(
    inputs: &Inputs,
    tracer: &Tracer,
    parent: SpanId,
    rep: u64,
) -> std::io::Result<(Vec<FunctionDecl>, CampaignMetrics, f64)> {
    let results = run_indexed(inputs.jobs, &inputs.targets, |_, &name| {
        let span = tracer.open("inject.function", Some(parent), rep);
        let result = Campaign::new(&CampaignConfig::default()).and_then(|campaign| {
            let analyzed = campaign.analyze(&inputs.libc, &[name]);
            campaign.finish()?;
            analyzed
        });
        tracer.close(span);
        result.map(|(decls, metrics)| (decls, metrics, tracer.duration_ns(span)))
    });
    let mut decls = Vec::with_capacity(inputs.targets.len());
    let mut metrics = CampaignMetrics::default();
    let mut busy_ns = 0u64;
    for result in results {
        let (mut one, m, ns) = result?;
        decls.append(&mut one);
        metrics.absorb(&m);
        busy_ns += ns;
    }
    Ok((decls, metrics, busy_ns as f64 / 1e9))
}

/// One cold hardening pass. With a tracer, every step gets a span and
/// the analysis is decomposed per function.
fn pass(inputs: &Inputs, traced: Option<(&Tracer, u64)>) -> std::io::Result<Pass> {
    let mut out = Pass::default();
    let started = Instant::now();
    let root = traced.map(|(t, rep)| t.open("harden.pass", None, rep));
    let step = |name: &'static str| traced.map(|(t, rep)| t.open(name, root, rep));
    let end = |span: Option<SpanId>| {
        if let (Some(span), Some((t, _))) = (span, traced) {
            t.close(span);
        }
    };

    // §3: prototype extraction.
    let t = Instant::now();
    let span = step("corpus.extract");
    let recovery = recover_all(&inputs.corpus);
    end(span);
    out.extract_s = t.elapsed().as_secs_f64();
    out.prototypes_found = recovery.iter().filter(|r| r.prototype.is_some()).count() as u64;
    for name in &inputs.targets {
        let recovered = recovery.outcome(name).and_then(|r| r.prototype.as_ref());
        let truth = inputs.corpus.truth.get(*name).and_then(Option::as_ref);
        if recovered.is_none() || recovered != truth {
            out.errors.push(format!(
                "extraction recovered no or a wrong prototype for {name}"
            ));
        }
    }

    // §3.4: fault-injection analysis, no declaration cache.
    let campaign = Campaign::new(&CampaignConfig {
        jobs: inputs.jobs,
        ..CampaignConfig::default()
    })?;
    let t = Instant::now();
    let span = step("campaign.analyze");
    let decls = match (traced, span) {
        (Some((tracer, rep)), Some(parent)) => {
            let (decls, metrics, busy_s) = analyze_per_function(inputs, tracer, parent, rep)?;
            out.analysis = metrics;
            out.busy_s = busy_s;
            decls
        }
        _ => {
            let (decls, metrics) = campaign.analyze(&inputs.libc, &inputs.targets)?;
            out.analysis = metrics;
            decls
        }
    };
    end(span);
    out.analyze_s = t.elapsed().as_secs_f64();
    let safe = decls.iter().filter(|d| !d.is_unsafe()).count();
    if (safe, decls.len() - safe) != (SAFE, UNSAFE) {
        out.errors.push(format!(
            "safe/unsafe split is {safe}/{}, expected {SAFE}/{UNSAFE}",
            decls.len() - safe
        ));
    }
    let xml = decls_to_xml(&decls);
    out.xml_digest = fnv1a(FNV_BASIS, xml.as_bytes()) >> 11; // exact in an f64

    // §4: C wrapper emission.
    let t = Instant::now();
    let span = step("core.emit");
    let source = emit_wrapper_source_as(&decls, ViolationAction::ReturnError);
    end(span);
    out.emit_s = t.elapsed().as_secs_f64();
    out.emit_bytes = source.len() as u64;

    // §6: Ballista evaluation in the three configurations.
    let names = ["ballista.unwrapped", "ballista.full", "ballista.semi"];
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        let mode_decls = if mode == Mode::Unwrapped {
            Vec::new()
        } else {
            decls.clone()
        };
        let t = Instant::now();
        let span = step(names[i]);
        let (report, metrics): (BallistaReport, CampaignMetrics) =
            campaign.evaluate(&inputs.libc, &inputs.ballista, mode, mode_decls);
        end(span);
        out.eval_s[i] = t.elapsed().as_secs_f64();
        out.evaluation.absorb(&metrics);
        if mode == Mode::SemiAuto && report.totals().failures() != 0 {
            let totals = report.totals();
            out.errors.push(format!(
                "semi-auto mode recorded {} crashes, {} hangs, {} aborts",
                totals.crashes, totals.hangs, totals.aborts
            ));
        }
    }
    campaign.finish()?;
    end(root);
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Run a pass, turning a panic or I/O failure into a failed pass of
/// every target.
fn guarded_pass(inputs: &Inputs, traced: Option<(&Tracer, u64)>) -> Result<Pass, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| pass(inputs, traced))) {
        Ok(Ok(p)) => Ok(p),
        Ok(Err(e)) => Err(format!("hardening pass failed: {e}")),
        Err(_) => Err("hardening pass panicked".to_string()),
    }
}

/// Compare a pass's counts with the first pass's: any difference fails
/// the run.
fn check_counts(first: &[(&'static str, f64)], pass: &Pass, errors: &mut Vec<String>) {
    for ((name, a), (_, b)) in first.iter().zip(pass.counts()) {
        if *a != b {
            errors.push(format!("count {name} differs between passes: {a} vs {b}"));
        }
    }
}

/// The traced census run: per-layer metrics of corpus, inject, simproc,
/// campaign, ballista and emit from one traced pass, and the time to
/// harden the library from one untraced pass. The counts of the two
/// passes must be equal.
pub fn profile(seed: u64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = setup(seed);
    let targets = inputs.targets.len() as u64;
    let mut passes = [None, None];
    for (i, traced) in [None, Some((tracer, 1))].into_iter().enumerate() {
        out.attempted += targets;
        match guarded_pass(&inputs, traced) {
            Ok(p) => {
                out.errors.extend(p.errors.iter().cloned());
                passes[i] = Some(p);
            }
            Err(e) => {
                out.failed += targets;
                out.errors.push(e);
            }
        }
    }
    let [Some(plain), Some(p)] = passes else {
        return out;
    };
    check_counts(&plain.counts(), &p, &mut out.errors);
    let jobs = inputs.jobs as f64;
    out.push(Metric::single("harden.wall_s", "s", plain.wall_s));
    out.push(Metric::single(
        "harden.calls_per_s",
        "1/s",
        plain.calls() as f64 / plain.wall_s,
    ));
    out.push(Metric::single("corpus.extract_s", "s", p.extract_s));
    out.push(Metric::single("inject.busy_s", "s", p.busy_s));
    out.push(Metric::single(
        "campaign.parallel_eff",
        "ratio",
        p.busy_s / (jobs * p.analyze_s),
    ));
    out.push(Metric::single(
        "campaign.idle_s",
        "s",
        jobs * p.analyze_s - p.busy_s,
    ));
    let modes = [
        "ballista.eval_s.unwrapped",
        "ballista.eval_s.full",
        "ballista.eval_s.semi",
    ];
    for (name, seconds) in modes.into_iter().zip(p.eval_s) {
        out.push(Metric::single(name, "s", seconds));
    }
    out.push(Metric::single(
        "ballista.tests_per_s",
        "1/s",
        p.evaluation.evaluation_tests as f64 / p.eval_s.iter().sum::<f64>(),
    ));
    out.push(Metric::single("emit.s", "s", p.emit_s));
    for (name, value) in p.counts() {
        if let Some(unit) = crate::layer_unit(name) {
            out.push(Metric::single(name, unit, value));
        }
    }
    out.notes.push(format!(
        "harden (census): pass wall {:.4} s untraced, {:.4} s traced; extract {:.4} analyze {:.4} \
         emit {:.4} eval unwrapped {:.4} full {:.4} semi {:.4}",
        plain.wall_s,
        p.wall_s,
        p.extract_s,
        p.analyze_s,
        p.emit_s,
        p.eval_s[0],
        p.eval_s[1],
        p.eval_s[2]
    ));
    out
}
