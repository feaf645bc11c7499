//! Regenerates **Figure 6**: Ballista test outcomes for the 86 POSIX
//! functions, unwrapped / fully automatic wrapper / semi-automatic
//! wrapper.
//!
//! Paper reference values (11 995 tests): unwrapped — 24.51 % crash,
//! 1.31 % silent, 74.18 % errno set, 77 of 86 functions crash;
//! full-auto — 0.93 % crash, 16 functions; semi-auto — 0.00 % crash.
//!
//! With `--jobs N` (optionally `--cache DIR`) the run routes through
//! the campaign orchestrator: analysis and evaluation fan out over N
//! workers, and cached declarations skip injection entirely. Both
//! paths seed every function's sampling RNG independently
//! (`derive_seed`), so the serial run and `--jobs N` print identical
//! reports for any N. `--on-violation abort|error|repair` overrides
//! the wrapped configurations' violation policy (the CI repair-smoke
//! job byte-diffs the repair run across jobs and against
//! `tests/expected/fig6.repair.txt`).

use healers_ballista::{Ballista, BallistaReport, Mode};
use healers_campaign::{Campaign, CampaignConfig};
use healers_core::ViolationAction;
use healers_libc::Libc;

fn print_report(report: &BallistaReport, detail: bool) {
    println!("{}", report.render());
    let failing = report.functions_with_failures();
    if !failing.is_empty() {
        println!("    still failing: {}", failing.join(", "));
    }
    if detail {
        println!(
            "    {:<14} {:>6} {:>6} {:>6} {:>5} {:>7} {:>7}",
            "function", "tests", "crash", "abort", "hang", "errno", "silent"
        );
        for (name, o) in report.iter() {
            println!(
                "    {:<14} {:>6} {:>6} {:>6} {:>5} {:>7} {:>7}",
                name, o.tests, o.crashes, o.aborts, o.hangs, o.errno_set, o.silent
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let detail = args.iter().any(|a| a == "--detail");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let cache_dir = args
        .iter()
        .position(|a| a == "--cache")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let action = args.iter().position(|a| a == "--on-violation").map(|i| {
        args.get(i + 1)
            .expect("--on-violation needs a policy token")
            .parse::<ViolationAction>()
            .expect("unknown violation policy")
    });

    let mut ballista = Ballista::new();
    if let Some(action) = action {
        ballista = ballista.with_action(action);
    }
    let libc = Libc::standard();

    println!("Figure 6 — Ballista outcomes for 86 POSIX functions");
    println!("====================================================");

    if jobs.is_some() || cache_dir.is_some() {
        let campaign = Campaign::new(&CampaignConfig {
            jobs: jobs.unwrap_or(1),
            cache_dir,
            journal_path: None,
            trace_path: None,
        })
        .expect("campaign setup");
        let targets = healers_ballista::ballista_targets();
        eprintln!("campaign analysis over {} functions…", targets.len());
        let (decls, metrics) = campaign.analyze(&libc, &targets).expect("campaign analyze");
        eprintln!("{metrics}");
        for mode in Mode::ALL {
            let (report, metrics) = campaign.evaluate(&libc, &ballista, mode, decls.clone());
            print_report(&report, detail);
            eprintln!("{metrics}");
        }
        campaign.finish().expect("campaign journal");
    } else {
        eprintln!("running fault-injection analysis over 86 functions…");
        let decls = ballista.analyze_targets(&libc);
        let unsafe_count = decls.iter().filter(|d| d.is_unsafe()).count();
        eprintln!(
            "analysis done: {unsafe_count} of {} functions unsafe",
            decls.len()
        );
        for mode in Mode::ALL {
            let report = ballista.run_with_decls(&libc, mode, decls.clone());
            print_report(&report, detail);
        }
    }

    println!();
    println!("Paper (glibc 2.2 on Linux 2.4.4, 11995 tests):");
    println!(
        "  Unwrapped          crash=24.51%  silent=1.31%  errno-set=74.18%  failing-functions=77"
    );
    println!(
        "  Full-Auto Wrapped  crash=0.93%                                   failing-functions=16"
    );
    println!(
        "  Semi-Auto Wrapped  crash=0.00%                                   failing-functions=0"
    );
}
