//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **adaptive vs. exhaustive** test-case generation (§4.1: adaptive
//!   sizing avoids "a massive number of static test cases");
//! * **stateful vs. stateless** memory checking (§5.1/§8: table lookups
//!   vs. page probing — and what each can detect);
//! * **wrapper granularity** (§2: full wrapper vs. minimal wrapper vs.
//!   wrapping only a chosen function subset).

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, Criterion};

use healers_ballista::ballista_targets;
use healers_bench::{run_workload, workloads};
use healers_core::{analyze, WrapperBuilder, WrapperConfig};
use healers_inject::FaultInjector;
use healers_libc::{Libc, World};
use healers_simproc::{run_in_child, Protection, SimValue};

/// Static-pool robust-size discovery: a non-adaptive generator must
/// predeclare its test sizes and run *all* of them — "a massive number
/// of static test cases" (§4.1) — because without fault-address
/// feedback it cannot know when to stop or where the boundary is. The
/// pool here covers 0..=256; a structure larger than the pool bound
/// would be mis-sized, which is the adaptive generator's other
/// advantage.
fn static_pool_asctime_size(libc: &Libc) -> u32 {
    let mut world = World::new_guarded();
    let func = libc.get("asctime").unwrap();
    let mut smallest_success = None;
    for size in 0..=256u32 {
        let addr = world
            .proc
            .heap
            .alloc_with_prot(&mut world.proc.mem, size, Protection::ReadOnly)
            .unwrap();
        let (result, _) = run_in_child(&world, |w: &mut World| {
            w.proc.reset_fuel();
            func.invoke(w, &[SimValue::Ptr(addr)])
        });
        if result.value().is_some() && smallest_success.is_none() {
            smallest_success = Some(size);
        }
    }
    smallest_success.expect("pool bound too small")
}

fn bench_adaptive_vs_exhaustive(c: &mut Criterion) {
    let libc = Libc::standard();
    let mut group = c.benchmark_group("injection_strategy");
    group.sample_size(10);
    group.bench_function("adaptive_asctime", |b| {
        b.iter(|| FaultInjector::new(&libc, "asctime").unwrap().run())
    });
    group.bench_function("static_pool_asctime", |b| {
        b.iter(|| {
            let s = static_pool_asctime_size(&libc);
            assert_eq!(s, 44);
            s
        })
    });
    group.finish();
}

fn bench_checking_modes(c: &mut Criterion) {
    let libc = Libc::standard();
    let decls = analyze(&libc, &ballista_targets());
    let gcc = workloads().into_iter().find(|w| w.name == "gcc").unwrap();

    let mut group = c.benchmark_group("wrapper_granularity");
    group.sample_size(10);
    group.bench_function("full_auto", |b| {
        b.iter(|| {
            let w = WrapperBuilder::new()
                .decls(decls.clone())
                .config(WrapperConfig::full_auto())
                .build();
            run_workload(&libc, &gcc, Some(w))
        })
    });
    group.bench_function("semi_auto", |b| {
        b.iter(|| {
            let w = WrapperBuilder::new()
                .decls(decls.clone())
                .overrides(&healers_core::semi_auto_overrides())
                .config(WrapperConfig::semi_auto())
                .build();
            run_workload(&libc, &gcc, Some(w))
        })
    });
    group.bench_function("minimal_stateless", |b| {
        b.iter(|| {
            let w = WrapperBuilder::new()
                .decls(decls.clone())
                .config(WrapperConfig::minimal())
                .build();
            run_workload(&libc, &gcc, Some(w))
        })
    });
    group.bench_function("full_auto_no_check_cache", |b| {
        // Ablate the §7-cited validity-caching optimization ([3]),
        // which full_auto now enables by default: every pointer is
        // re-validated through the bulk kernels on every call.
        b.iter(|| {
            let config = WrapperConfig {
                check_cache: false,
                ..WrapperConfig::full_auto()
            };
            let w = WrapperBuilder::new()
                .decls(decls.clone())
                .config(config)
                .build();
            run_workload(&libc, &gcc, Some(w))
        })
    });
    group.bench_function("string_functions_only", |b| {
        let enabled: BTreeSet<String> = ["strcpy", "strcat", "strncpy", "strlen", "strcmp"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        b.iter(|| {
            let config = WrapperConfig {
                enabled: Some(enabled.clone()),
                ..WrapperConfig::full_auto()
            };
            let w = WrapperBuilder::new()
                .decls(decls.clone())
                .config(config)
                .build();
            run_workload(&libc, &gcc, Some(w))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_adaptive_vs_exhaustive, bench_checking_modes);
criterion_main!(benches);
