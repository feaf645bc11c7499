//! Micro-benchmarks of the individual checking functions (§5): the
//! per-check costs that Table 2's "checking overhead" row aggregates —
//! plus the underlying bulk kernels (`probe_range`/`find_nul`) they
//! are built on, against byte-at-a-time reference loops.

use criterion::{criterion_group, criterion_main, Criterion};

use healers_core::checker::{check_value, CheckCapabilities, Tables};
use healers_libc::{file, World};
use healers_os::OpenFlags;
use healers_simproc::{AddressSpace, Protection, SimValue, PAGE_SIZE};
use healers_typesys::TypeExpr;

fn bench_checks(c: &mut Criterion) {
    let mut world = World::new();
    let caps = CheckCapabilities {
        stateful_heap: true,
        dir_tracking: true,
        file_tracking: false,
    };
    let mut tables = Tables::default();

    // A tracked heap block (stateful path) and an untracked one
    // (stateless page-probe path).
    let tracked = world.alloc_buf(4096);
    tables.heap_blocks.insert(tracked, 4096);
    let untracked = world.alloc_buf(4096);

    // A real stream for the fileno+fstat check.
    let fd = world
        .kernel
        .open("/etc/passwd", OpenFlags::read_only(), 0)
        .unwrap();
    let stream = world.alloc_buf(file::FILE_SIZE);
    file::init_file_object(&mut world.proc, stream, fd, file::F_READ).unwrap();

    // A string for the NUL-scan check.
    let s = world.alloc_cstr("a reasonably short argument string");

    let mut group = c.benchmark_group("checks");
    group.bench_function("rw_array_stateful_hit", |b| {
        b.iter(|| {
            check_value(
                &world,
                &tables,
                &caps,
                SimValue::Ptr(tracked),
                TypeExpr::RwArray(4096),
            )
        })
    });
    group.bench_function("rw_array_stateless_probe", |b| {
        b.iter(|| {
            check_value(
                &world,
                &tables,
                &caps,
                SimValue::Ptr(untracked),
                TypeExpr::RwArray(4096),
            )
        })
    });
    group.bench_function("open_file_fileno_fstat", |b| {
        b.iter(|| {
            check_value(
                &world,
                &tables,
                &caps,
                SimValue::Ptr(stream),
                TypeExpr::OpenFile,
            )
        })
    });
    group.bench_function("nts_scan", |b| {
        b.iter(|| check_value(&world, &tables, &caps, SimValue::Ptr(s), TypeExpr::Nts))
    });
    group.bench_function("scalar_nonneg", |b| {
        b.iter(|| {
            check_value(
                &world,
                &tables,
                &caps,
                SimValue::Int(42),
                TypeExpr::IntNonNeg,
            )
        })
    });
    group.bench_function("rejecting_null", |b| {
        b.iter(|| check_value(&world, &tables, &caps, SimValue::NULL, TypeExpr::RArray(44)))
    });
    group.finish();
}

/// The bulk kernels vs. their byte-at-a-time predecessors: the speedup
/// Table 2's halved checking overhead comes from.
fn bench_kernels(c: &mut Criterion) {
    let mut mem = AddressSpace::new();
    let base = 0x10_000;
    let span = 16 * PAGE_SIZE;
    mem.map(base, span, Protection::ReadWrite);
    for off in 0..span {
        mem.write_u8(base + off, 0x41).unwrap();
    }
    // A NUL near the end of the fourth page (a long but bounded scan).
    let nul_at = 4 * PAGE_SIZE - 7;
    mem.write_u8(base + nul_at, 0).unwrap();

    let probe_ref = |len: u32| {
        for i in 0..len {
            assert!(mem.probe_read(base + i) && mem.probe_write(base + i));
        }
    };
    let nul_ref = || {
        let mut i = 0;
        while mem.read_u8(base + i).unwrap() != 0 {
            i += 1;
        }
        assert_eq!(i, nul_at);
    };

    let mut group = c.benchmark_group("kernels");
    group.bench_function("probe_range_64k", |b| {
        b.iter(|| assert!(mem.probe_range(base, span, true, true)))
    });
    group.bench_function("probe_bytewise_64k", |b| b.iter(|| probe_ref(span)));
    group.bench_function("find_nul_16k", |b| {
        b.iter(|| assert_eq!(mem.find_nul(base, span, false), Some(nul_at)))
    });
    group.bench_function("find_nul_bytewise_16k", |b| b.iter(nul_ref));
    group.bench_function("probe_range_single_page", |b| {
        b.iter(|| assert!(mem.probe_range(base + 3, PAGE_SIZE - 3, true, false)))
    });
    // The 32-byte-chunk scan paths: a misaligned long scan and a short
    // scan whose NUL lands in the word/byte tail after the wide chunks.
    group.bench_function("find_nul_misaligned_16k", |b| {
        b.iter(|| assert_eq!(mem.find_nul(base + 3, span, false), Some(nul_at - 3)))
    });
    group.bench_function("find_nul_tail_40b", |b| {
        b.iter(|| assert_eq!(mem.find_nul(base + nul_at - 39, 64, false), Some(39)))
    });
    group.finish();
}

/// The compiled check plan on its two entry points: a whole wrapped
/// call and a bare `precheck` — the per-op cost Table 2's hot-path row
/// comes from.
fn bench_compiled_plan(c: &mut Criterion) {
    use healers_core::{analyze, WrapperBuilder, WrapperConfig};
    use healers_libc::Libc;

    let libc = Libc::standard();
    let decls = analyze(&libc, &["strlen", "strcpy"]);
    let make = || {
        WrapperBuilder::new()
            .decls(decls.clone())
            .config(WrapperConfig::full_auto())
            .build()
    };
    let mut world = World::new();
    let s = world.alloc_cstr("compiled plan hot path probe");

    // Group and entry names predate the single engine; kept so saved
    // Criterion baselines still compare.
    let mut group = c.benchmark_group("plan-modes");
    let mut wrapper = make();
    group.bench_function("wrapped_strlen_compiled", |b| {
        b.iter(|| {
            wrapper
                .call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
                .unwrap()
        })
    });
    let mut wrapper = make();
    let id = wrapper.resolve("strlen").unwrap();
    group.bench_function("precheck_strlen_compiled", |b| {
        b.iter(|| assert!(wrapper.precheck(&world, id, &[SimValue::Ptr(s)])))
    });
    group.finish();
}

fn bench_gate(c: &mut Criterion) {
    // The telemetry gate's whole-call cost: the same wrapped call with
    // tracing off (one relaxed atomic load on top of the checks) and
    // with it on (two `Instant::now` reads plus a histogram record).
    // The off/on delta is the price of shipping the instrumentation;
    // the "off" row should be indistinguishable from a build without
    // healers-trace at all.
    use healers_core::{analyze, WrapperBuilder, WrapperConfig};
    use healers_libc::Libc;

    let libc = Libc::standard();
    let decls = analyze(&libc, &["strlen"]);
    let mut wrapper = WrapperBuilder::new()
        .decls(decls)
        .config(WrapperConfig::full_auto())
        .build();
    let mut world = World::new();
    let s = world.alloc_cstr("telemetry gate cost probe string");

    let mut group = c.benchmark_group("telemetry-gate");
    healers_trace::set_enabled(false);
    group.bench_function("wrapped_strlen_off", |b| {
        b.iter(|| {
            wrapper
                .call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
                .unwrap()
        })
    });
    healers_trace::set_enabled(true);
    group.bench_function("wrapped_strlen_on", |b| {
        b.iter(|| {
            wrapper
                .call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
                .unwrap()
        })
    });
    healers_trace::set_enabled(false);
    group.finish();

    assert!(
        wrapper.stats.per_function["strlen"].latency_ns.count() > 0,
        "gate-on runs must have recorded latencies"
    );
}

criterion_group!(
    benches,
    bench_checks,
    bench_kernels,
    bench_compiled_plan,
    bench_gate
);
criterion_main!(benches);
