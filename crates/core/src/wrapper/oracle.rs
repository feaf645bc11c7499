//! The reference check engine, test builds only: the original
//! interpreted walk over a function's per-argument claim list, its
//! format scan, and its executable assertions, built on a full match
//! over the type lattice ([`check_value_counted`]).
//!
//! The shipping wrapper runs compiled [`CheckOp`](crate::plan::CheckOp)
//! programs only. In test builds every run of that program is shadowed
//! by [`Reference::run`] on copies of the wrapper's stats and validity
//! cache, and [`Reference::assert_agrees`] then demands the same
//! verdict, the same `checks`/`check_cache_hits`/`check_kinds`/
//! `check_outcomes`, and the same cache contents — so every core unit
//! test that drives the wrapper is also a compiled-vs-reference test.
//! `plan`'s differential tests sweep [`check_value_counted`] and
//! [`check_assertion_counted`] against `eval_op` op by op.

use healers_libc::World;
use healers_os::Termios;
use healers_simproc::SimValue;
use healers_typesys::TypeExpr;

use super::{CheckFailure, RobustnessWrapper, WrapperStats, CHECK_CACHE_CAP};
use crate::checker::{
    check_dir_integrity, check_file, check_region, scan_string, CheckCapabilities, CheckCounters,
    CheckKind, Tables, MAX_STRING_SCAN,
};
use crate::overrides::SizeAssertion;
use crate::plan::{assertion_size, check_format, format_spec, ValidityCache};

/// Check one value against one (checkable) type by matching the type
/// lattice directly, recording kernel traffic in `ctrs`.
///
/// # Panics
///
/// Panics when asked to check a type for which no checking function
/// exists under the given capabilities.
pub(crate) fn check_value_counted(
    world: &World,
    tables: &Tables,
    caps: &CheckCapabilities,
    value: SimValue,
    t: TypeExpr,
    ctrs: &mut CheckCounters,
) -> bool {
    use TypeExpr::*;
    let ptr = value.as_ptr();
    match t {
        Unconstrained | IntAny => true,
        Null => value.is_null(),
        RArray(s) => check_region(world, tables, caps, ptr, s, true, false, ctrs),
        WArray(s) => check_region(world, tables, caps, ptr, s, false, true, ctrs),
        RwArray(s) => check_region(world, tables, caps, ptr, s, true, true, ctrs),
        RArrayNull(s) => {
            value.is_null() || check_region(world, tables, caps, ptr, s, true, false, ctrs)
        }
        WArrayNull(s) => {
            value.is_null() || check_region(world, tables, caps, ptr, s, false, true, ctrs)
        }
        RwArrayNull(s) => {
            value.is_null() || check_region(world, tables, caps, ptr, s, true, true, ctrs)
        }
        OpenFile => check_file(world, tables, caps, ptr, false, false, ctrs),
        OpenFileNull => value.is_null() || check_file(world, tables, caps, ptr, false, false, ctrs),
        RFile => check_file(world, tables, caps, ptr, true, false, ctrs),
        WFile => check_file(world, tables, caps, ptr, false, true, ctrs),
        OpenDir => tables.open_dirs.contains(&ptr) && check_dir_integrity(world, ptr, ctrs),
        OpenDirNull => {
            value.is_null()
                || (tables.open_dirs.contains(&ptr) && check_dir_integrity(world, ptr, ctrs))
        }
        Nts => scan_string(world, ptr, MAX_STRING_SCAN, false, ctrs).is_some(),
        NtsWritable => scan_string(world, ptr, MAX_STRING_SCAN, true, ctrs).is_some(),
        NtsNull => {
            value.is_null() || scan_string(world, ptr, MAX_STRING_SCAN, false, ctrs).is_some()
        }
        NtsMax(l) => scan_string(world, ptr, l, false, ctrs).is_some(),
        ModeShort => scan_string(
            world,
            ptr,
            healers_typesys::order::MODE_MAX_LEN,
            false,
            ctrs,
        )
        .is_some(),
        ModeValid => match scan_string(
            world,
            ptr,
            healers_typesys::order::MODE_MAX_LEN,
            false,
            ctrs,
        ) {
            Some(len) if len > 0 => {
                let first = world.proc.mem.read_u8(ptr).unwrap_or(0);
                matches!(first, b'r' | b'w' | b'a')
            }
            _ => false,
        },
        IntNeg => value.as_int() < 0,
        IntZero => value.as_int() == 0,
        IntPos => value.as_int() > 0,
        IntNonNeg => value.as_int() >= 0,
        IntNonPos => value.as_int() <= 0,
        FdOpen => world.kernel.fd_is_open(value.as_int() as i32),
        FdReadable => world
            .kernel
            .fd_flags(value.as_int() as i32)
            .map(|f| f.read)
            .unwrap_or(false),
        FdWritable => world
            .kernel
            .fd_flags(value.as_int() as i32)
            .map(|f| f.write)
            .unwrap_or(false),
        SpeedValid => {
            let v = value.as_int();
            v >= 0 && v <= i64::from(u32::MAX) && Termios::is_valid_speed(v as u32)
        }
        other => panic!("no checking function for {other}"),
    }
}

/// Check one executable size assertion against a call's arguments: the
/// required size, then a read or write region claim of that size on
/// the buffer argument (a zero size admits without probing).
pub(crate) fn check_assertion_counted(
    world: &World,
    tables: &Tables,
    caps: &CheckCapabilities,
    args: &[SimValue],
    a: &SizeAssertion,
    ctrs: &mut CheckCounters,
) -> bool {
    let value = args.get(a.buf_arg).copied().unwrap_or(SimValue::Void);
    match assertion_size(world, args, &a.terms, ctrs) {
        Some(needed) if needed <= u64::from(u32::MAX) => {
            let t = if a.write {
                TypeExpr::WArray(needed as u32)
            } else {
                TypeExpr::RArray(needed as u32)
            };
            needed == 0 || check_value_counted(world, tables, caps, value, t, ctrs)
        }
        _ => false,
    }
}

/// The reference walk's result for one check run, computed on copies
/// of the wrapper state it touches.
pub(super) struct Reference {
    idx: usize,
    verdict: Result<(), CheckFailure>,
    stats: WrapperStats,
    cache: ValidityCache,
}

impl Reference {
    /// Interpret entry `idx`'s checks over `args` against `w`'s
    /// current state, leaving `w` untouched.
    pub(super) fn run(
        w: &RobustnessWrapper,
        world: &World,
        idx: usize,
        args: &[SimValue],
    ) -> Reference {
        let mut stats = w.stats.clone();
        let mut cache = w.check_cache.clone();
        let verdict = interpret(w, world, idx, args, &mut stats, &mut cache);
        Reference {
            idx,
            verdict,
            stats,
            cache,
        }
    }

    /// Assert that the compiled program, having just produced
    /// `verdict` and updated `w`, agrees with the reference walk.
    pub(super) fn assert_agrees(self, w: &RobustnessWrapper, verdict: &Result<(), CheckFailure>) {
        let name = &w.entries[self.idx].name;
        assert_eq!(verdict, &self.verdict, "{name}: verdict diverged");
        let (got, want) = (&w.stats, &self.stats);
        assert_eq!(got.checks, want.checks, "{name}: checks diverged");
        assert_eq!(
            got.check_cache_hits, want.check_cache_hits,
            "{name}: cache hits diverged"
        );
        assert_eq!(
            got.check_kinds, want.check_kinds,
            "{name}: kernel counters diverged"
        );
        assert_eq!(
            got.check_outcomes, want.check_outcomes,
            "{name}: outcome tallies diverged"
        );
        assert_eq!(w.check_cache, self.cache, "{name}: validity cache diverged");
    }
}

/// The interpreted walk: claims in argument order, then the
/// `printf`-family format scan, then the function's assertions in
/// configuration order. `opno` counts the ops the compiled program
/// holds, so failures name the same op index.
fn interpret(
    w: &RobustnessWrapper,
    world: &World,
    idx: usize,
    args: &[SimValue],
    stats: &mut WrapperStats,
    cache: &mut ValidityCache,
) -> Result<(), CheckFailure> {
    let name: &str = &w.entries[idx].name;
    let caps = &w.caps;
    let mut opno = 0usize;

    let plan = w.plans.get(name);
    for (i, check) in plan.into_iter().flatten().enumerate() {
        let Some(t) = *check else { continue };
        stats.checks += 1;
        let value = args.get(i).copied().unwrap_or(SimValue::Void);
        let cache_key = (value.as_ptr(), t);
        let cacheable = w.config.check_cache && matches!(value, SimValue::Ptr(p) if p != 0);
        if cacheable && cache.get(&cache_key) == Some(&w.generation) {
            stats.check_cache_hits += 1;
            stats.check_outcomes.record(CheckKind::of(t), true);
            opno += 1;
            continue;
        }
        let ok = check_value_counted(world, &w.tables, caps, value, t, &mut stats.check_kinds);
        stats.check_outcomes.record(CheckKind::of(t), ok);
        if !ok {
            return Err(CheckFailure {
                op: opno,
                arg: i,
                kind: CheckKind::of(t),
                check: t.notation(),
                value,
            });
        }
        if cacheable {
            if cache.len() >= CHECK_CACHE_CAP {
                cache.clear();
            }
            cache.insert(cache_key, w.generation);
        }
        opno += 1;
    }

    // Only functions with a claim plan get a format scan.
    if let Some((fmt_arg, varargs_from)) = plan.and_then(|_| format_spec(name)) {
        stats.checks += 1;
        let ok = check_format(world, args, fmt_arg, varargs_from, &mut stats.check_kinds).is_none();
        stats.check_outcomes.record(CheckKind::Format, ok);
        if !ok {
            return Err(CheckFailure {
                op: opno,
                arg: fmt_arg as usize,
                kind: CheckKind::Format,
                check: "printf-format directives".to_string(),
                value: args
                    .get(fmt_arg as usize)
                    .copied()
                    .unwrap_or(SimValue::Void),
            });
        }
        opno += 1;
    }

    for a in w.config.assertions.iter().filter(|a| a.function == name) {
        stats.checks += 1;
        let ok = check_assertion_counted(world, &w.tables, caps, args, a, &mut stats.check_kinds);
        stats.check_outcomes.record(CheckKind::Assertion, ok);
        if !ok {
            return Err(CheckFailure {
                op: opno,
                arg: a.buf_arg,
                kind: CheckKind::Assertion,
                check: format!("size assertion over {:?}", a.terms),
                value: args.get(a.buf_arg).copied().unwrap_or(SimValue::Void),
            });
        }
        opno += 1;
    }
    Ok(())
}
