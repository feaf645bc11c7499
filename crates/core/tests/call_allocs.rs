//! Allocation audit of the wrapper's admit path: once warm, an admitted
//! call allocates nothing, whether it goes through `call`, the split
//! `begin_call`/`finish_call` pair, `precheck`, or `call` with the
//! telemetry gate on. A counting `#[global_allocator]` — installed in
//! this test binary only — measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use healers_core::{analyze, WrapperBuilder, WrapperConfig};
use healers_libc::{Libc, World};
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

/// Allocation events on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const CALLS: usize = 1000;

#[test]
fn admitted_calls_allocate_nothing_on_every_path() {
    let libc = Libc::standard();
    let mut w = WrapperBuilder::new()
        .decls(analyze(&libc, &["strlen"]))
        .config(WrapperConfig::full_auto())
        .build();
    let mut world = World::new();
    let args = [SimValue::Ptr(world.alloc_cstr("admitted"))];
    let id = w.resolve("strlen").unwrap();
    assert!(w.is_checked(id));
    // Warm-up: the validity cache now holds the argument.
    assert_eq!(
        w.call(&libc, &mut world, "strlen", &args).unwrap(),
        SimValue::Int(8)
    );

    let call = allocs_during(|| {
        for _ in 0..CALLS {
            w.call(&libc, &mut world, "strlen", &args).unwrap();
        }
    });
    let split = allocs_during(|| {
        for _ in 0..CALLS {
            let pending = w.begin_call(&libc, &mut world, "strlen", &args);
            assert!(pending.admitted());
            w.finish_call(&libc, &mut world, pending, false).unwrap();
        }
    });
    let precheck = allocs_during(|| {
        for _ in 0..CALLS {
            assert!(w.precheck(&world, id, &args));
        }
    });
    // The gated path keys per-function telemetry by name: the first
    // gated call may allocate the key, the next ones must not.
    healers_trace::set_enabled(true);
    w.call(&libc, &mut world, "strlen", &args).unwrap();
    let gated = allocs_during(|| {
        for _ in 0..CALLS {
            w.call(&libc, &mut world, "strlen", &args).unwrap();
        }
    });
    healers_trace::set_enabled(false);

    assert_eq!(
        (call, split, precheck, gated),
        (0, 0, 0, 0),
        "allocations per {CALLS} admitted calls: (call, begin+finish, precheck, gated call)"
    );
    assert_eq!(w.stats.violations, 0);
    assert_eq!(w.stats.per_function["strlen"].calls, CALLS as u64 + 1);
}
