//! Runtime argument checking (§5.1–5.2).
//!
//! The wrapper validates a value against a robust argument type using
//! three techniques, exactly as the paper describes:
//!
//! * **Stateful memory checking** — the wrapper keeps its own table of
//!   heap blocks (built by intercepting `malloc`/`free`); a buffer
//!   inside a tracked block is bounds-checked against the block, which
//!   catches overflows *within* a memory page that no signal-handler
//!   probe could see.
//! * **Stack bounds** — a buffer on the stack is checked against the
//!   stack segment (the Libsafe-style frame check).
//! * **Stateless probing** — for everything else, accessibility is
//!   established per page (the signal-handler technique of ref. 2);
//!   the simulation resolves it with one bulk page-run query
//!   (`AddressSpace::probe_range`) per region and a word-wise bulk
//!   terminator scan (`AddressSpace::find_nul`) per string —
//!   semantically identical to probing each page, but paying one
//!   page-table seek per contiguous run instead of per byte.
//!
//! Data structures get semantic checks: a `FILE*` is validated by
//! extracting `fileno` and `fstat`-ing it (§5.2); a `DIR*` can only be
//! validated against the wrapper's directory table, and only when that
//! stateful tracking is switched on.

use std::collections::{BTreeMap, BTreeSet};

use healers_libc::{file, World};
use healers_simproc::{Addr, SimValue, HEAP_BASE, STACK_BASE};
use healers_typesys::TypeExpr;

use crate::plan::{eval_op, CheckOp};

/// Upper bound on string-validation scans (a terminated string longer
/// than this is rejected rather than scanned forever).
pub const MAX_STRING_SCAN: u32 = 64 * 1024;

/// The wrapper's internal tables (§5.1's "internal table" plus the
/// stream/directory tables of §5.2).
#[derive(Debug, Clone, Default)]
pub struct Tables {
    /// Heap blocks observed through the wrapped allocator: base → size.
    pub heap_blocks: BTreeMap<Addr, u32>,
    /// Streams returned by `fopen`/`fdopen`/`freopen`/`tmpfile`.
    pub open_files: BTreeSet<Addr>,
    /// Directory handles returned by `opendir`.
    pub open_dirs: BTreeSet<Addr>,
}

impl Tables {
    /// The tracked block containing `addr`, if any. A `malloc(0)` block
    /// contains no addresses — not even its own base: the allocator
    /// granted zero accessible bytes, so the table has no bounds to
    /// check against and lookups fall through to the page probe.
    pub fn block_containing(&self, addr: Addr) -> Option<(Addr, u32)> {
        let (&base, &size) = self.heap_blocks.range(..=addr).next_back()?;
        if addr >= base && addr - base < size {
            Some((base, size))
        } else {
            None
        }
    }
}

/// Per-kind counters for the checking kernels — the decomposition the
/// Table 2 "checking overhead" row aggregates. One counter per checking
/// technique plus the byte volume the bulk kernels covered:
///
/// * a **table hit** resolves a pointer against the stateful heap
///   table (§5.1) — no page walk at all;
/// * a **run probe** is one bulk [`probe_range`] call — a single
///   page-table range seek validating a whole region;
/// * a **NUL scan** is one bulk [`find_nul`] call — a word-wise
///   terminator search over resident page bytes;
/// * **bytes scanned** sums the bytes those two kernels covered.
///
/// [`probe_range`]: healers_simproc::mem::AddressSpace::probe_range
/// [`find_nul`]: healers_simproc::mem::AddressSpace::find_nul
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Stateful heap-table resolutions.
    pub table_hits: u64,
    /// Bulk page-run probes (`probe_range`).
    pub run_probes: u64,
    /// Bulk NUL terminator scans (`find_nul`).
    pub nul_scans: u64,
    /// Bytes covered by the bulk kernels.
    pub bytes_scanned: u64,
}

impl CheckCounters {
    /// Fold another counter set into this one.
    pub fn absorb(&mut self, other: &CheckCounters) {
        self.table_hits += other.table_hits;
        self.run_probes += other.run_probes;
        self.nul_scans += other.nul_scans;
        self.bytes_scanned += other.bytes_scanned;
    }
}

/// Coarse classification of argument checks by the kind of object they
/// validate — the axis of the wrapper's per-kind outcome tallies
/// ([`CheckOutcomes`]). Where [`CheckCounters`] decomposes checks by
/// *kernel* (how they were resolved), this decomposes them by *claim*
/// (what property was asserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckKind {
    /// Memory-region accessibility/bounds (the array families).
    Region,
    /// NUL-terminated string scans (NTS family, mode strings).
    String,
    /// Stream (`FILE*`) validation.
    Stream,
    /// Directory handle (`DIR*`) validation.
    Dir,
    /// Scalar domain checks (ints, descriptors, speeds, NULL).
    Scalar,
    /// Executable size assertions (semi-automatic).
    Assertion,
    /// `printf`-family directive scans: `%s` pointer arguments are
    /// validated against the world and `%n` is rejected outright.
    Format,
}

impl CheckKind {
    /// Every kind, in tally/report order.
    pub const ALL: [CheckKind; 7] = [
        CheckKind::Region,
        CheckKind::String,
        CheckKind::Stream,
        CheckKind::Dir,
        CheckKind::Scalar,
        CheckKind::Assertion,
        CheckKind::Format,
    ];

    /// The kind of check [`check_value`] performs for `t`.
    pub fn of(t: TypeExpr) -> CheckKind {
        use TypeExpr::*;
        match t {
            RArray(_) | WArray(_) | RwArray(_) | RArrayNull(_) | WArrayNull(_) | RwArrayNull(_) => {
                CheckKind::Region
            }
            Nts | NtsWritable | NtsNull | NtsMax(_) | ModeShort | ModeValid => CheckKind::String,
            OpenFile | OpenFileNull | RFile | WFile => CheckKind::Stream,
            OpenDir | OpenDirNull => CheckKind::Dir,
            _ => CheckKind::Scalar,
        }
    }

    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CheckKind::Region => "region",
            CheckKind::String => "string",
            CheckKind::Stream => "stream",
            CheckKind::Dir => "dir",
            CheckKind::Scalar => "scalar",
            CheckKind::Assertion => "assertion",
            CheckKind::Format => "format",
        }
    }
}

/// Pass/fail/repair tallies per [`CheckKind`] — plain array increments,
/// cheap enough to stay unconditional on the hot path (unlike the gated
/// latency histograms). Deterministic: a function of the checked values
/// alone, so these appear in the stable `healers report` output. A
/// *repaired* check is one that failed and whose argument was then
/// substituted or clamped under `ViolationAction::Repair`; it is
/// counted in both `failed` and `repaired`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOutcomes {
    passed: [u64; CheckKind::ALL.len()],
    failed: [u64; CheckKind::ALL.len()],
    repaired: [u64; CheckKind::ALL.len()],
}

impl CheckOutcomes {
    fn index(kind: CheckKind) -> usize {
        // `CheckKind` is declared in `ALL` order, so the discriminant
        // *is* the tally index (pinned by `all_order_matches_discriminants`)
        // — no linear search on the hot path.
        kind as usize
    }

    /// Tally one check outcome.
    pub fn record(&mut self, kind: CheckKind, ok: bool) {
        let i = Self::index(kind);
        if ok {
            self.passed[i] += 1;
        } else {
            self.failed[i] += 1;
        }
    }

    /// Checks of `kind` that passed.
    pub fn passed(&self, kind: CheckKind) -> u64 {
        self.passed[Self::index(kind)]
    }

    /// Checks of `kind` that failed.
    pub fn failed(&self, kind: CheckKind) -> u64 {
        self.failed[Self::index(kind)]
    }

    /// Tally one repaired check: the failure was already recorded via
    /// [`CheckOutcomes::record`]; this adds the repair on top.
    pub fn record_repair(&mut self, kind: CheckKind) {
        self.repaired[Self::index(kind)] += 1;
    }

    /// Checks of `kind` whose failing argument was repaired.
    pub fn repaired(&self, kind: CheckKind) -> u64 {
        self.repaired[Self::index(kind)]
    }

    /// Fold another tally set into this one.
    pub fn absorb(&mut self, other: &CheckOutcomes) {
        for i in 0..CheckKind::ALL.len() {
            self.passed[i] += other.passed[i];
            self.failed[i] += other.failed[i];
            self.repaired[i] += other.repaired[i];
        }
    }

    /// `(kind, passed, failed, repaired)` tuples in [`CheckKind::ALL`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (CheckKind, u64, u64, u64)> + '_ {
        CheckKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, self.passed[i], self.failed[i], self.repaired[i]))
    }
}

/// Which checking techniques are switched on.
#[derive(Debug, Clone, Copy)]
pub struct CheckCapabilities {
    /// Consult the heap table before falling back to page probing.
    pub stateful_heap: bool,
    /// Validate `DIR*` against the directory table (semi-automatic).
    pub dir_tracking: bool,
    /// Validate `FILE*` against the stream table instead of the
    /// `fileno`+`fstat` heuristic (semi-automatic).
    pub file_tracking: bool,
}

/// Whether the wrapper owns a checking function for `t` under the given
/// capabilities. Fundamental types are never directly checkable ("the
/// wrapper library provides for each unified type … a checking
/// function", §4.2).
pub fn checkable(t: TypeExpr, caps: &CheckCapabilities) -> bool {
    use TypeExpr::*;
    match t {
        RArray(_) | WArray(_) | RwArray(_) | RArrayNull(_) | WArrayNull(_) | RwArrayNull(_)
        | Unconstrained | Null => true,
        RFile | WFile | OpenFile | OpenFileNull => true,
        OpenDir | OpenDirNull => caps.dir_tracking,
        Nts | NtsWritable | NtsNull | NtsMax(_) | ModeShort | ModeValid => true,
        IntNeg | IntZero | IntPos | IntNonNeg | IntNonPos | IntAny => true,
        FdReadable | FdWritable | FdOpen => true,
        SpeedValid => true,
        _ => false,
    }
}

/// The strongest *checkable* supertype of a robust type: when the
/// wrapper has no checking function for the robust type itself (the
/// `OPEN_DIR` situation of §5.2), it degrades to the nearest weaker
/// type it can check — which is why some corrupted-data-structure
/// crashes survive the fully automatic wrapper.
pub fn checkable_supertype(t: TypeExpr, caps: &CheckCapabilities) -> TypeExpr {
    use TypeExpr::*;
    let mut cur = t;
    loop {
        if checkable(cur, caps) {
            return cur;
        }
        cur = match cur {
            RonlyFixed(s) => RArray(s),
            RwFixed(s) => RwArray(s),
            WonlyFixed(s) => WArray(s),
            OpenDirF => OpenDir,
            OpenDir => RwArray(healers_typesys::order::DIR_SIZE),
            OpenDirNull => RwArrayNull(healers_typesys::order::DIR_SIZE),
            RonlyFile | WonlyFile | RwFile => OpenFile,
            ClosedFile | StaleDir | Invalid => Unconstrained,
            NtsRo(l) | NtsRw(l) => NtsMax(l),
            ModeBogus => ModeShort,
            FdRonly | FdRdwr => FdReadable,
            FdWonly => FdWritable,
            FdClosed | FdNegative | SpeedBogus => IntAny,
            _ => Unconstrained,
        };
    }
}

/// Validate a memory region of `size` bytes at `ptr` with the required
/// access, using stateful checking where possible and page probing
/// otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_region(
    world: &World,
    tables: &Tables,
    caps: &CheckCapabilities,
    ptr: Addr,
    size: u32,
    need_read: bool,
    need_write: bool,
    ctrs: &mut CheckCounters,
) -> bool {
    if ptr == 0 {
        return false;
    }
    let size = size.max(1);
    // Stateful: the wrapper's heap table knows exact block bounds, so
    // even a sub-page overflow is caught.
    if caps.stateful_heap && (HEAP_BASE..healers_simproc::proc::HEAP_LIMIT).contains(&ptr) {
        if let Some((base, block_size)) = tables.block_containing(ptr) {
            ctrs.table_hits += 1;
            let remaining = base + block_size - ptr;
            if remaining < size {
                return false;
            }
            // Tracked blocks come from malloc and are read-write; a
            // single probe confirms the pages are still mapped.
            return world.proc.mem.probe_read(ptr);
        }
        // In heap range but untracked (allocated before the wrapper
        // loaded): fall through to stateless probing.
    }
    // Stack: bounds against the stack segment.
    if world.proc.in_stack(ptr) {
        return u64::from(ptr) + u64::from(size) <= u64::from(STACK_BASE);
    }
    // Stateless: one bulk probe over the whole region — a single
    // page-table range seek instead of one lookup per page.
    ctrs.run_probes += 1;
    ctrs.bytes_scanned += u64::from(size);
    world.proc.mem.probe_range(ptr, size, need_read, need_write)
}

/// Scan for a NUL terminator at index ≤ `limit` in readable (and
/// optionally writable) memory; returns the string length — the NUL
/// index — if valid. The boundary is **inclusive**, matching
/// `NtsMax(l)` semantics: length `l` means the terminator lies at
/// index ≤ `l`, so up to `l + 1` bytes are examined and a string of
/// strlen exactly `l` is accepted.
pub(crate) fn scan_string(
    world: &World,
    ptr: Addr,
    limit: u32,
    need_write: bool,
    ctrs: &mut CheckCounters,
) -> Option<u32> {
    if ptr == 0 {
        return None;
    }
    ctrs.nul_scans += 1;
    let len = world.proc.mem.find_nul(ptr, limit, need_write);
    if let Some(l) = len {
        ctrs.bytes_scanned += u64::from(l) + 1;
    }
    len
}

/// Validate a `FILE*` (§5.2): the region must look like a stream object
/// and its descriptor must satisfy `fstat`. With stream tracking on,
/// membership in the wrapper's table is required instead — the stronger
/// semi-automatic check.
pub(crate) fn check_file(
    world: &World,
    tables: &Tables,
    caps: &CheckCapabilities,
    ptr: Addr,
    need_read: bool,
    need_write: bool,
    ctrs: &mut CheckCounters,
) -> bool {
    if caps.file_tracking {
        if !tables.open_files.contains(&ptr) {
            return false;
        }
    } else if !check_region(world, tables, caps, ptr, file::FILE_SIZE, true, true, ctrs) {
        return false;
    }
    // Extract the descriptor (the region is readable; reads cannot
    // fault) and fstat it.
    let Ok(fd) = world.proc.mem.read_i32(ptr + file::OFF_FILENO) else {
        return false;
    };
    if world.kernel.fstat(fd).is_err() {
        return false;
    }
    let Ok(flags) = world.kernel.fd_flags(fd) else {
        return false;
    };
    if (need_read && !flags.read) || (need_write && !flags.write) {
        return false;
    }
    // Semi-automatic integrity assertion: the stream's internal buffer
    // pointer must be null or accessible. Tracking alone cannot catch a
    // *tracked* stream whose object was corrupted afterwards.
    if caps.file_tracking {
        match world.proc.mem.read_u32(ptr + file::OFF_BUFPTR) {
            Ok(0) => {}
            Ok(buf) => {
                ctrs.run_probes += 1;
                ctrs.bytes_scanned += 1;
                if !world.proc.mem.probe_range(buf, 1, true, false) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// Validate a tracked `DIR*`'s structural integrity (semi-automatic):
/// the embedded dirent-buffer pointer must be writable.
pub(crate) fn check_dir_integrity(world: &World, ptr: Addr, ctrs: &mut CheckCounters) -> bool {
    match world.proc.mem.read_u32(ptr + healers_libc::dirent::OFF_BUF) {
        Ok(buf) if buf != 0 => {
            ctrs.run_probes += 1;
            ctrs.bytes_scanned += 1;
            world.proc.mem.probe_range(buf, 1, false, true)
        }
        _ => false,
    }
}

/// Check one value against one (checkable) type, discarding counters:
/// the claim compiles to the same one-op program the wrapper builds
/// for it ([`action_for`](crate::plan::action_for)), and `eval_op` runs
/// it on the shipping kernels.
///
/// # Panics
///
/// Panics when asked to check a type for which no checking function
/// exists under the given capabilities — callers must first degrade via
/// [`checkable_supertype`].
pub fn check_value(
    world: &World,
    tables: &Tables,
    caps: &CheckCapabilities,
    value: SimValue,
    t: TypeExpr,
) -> bool {
    let op = CheckOp::claim(0, t, false);
    eval_op(
        world,
        tables,
        caps,
        &[value],
        &op,
        &mut CheckCounters::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use healers_os::OpenFlags;

    fn caps() -> CheckCapabilities {
        CheckCapabilities {
            stateful_heap: true,
            dir_tracking: false,
            file_tracking: false,
        }
    }

    #[test]
    fn all_order_matches_discriminants() {
        // `CheckOutcomes::index` uses the discriminant as the tally
        // slot, which is only sound while `ALL` lists the variants in
        // declaration order.
        for (i, k) in CheckKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of declaration order");
        }
    }

    #[test]
    fn stateful_check_catches_sub_page_overflow() {
        // Packed heap: two adjacent 16-byte blocks in one page. The
        // stateless probe cannot tell them apart; the table can.
        let mut world = World::new();
        let a = world.alloc_buf(16);
        let _b = world.alloc_buf(16);
        let mut tables = Tables::default();
        tables.heap_blocks.insert(a, 16);

        // 16 bytes at a: fine. 17 bytes: stateful check rejects…
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(a),
            TypeExpr::RwArray(16)
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(a),
            TypeExpr::RwArray(17)
        ));

        // …while the stateless configuration misses the overflow (the
        // page is accessible throughout) — the §8 comparison.
        let stateless = CheckCapabilities {
            stateful_heap: false,
            ..caps()
        };
        assert!(check_value(
            &world,
            &tables,
            &stateless,
            SimValue::Ptr(a),
            TypeExpr::RwArray(17)
        ));
    }

    #[test]
    fn zero_size_blocks_fall_through_to_the_page_probe() {
        // A tracked malloc(0) block must not act as a bounds record:
        // the allocator granted zero bytes, so the table answers "not
        // mine" and the stateless probe decides — exactly what happens
        // for untracked memory.
        let mut world = World::new();
        let zero = world.alloc_buf(0);
        let next = world.alloc_buf(16);
        let mut tables = Tables::default();
        tables.heap_blocks.insert(zero, 0);
        tables.heap_blocks.insert(next, 16);

        assert_eq!(tables.block_containing(zero), None);
        // Packed heap: the byte at the zero-size block's base lives in
        // an accessible page, so the page probe accepts it (the real
        // machine would not fault either).
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(zero),
            TypeExpr::RwArray(1)
        ));
        // The neighbouring real block keeps its exact bounds.
        assert_eq!(tables.block_containing(next), Some((next, 16)));

        // Guarded heap: malloc(0) returns a pointer at the guard page,
        // and the fall-through probe rejects any access through it —
        // the zero-size entry must not mask that either.
        let mut guarded = World::new();
        guarded
            .proc
            .heap
            .set_mode(healers_simproc::HeapMode::Guarded);
        let gz = guarded.alloc_buf(0);
        let mut gtables = Tables::default();
        gtables.heap_blocks.insert(gz, 0);
        assert!(!check_value(
            &guarded,
            &gtables,
            &caps(),
            SimValue::Ptr(gz),
            TypeExpr::RwArray(1)
        ));
    }

    #[test]
    fn stateless_probe_rejects_unmapped_and_protected() {
        let world = World::new();
        let tables = Tables::default();
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(0xdead_0000),
            TypeExpr::RArray(4)
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::NULL,
            TypeExpr::RArray(4)
        ));
        // NULL is fine for the _NULL variants.
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::NULL,
            TypeExpr::RArrayNull(4)
        ));
    }

    #[test]
    fn probe_spans_pages() {
        let mut world = World::new();
        // A guarded block of 8000 bytes spans 2 pages followed by guard.
        world.proc.heap.set_mode(healers_simproc::HeapMode::Guarded);
        let p = world.alloc_buf(8000);
        let tables = Tables::default();
        let stateless = CheckCapabilities {
            stateful_heap: false,
            dir_tracking: false,
            file_tracking: false,
        };
        assert!(check_value(
            &world,
            &tables,
            &stateless,
            SimValue::Ptr(p),
            TypeExpr::RwArray(8000)
        ));
        assert!(!check_value(
            &world,
            &tables,
            &stateless,
            SimValue::Ptr(p),
            TypeExpr::RwArray(8001)
        ));
    }

    #[test]
    fn stack_buffers_are_bounds_checked() {
        let mut world = World::new();
        let p = world.proc.stack_alloc(64);
        let tables = Tables::default();
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(p),
            TypeExpr::WArray(64)
        ));
        // A size reaching past the stack top is rejected.
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(p),
            TypeExpr::WArray(healers_simproc::STACK_SIZE)
        ));
    }

    #[test]
    fn file_check_validates_via_fileno_fstat() {
        let mut world = World::new();
        let fd = world
            .kernel
            .open("/etc/passwd", OpenFlags::read_only(), 0)
            .unwrap();
        let stream = world.alloc_buf(file::FILE_SIZE);
        file::init_file_object(&mut world.proc, stream, fd, file::F_READ).unwrap();
        let tables = Tables::default();

        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(stream),
            TypeExpr::OpenFile
        ));
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(stream),
            TypeExpr::RFile
        ));
        // Read-only stream fails the writable-file check.
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(stream),
            TypeExpr::WFile
        ));

        // Garbage fd: rejected.
        world
            .proc
            .mem
            .write_i32(stream + file::OFF_FILENO, -555)
            .unwrap();
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(stream),
            TypeExpr::OpenFile
        ));
    }

    #[test]
    fn file_tracking_is_stricter() {
        let mut world = World::new();
        let fd = world
            .kernel
            .open("/etc/passwd", OpenFlags::read_only(), 0)
            .unwrap();
        let stream = world.alloc_buf(file::FILE_SIZE);
        file::init_file_object(&mut world.proc, stream, fd, file::F_READ).unwrap();
        let tables = Tables::default();
        let tracking = CheckCapabilities {
            file_tracking: true,
            ..caps()
        };
        // Valid-looking but untracked: rejected under tracking.
        assert!(!check_value(
            &world,
            &tables,
            &tracking,
            SimValue::Ptr(stream),
            TypeExpr::OpenFile
        ));
        let mut tracked = tables.clone();
        tracked.open_files.insert(stream);
        assert!(check_value(
            &world,
            &tracked,
            &tracking,
            SimValue::Ptr(stream),
            TypeExpr::OpenFile
        ));
    }

    #[test]
    fn dir_check_requires_tracking() {
        let caps_with = CheckCapabilities {
            dir_tracking: true,
            ..caps()
        };
        assert!(!checkable(TypeExpr::OpenDir, &caps()));
        assert!(checkable(TypeExpr::OpenDir, &caps_with));
        // Degradation: without tracking, OPEN_DIR degrades to a memory
        // check over sizeof(DIR).
        assert_eq!(
            checkable_supertype(TypeExpr::OpenDir, &caps()),
            TypeExpr::RwArray(32)
        );
        assert_eq!(
            checkable_supertype(TypeExpr::OpenDir, &caps_with),
            TypeExpr::OpenDir
        );

        // A structurally sound tracked DIR passes; an untracked one and
        // a tracked-but-corrupted one do not.
        let mut world = World::new();
        let dirp = world.alloc_buf(32);
        let buf = world.alloc_buf(268);
        world
            .proc
            .mem
            .write_u32(dirp + healers_libc::dirent::OFF_BUF, buf)
            .unwrap();
        let mut tables = Tables::default();
        tables.open_dirs.insert(dirp);
        assert!(check_value(
            &world,
            &tables,
            &caps_with,
            SimValue::Ptr(dirp),
            TypeExpr::OpenDir
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps_with,
            SimValue::Ptr(dirp + 4),
            TypeExpr::OpenDir
        ));
        // Corrupt the buffer pointer: the integrity probe rejects it.
        world
            .proc
            .mem
            .write_u32(dirp + healers_libc::dirent::OFF_BUF, 0xdead_0000)
            .unwrap();
        assert!(!check_value(
            &world,
            &tables,
            &caps_with,
            SimValue::Ptr(dirp),
            TypeExpr::OpenDir
        ));
    }

    #[test]
    fn string_checks() {
        let mut world = World::new();
        let s = world.alloc_cstr("hello");
        let tables = Tables::default();
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(s),
            TypeExpr::Nts
        ));
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(s),
            TypeExpr::NtsMax(5)
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(s),
            TypeExpr::NtsMax(4)
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::NULL,
            TypeExpr::Nts
        ));
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::NULL,
            TypeExpr::NtsNull
        ));

        let mode = world.alloc_cstr("r+");
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(mode),
            TypeExpr::ModeValid
        ));
        let bad = world.alloc_cstr("q");
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(bad),
            TypeExpr::ModeValid
        ));
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Ptr(bad),
            TypeExpr::ModeShort
        ));
    }

    #[test]
    fn nts_max_limit_boundary_is_inclusive() {
        // NtsMax(l) means "NUL at index ≤ l": a string of strlen
        // exactly l is accepted, strlen l+1 is not — pinned at
        // limit-1 / limit / limit+1 on both sides of the boundary.
        let mut world = World::new();
        let tables = Tables::default();
        let s = world.alloc_cstr("12345"); // strlen 5
        for (limit, ok) in [(4u32, false), (5, true), (6, true)] {
            assert_eq!(
                check_value(
                    &world,
                    &tables,
                    &caps(),
                    SimValue::Ptr(s),
                    TypeExpr::NtsMax(limit)
                ),
                ok,
                "strlen 5 vs NtsMax({limit})"
            );
        }

        // Same boundary when the terminator is the last byte of a
        // mapped page and the next page is a guard page: the scan must
        // accept at exactly the limit without touching the guard.
        let mut guarded = World::new();
        guarded
            .proc
            .heap
            .set_mode(healers_simproc::HeapMode::Guarded);
        let buf = guarded.alloc_buf(6);
        guarded.proc.write_cstr(buf, b"12345").unwrap(); // NUL at page end
        for (limit, ok) in [(4u32, false), (5, true), (6, true)] {
            assert_eq!(
                check_value(
                    &guarded,
                    &tables,
                    &caps(),
                    SimValue::Ptr(buf),
                    TypeExpr::NtsMax(limit)
                ),
                ok,
                "page-end strlen 5 vs NtsMax({limit})"
            );
        }
    }

    #[test]
    fn check_counters_classify_the_kernels() {
        let mut world = World::new();
        let mut tables = Tables::default();
        let tracked = world.alloc_buf(64);
        tables.heap_blocks.insert(tracked, 64);
        let s = world.alloc_cstr("hello");

        let mut ctrs = CheckCounters::default();
        assert!(eval_op(
            &world,
            &tables,
            &caps(),
            &[SimValue::Ptr(tracked)],
            &CheckOp::claim(0, TypeExpr::RwArray(64), false),
            &mut ctrs
        ));
        assert_eq!(ctrs.table_hits, 1);
        assert_eq!(ctrs.run_probes, 0);

        assert!(eval_op(
            &world,
            &tables,
            &caps(),
            &[SimValue::Ptr(s)],
            &CheckOp::claim(0, TypeExpr::Nts, false),
            &mut ctrs
        ));
        assert_eq!(ctrs.nul_scans, 1);
        assert_eq!(ctrs.bytes_scanned, 6, "strlen 5 + terminator");

        // Stateless fall-through: one bulk run probe for the region.
        let stateless = CheckCapabilities {
            stateful_heap: false,
            ..caps()
        };
        assert!(eval_op(
            &world,
            &tables,
            &stateless,
            &[SimValue::Ptr(tracked)],
            &CheckOp::claim(0, TypeExpr::RwArray(64), false),
            &mut ctrs
        ));
        assert_eq!(ctrs.run_probes, 1);
        assert_eq!(ctrs.bytes_scanned, 6 + 64);
    }

    #[test]
    fn scalar_and_fd_checks() {
        let mut world = World::new();
        let tables = Tables::default();
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(5),
            TypeExpr::IntNonNeg
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(-5),
            TypeExpr::IntNonNeg
        ));
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(0),
            TypeExpr::FdOpen
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(99),
            TypeExpr::FdOpen
        ));
        let fd = world
            .kernel
            .open("/etc/passwd", OpenFlags::read_only(), 0)
            .unwrap();
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(i64::from(fd)),
            TypeExpr::FdReadable
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(i64::from(fd)),
            TypeExpr::FdWritable
        ));
        assert!(check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(i64::from(healers_os::B9600)),
            TypeExpr::SpeedValid
        ));
        assert!(!check_value(
            &world,
            &tables,
            &caps(),
            SimValue::Int(31337),
            TypeExpr::SpeedValid
        ));
    }

    #[test]
    fn check_kinds_classify_and_tally() {
        assert_eq!(CheckKind::of(TypeExpr::RwArray(8)), CheckKind::Region);
        assert_eq!(CheckKind::of(TypeExpr::NtsMax(7)), CheckKind::String);
        assert_eq!(CheckKind::of(TypeExpr::RFile), CheckKind::Stream);
        assert_eq!(CheckKind::of(TypeExpr::OpenDirNull), CheckKind::Dir);
        assert_eq!(CheckKind::of(TypeExpr::FdReadable), CheckKind::Scalar);
        assert_eq!(CheckKind::of(TypeExpr::Null), CheckKind::Scalar);

        let mut one = CheckOutcomes::default();
        one.record(CheckKind::Region, true);
        one.record(CheckKind::Region, false);
        one.record(CheckKind::String, false);
        one.record(CheckKind::Format, false);
        one.record_repair(CheckKind::Format);
        let mut total = CheckOutcomes::default();
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.passed(CheckKind::Region), 2);
        assert_eq!(total.failed(CheckKind::Region), 2);
        assert_eq!(total.failed(CheckKind::String), 2);
        assert_eq!(total.passed(CheckKind::Assertion), 0);
        assert_eq!(total.failed(CheckKind::Format), 2);
        assert_eq!(total.repaired(CheckKind::Format), 2);
        assert_eq!(total.repaired(CheckKind::Region), 0);
        assert_eq!(total.iter().count(), CheckKind::ALL.len());
    }

    #[test]
    fn fallback_chain_terminates_everywhere() {
        let c = caps();
        for t in healers_typesys::universe::full_universe(&[1, 44, 148]) {
            let ct = checkable_supertype(t, &c);
            assert!(checkable(ct, &c), "{t} degraded to uncheckable {ct}");
            assert!(
                t == ct || healers_typesys::is_subtype(t, ct),
                "{t} degraded to non-supertype {ct}"
            );
        }
    }
}
