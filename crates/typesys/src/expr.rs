//! Type expressions: every type any test-case generator defines.

use std::fmt;

/// A type in the extensible hierarchy. Size parameters are in bytes
/// (array types) or string lengths (string types).
///
/// Fundamental types (disjoint value sets; test cases carry these):
/// `Null`, `Invalid`, `RonlyFixed`, `RwFixed`, `WonlyFixed`, `RonlyFile`,
/// `RwFile`, `WonlyFile`, `ClosedFile`, `OpenDirF`, `StaleDir`, `NtsRo`,
/// `NtsRw`, `ModeValid`, `ModeBogus`, `IntNeg`, `IntZero`, `IntPos`,
/// `FdRonly`, `FdWonly`, `FdRdwr`, `FdClosed`, `FdNegative`,
/// `SpeedValid`, `SpeedBogus`. All others are unified types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeExpr {
    // ---- pointer / fixed-size array hierarchy (Figure 3) ---------------
    /// The null pointer (fundamental).
    Null,
    /// Non-null pointers to inaccessible memory (fundamental).
    Invalid,
    /// Pointers to a read-only region of exactly `s` bytes (fundamental).
    RonlyFixed(u32),
    /// Pointers to a read-write region of exactly `s` bytes (fundamental).
    RwFixed(u32),
    /// Pointers to a write-only region of exactly `s` bytes (fundamental).
    WonlyFixed(u32),
    /// Readable region of at least `s` bytes (unified).
    RArray(u32),
    /// Writable region of at least `s` bytes (unified).
    WArray(u32),
    /// Read-write region of at least `s` bytes (unified).
    RwArray(u32),
    /// `R_ARRAY[s]` or null (unified).
    RArrayNull(u32),
    /// `W_ARRAY[s]` or null (unified).
    WArrayNull(u32),
    /// `RW_ARRAY[s]` or null (unified).
    RwArrayNull(u32),
    /// All pointers (unified top of the pointer hierarchies).
    Unconstrained,

    // ---- file pointer hierarchy (Figure 4) ------------------------------
    /// `FILE*` open for reading only (fundamental).
    RonlyFile,
    /// `FILE*` open for reading and writing (fundamental).
    RwFile,
    /// `FILE*` open for writing only (fundamental).
    WonlyFile,
    /// A `FILE*` that has been `fclose`d (fundamental; its memory has
    /// been freed).
    ClosedFile,
    /// Readable file pointer: `RONLY_FILE ∪ RW_FILE` (unified).
    RFile,
    /// Writable file pointer: `WONLY_FILE ∪ RW_FILE` (unified).
    WFile,
    /// Any open file pointer (unified).
    OpenFile,
    /// Any open file pointer or null (unified).
    OpenFileNull,

    // ---- directory pointer hierarchy ------------------------------------
    /// A live `DIR*` returned by `opendir` (fundamental).
    OpenDirF,
    /// A `DIR*` that was `closedir`d or never valid but in accessible
    /// memory (fundamental).
    StaleDir,
    /// Any live directory pointer (unified; the type POSIX gives the
    /// wrapper *no stateless way to check* — §5.2).
    OpenDir,
    /// Live directory pointer or null (unified).
    OpenDirNull,

    // ---- C string hierarchy ----------------------------------------------
    /// NUL-terminated string of length exactly `l` in read-only memory
    /// (fundamental).
    NtsRo(u32),
    /// NUL-terminated string of length exactly `l` in writable memory
    /// (fundamental).
    NtsRw(u32),
    /// Any NUL-terminated string of length ≤ `l` (unified).
    NtsMax(u32),
    /// Any NUL-terminated string (unified).
    Nts,
    /// Any NUL-terminated string, writable memory (unified).
    NtsWritable,
    /// Any NUL-terminated string or null (unified).
    NtsNull,

    // ---- fopen-style mode strings ----------------------------------------
    /// A valid mode string (`"r"`, `"w+"`, `"ab"`, …) (fundamental).
    ModeValid,
    /// A short but syntactically invalid mode string (fundamental).
    ModeBogus,
    /// Any short mode-shaped string, valid or not (unified).
    ModeShort,

    // ---- scalar integer hierarchy ----------------------------------------
    /// Negative integers (fundamental).
    IntNeg,
    /// Zero (fundamental).
    IntZero,
    /// Positive integers (fundamental).
    IntPos,
    /// Non-negative integers (unified).
    IntNonNeg,
    /// Non-positive integers (unified).
    IntNonPos,
    /// All integers (unified top of the scalar hierarchies).
    IntAny,

    // ---- file descriptor hierarchy ----------------------------------------
    /// Open fd with read-only access (fundamental).
    FdRonly,
    /// Open fd with write-only access (fundamental).
    FdWonly,
    /// Open fd with read-write access (fundamental).
    FdRdwr,
    /// Non-negative integer that is not an open fd (fundamental).
    FdClosed,
    /// Negative integer used as an fd (fundamental).
    FdNegative,
    /// Readable fd (unified).
    FdReadable,
    /// Writable fd (unified).
    FdWritable,
    /// Any open fd (unified).
    FdOpen,

    // ---- termios speed values ----------------------------------------------
    /// A valid `B*` baud constant (fundamental).
    SpeedValid,
    /// An integer that is not a baud constant (fundamental).
    SpeedBogus,
}

impl TypeExpr {
    /// Whether this is a fundamental type (disjoint value set; the tag a
    /// test case carries). Unified types are everything else.
    pub fn is_fundamental(self) -> bool {
        use TypeExpr::*;
        matches!(
            self,
            Null | Invalid
                | RonlyFixed(_)
                | RwFixed(_)
                | WonlyFixed(_)
                | RonlyFile
                | RwFile
                | WonlyFile
                | ClosedFile
                | OpenDirF
                | StaleDir
                | NtsRo(_)
                | NtsRw(_)
                | ModeValid
                | ModeBogus
                | IntNeg
                | IntZero
                | IntPos
                | FdRonly
                | FdWonly
                | FdRdwr
                | FdClosed
                | FdNegative
                | SpeedValid
                | SpeedBogus
        )
    }

    /// The paper's notation for the type, e.g. `R_ARRAY_NULL[44]`.
    pub fn notation(self) -> String {
        match self.name_and_size() {
            (name, None) => name.into(),
            (name, Some(s)) => format!("{name}[{s}]"),
        }
    }

    /// The one name table behind [`TypeExpr::notation`] and `Display`:
    /// the notation's name and its size parameter, if any.
    fn name_and_size(self) -> (&'static str, Option<u32>) {
        use TypeExpr::*;
        match self {
            Null => ("NULL", None),
            Invalid => ("INVALID", None),
            RonlyFixed(s) => ("RONLY_FIXED", Some(s)),
            RwFixed(s) => ("RW_FIXED", Some(s)),
            WonlyFixed(s) => ("WONLY_FIXED", Some(s)),
            RArray(s) => ("R_ARRAY", Some(s)),
            WArray(s) => ("W_ARRAY", Some(s)),
            RwArray(s) => ("RW_ARRAY", Some(s)),
            RArrayNull(s) => ("R_ARRAY_NULL", Some(s)),
            WArrayNull(s) => ("W_ARRAY_NULL", Some(s)),
            RwArrayNull(s) => ("RW_ARRAY_NULL", Some(s)),
            Unconstrained => ("UNCONSTRAINED", None),
            RonlyFile => ("RONLY_FILE", None),
            RwFile => ("RW_FILE", None),
            WonlyFile => ("WONLY_FILE", None),
            ClosedFile => ("CLOSED_FILE", None),
            RFile => ("R_FILE", None),
            WFile => ("W_FILE", None),
            OpenFile => ("OPEN_FILE", None),
            OpenFileNull => ("OPEN_FILE_NULL", None),
            OpenDirF => ("OPEN_DIR_F", None),
            StaleDir => ("STALE_DIR", None),
            OpenDir => ("OPEN_DIR", None),
            OpenDirNull => ("OPEN_DIR_NULL", None),
            NtsRo(l) => ("NTS_RO", Some(l)),
            NtsRw(l) => ("NTS_RW", Some(l)),
            NtsMax(l) => ("NTS_MAX", Some(l)),
            Nts => ("NTS", None),
            NtsWritable => ("NTS_RW_ANY", None),
            NtsNull => ("NTS_NULL", None),
            ModeValid => ("MODE_VALID", None),
            ModeBogus => ("MODE_BOGUS", None),
            ModeShort => ("MODE_SHORT", None),
            IntNeg => ("INT_NEG", None),
            IntZero => ("INT_ZERO", None),
            IntPos => ("INT_POS", None),
            IntNonNeg => ("INT_NONNEG", None),
            IntNonPos => ("INT_NONPOS", None),
            IntAny => ("INT_ANY", None),
            FdRonly => ("FD_RONLY", None),
            FdWonly => ("FD_WONLY", None),
            FdRdwr => ("FD_RDWR", None),
            FdClosed => ("FD_CLOSED", None),
            FdNegative => ("FD_NEGATIVE", None),
            FdReadable => ("FD_READABLE", None),
            FdWritable => ("FD_WRITABLE", None),
            FdOpen => ("FD_OPEN", None),
            SpeedValid => ("SPEED_VALID", None),
            SpeedBogus => ("SPEED_BOGUS", None),
        }
    }
}

impl TypeExpr {
    /// Parse the paper's notation back into a type (the inverse of
    /// [`TypeExpr::notation`]); used when reading function declarations.
    pub fn parse_notation(s: &str) -> Option<TypeExpr> {
        use TypeExpr::*;
        if let Some(open) = s.find('[') {
            let close = s.find(']')?;
            let size: u32 = s.get(open + 1..close)?.parse().ok()?;
            let t = match &s[..open] {
                "RONLY_FIXED" => RonlyFixed(size),
                "RW_FIXED" => RwFixed(size),
                "WONLY_FIXED" => WonlyFixed(size),
                "R_ARRAY" => RArray(size),
                "W_ARRAY" => WArray(size),
                "RW_ARRAY" => RwArray(size),
                "R_ARRAY_NULL" => RArrayNull(size),
                "W_ARRAY_NULL" => WArrayNull(size),
                "RW_ARRAY_NULL" => RwArrayNull(size),
                "NTS_RO" => NtsRo(size),
                "NTS_RW" => NtsRw(size),
                "NTS_MAX" => NtsMax(size),
                _ => return None,
            };
            return Some(t);
        }
        let t = match s {
            "NULL" => Null,
            "INVALID" => Invalid,
            "UNCONSTRAINED" => Unconstrained,
            "RONLY_FILE" => RonlyFile,
            "RW_FILE" => RwFile,
            "WONLY_FILE" => WonlyFile,
            "CLOSED_FILE" => ClosedFile,
            "R_FILE" => RFile,
            "W_FILE" => WFile,
            "OPEN_FILE" => OpenFile,
            "OPEN_FILE_NULL" => OpenFileNull,
            "OPEN_DIR_F" => OpenDirF,
            "STALE_DIR" => StaleDir,
            "OPEN_DIR" => OpenDir,
            "OPEN_DIR_NULL" => OpenDirNull,
            "NTS" => Nts,
            "NTS_RW_ANY" => NtsWritable,
            "NTS_NULL" => NtsNull,
            "MODE_VALID" => ModeValid,
            "MODE_BOGUS" => ModeBogus,
            "MODE_SHORT" => ModeShort,
            "INT_NEG" => IntNeg,
            "INT_ZERO" => IntZero,
            "INT_POS" => IntPos,
            "INT_NONNEG" => IntNonNeg,
            "INT_NONPOS" => IntNonPos,
            "INT_ANY" => IntAny,
            "FD_RONLY" => FdRonly,
            "FD_WONLY" => FdWonly,
            "FD_RDWR" => FdRdwr,
            "FD_CLOSED" => FdClosed,
            "FD_NEGATIVE" => FdNegative,
            "FD_READABLE" => FdReadable,
            "FD_WRITABLE" => FdWritable,
            "FD_OPEN" => FdOpen,
            "SPEED_VALID" => SpeedValid,
            "SPEED_BOGUS" => SpeedBogus,
            _ => return None,
        };
        Some(t)
    }
}

/// Writes [`TypeExpr::notation`] without allocating.
impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name_and_size() {
            (name, None) => f.write_str(name),
            (name, Some(s)) => write!(f, "{name}[{s}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fundamental_classification() {
        assert!(TypeExpr::Null.is_fundamental());
        assert!(TypeExpr::RonlyFixed(44).is_fundamental());
        assert!(!TypeExpr::RArrayNull(44).is_fundamental());
        assert!(!TypeExpr::Unconstrained.is_fundamental());
        assert!(TypeExpr::RwFile.is_fundamental());
        assert!(!TypeExpr::OpenFile.is_fundamental());
        assert!(TypeExpr::IntZero.is_fundamental());
        assert!(!TypeExpr::IntNonNeg.is_fundamental());
    }

    #[test]
    fn paper_notation() {
        assert_eq!(TypeExpr::RArrayNull(44).notation(), "R_ARRAY_NULL[44]");
        assert_eq!(TypeExpr::OpenFile.notation(), "OPEN_FILE");
        assert_eq!(TypeExpr::Unconstrained.to_string(), "UNCONSTRAINED");
    }

    #[test]
    fn notation_roundtrip() {
        let samples = crate::universe::full_universe(&[1, 44, 148]);
        for t in samples {
            assert_eq!(t.to_string(), t.notation(), "Display and notation agree");
            assert_eq!(
                TypeExpr::parse_notation(&t.notation()),
                Some(t),
                "roundtrip {t}"
            );
        }
        assert_eq!(TypeExpr::parse_notation("NONSENSE"), None);
        assert_eq!(TypeExpr::parse_notation("R_ARRAY[x]"), None);
    }
}
