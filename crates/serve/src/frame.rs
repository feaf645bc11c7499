//! The length-prefixed batch frame around protocol messages.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field | meaning |
//! |-------:|-----:|-------|---------|
//! | 0 | 4 | magic | [`MAGIC`] = `b"HSRV"` |
//! | 4 | 2 | version | [`PROTOCOL_VERSION`]; anything else is rejected |
//! | 6 | 1 | direction | 0 = request frame, 1 = response frame |
//! | 7 | 2 | count | messages in the batch |
//! | 9 | 4 | length | payload bytes that follow |
//! | 13 | length | payload | `count` messages back-to-back, each prefixed by its u32 byte length |
//!
//! Each message inside the payload carries its own u32 length prefix so
//! a reader can frame messages without understanding their content —
//! the shell/core split on the wire. [`Limits`] bounds everything an
//! attacker controls (payload length, batch size) **before** any
//! allocation, so a hostile length prefix costs the daemon nothing.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `b"HSRV"`.
pub const MAGIC: [u8; 4] = *b"HSRV";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 13;

/// A request frame (client → daemon).
pub const DIR_REQUEST: u8 = 0;
/// A response frame (daemon → client).
pub const DIR_RESPONSE: u8 = 1;

/// Hostile-input bounds applied while reading a frame.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum payload length accepted (bytes).
    pub max_frame_len: u32,
    /// Maximum messages per frame.
    pub max_batch: u16,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frame_len: 1 << 20, // 1 MiB
            max_batch: 4096,
        }
    }
}

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary (not an error for
    /// a connection: the peer hung up).
    Eof,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version field is not [`PROTOCOL_VERSION`].
    BadVersion(u16),
    /// The direction byte is neither request nor response.
    BadDirection(u8),
    /// The payload length exceeds [`Limits::max_frame_len`].
    Oversized(u32),
    /// The batch count exceeds [`Limits::max_batch`].
    BatchTooLarge(u16),
    /// The payload's message length prefixes do not tile the payload.
    MisframedPayload,
    /// The stream ended mid-frame.
    Truncated,
    /// An underlying transport failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            FrameError::BadDirection(d) => write!(f, "bad direction byte {d:#04x}"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            FrameError::BatchTooLarge(n) => write!(f, "batch of {n} messages exceeds the limit"),
            FrameError::MisframedPayload => {
                write!(f, "message length prefixes do not tile the payload")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// One decoded frame: direction plus the raw bytes of each message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// [`DIR_REQUEST`] or [`DIR_RESPONSE`].
    pub direction: u8,
    /// Each message's undecoded bytes.
    pub messages: Vec<Vec<u8>>,
}

/// Builds one frame in place: a header whose count and payload length
/// are patched by [`FrameWriter::finish`], then each message behind a
/// length prefix patched once the message is written. The buffer is
/// reused from frame to frame, so a writer that has seen its largest
/// frame allocates nothing more.
#[derive(Debug, Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
    count: usize,
}

impl FrameWriter {
    /// Start a new frame, dropping the previous one's bytes.
    pub(crate) fn begin(&mut self, direction: u8) {
        self.buf.clear();
        self.count = 0;
        self.buf.extend_from_slice(&MAGIC);
        self.buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        self.buf.push(direction);
        self.buf.extend_from_slice(&[0; 6]); // count and length, patched
    }

    /// Append one message, written by `encode` straight into the frame.
    pub(crate) fn message(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        encode(&mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.count += 1;
    }

    /// Patch the header and return the finished frame's bytes.
    pub(crate) fn finish(&mut self) -> &[u8] {
        let payload_len = (self.buf.len() - HEADER_LEN) as u32;
        self.buf[7..9].copy_from_slice(&(self.count as u16).to_le_bytes());
        self.buf[9..13].copy_from_slice(&payload_len.to_le_bytes());
        &self.buf
    }
}

/// Encode a frame from already-encoded messages.
pub fn encode_frame(direction: u8, messages: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = messages.iter().map(|m| 4 + m.len()).sum();
    let mut w = FrameWriter {
        buf: Vec::with_capacity(HEADER_LEN + payload_len),
        count: 0,
    };
    w.begin(direction);
    for m in messages {
        w.message(|out| out.extend_from_slice(m));
    }
    w.finish();
    w.buf
}

/// Write one frame to `w`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_frame(
    w: &mut (impl Write + ?Sized),
    direction: u8,
    messages: &[Vec<u8>],
) -> io::Result<()> {
    w.write_all(&encode_frame(direction, messages))?;
    w.flush()
}

fn read_exact_or(
    r: &mut (impl Read + ?Sized),
    buf: &mut [u8],
    at_start: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_start && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame from `r`, enforcing `limits` before any allocation.
///
/// # Errors
///
/// [`FrameError::Eof`] at a clean frame boundary; every other variant
/// names the specific protocol violation or transport failure.
pub fn read_frame(r: &mut (impl Read + ?Sized), limits: &Limits) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, true)?;

    let magic: [u8; 4] = header[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let direction = header[6];
    if direction != DIR_REQUEST && direction != DIR_RESPONSE {
        return Err(FrameError::BadDirection(direction));
    }
    let count = u16::from_le_bytes(header[7..9].try_into().unwrap());
    if count > limits.max_batch {
        return Err(FrameError::BatchTooLarge(count));
    }
    let payload_len = u32::from_le_bytes(header[9..13].try_into().unwrap());
    if payload_len > limits.max_frame_len {
        return Err(FrameError::Oversized(payload_len));
    }
    // A message costs at least its 4-byte length prefix; a count the
    // payload cannot hold is rejected before reading it.
    if (count as u64) * 4 > u64::from(payload_len) {
        return Err(FrameError::MisframedPayload);
    }

    let mut payload = vec![0u8; payload_len as usize];
    read_exact_or(r, &mut payload, false)?;

    let mut messages = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    for _ in 0..count {
        if payload.len() - pos < 4 {
            return Err(FrameError::MisframedPayload);
        }
        let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if payload.len() - pos < len {
            return Err(FrameError::MisframedPayload);
        }
        messages.push(payload[pos..pos + len].to_vec());
        pos += len;
    }
    if pos != payload.len() {
        return Err(FrameError::MisframedPayload);
    }
    Ok(Frame {
        direction,
        messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(msgs: &[&[u8]]) -> Vec<u8> {
        encode_frame(
            DIR_REQUEST,
            &msgs.iter().map(|m| m.to_vec()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn frame_round_trip() {
        let bytes = frame_of(&[b"abc", b"", b"xyzzy"]);
        let frame = read_frame(&mut bytes.as_slice(), &Limits::default()).unwrap();
        assert_eq!(frame.direction, DIR_REQUEST);
        assert_eq!(
            frame.messages,
            vec![b"abc".to_vec(), Vec::new(), b"xyzzy".to_vec()]
        );
    }

    #[test]
    fn a_reused_writer_matches_encode_frame() {
        let mut w = FrameWriter::default();
        for msgs in [
            &[&b"a longer first message"[..], b"", b"xyz"][..],
            &[b"q"],
            &[],
        ] {
            w.begin(DIR_RESPONSE);
            for m in msgs {
                w.message(|out| out.extend_from_slice(m));
            }
            let owned: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_vec()).collect();
            assert_eq!(w.finish(), encode_frame(DIR_RESPONSE, &owned));
        }
    }

    #[test]
    fn eof_is_distinct_from_truncation() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, &Limits::default()),
            Err(FrameError::Eof)
        ));
        let bytes = frame_of(&[b"abc"]);
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut], &Limits::default()).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_headers_are_rejected_before_allocation() {
        // Oversized length prefix: rejected from the header alone.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::Oversized(u32::MAX))
        ));

        // Unknown version.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::BadVersion(7))
        ));

        // Bad magic.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::BadMagic(_))
        ));

        // A batch count the payload cannot possibly hold.
        let mut bytes = frame_of(&[b"abc"]);
        bytes[7..9].copy_from_slice(&100u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::MisframedPayload)
        ));
    }

    #[test]
    fn message_prefixes_must_tile_the_payload() {
        let mut bytes = frame_of(&[b"abc", b"de"]);
        // Grow the first message's length prefix past its bytes.
        let first_len_at = HEADER_LEN;
        bytes[first_len_at..first_len_at + 4].copy_from_slice(&200u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), &Limits::default()),
            Err(FrameError::MisframedPayload)
        ));
    }
}
