//! Wire framing for the serve layer: length-prefixed binary frames over
//! any byte stream (TCP, Unix sockets, or an in-memory pipe in tests).
//!
//! ```text
//! [len: u32 LE] [kind: u8] [payload: len-1 bytes]
//! ```
//!
//! * kind `0x01` (`REQS`): payload is a run of `(core: u32 LE,
//!   page: u32 LE)` pairs — a batch of requests.
//! * kind `0x02` (`CLOSE`): payload is a run of `core: u32 LE` ids to
//!   close; an **empty** payload closes every core (end of stream).
//!
//! Frames are bounded by [`MAX_FRAME_LEN`]; a malformed frame (bad kind,
//! ragged payload, oversized length) is an `InvalidData` error and the
//! server drops the offending connection — one bad client cannot wedge
//! the service.

use std::io::{self, Read, Write};

/// Frame kind: a batch of `(core, page)` request pairs.
pub const KIND_REQS: u8 = 0x01;
/// Frame kind: close the listed cores (empty list = all cores).
pub const KIND_CLOSE: u8 = 0x02;
/// Upper bound on `len` (kind byte + payload): 1 MiB.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A batch of `(core, page)` requests.
    Reqs(Vec<(u32, u32)>),
    /// Close the listed cores; empty means every core.
    Close(Vec<u32>),
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Encode `frame` onto `w` (one `write_all` per frame: length, kind and
/// payload are staged into a single buffer).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    buf.extend_from_slice(&[0; 4]); // length placeholder
    match frame {
        Frame::Reqs(reqs) => {
            buf.push(KIND_REQS);
            for &(core, page) in reqs {
                buf.extend_from_slice(&core.to_le_bytes());
                buf.extend_from_slice(&page.to_le_bytes());
            }
        }
        Frame::Close(cores) => {
            buf.push(KIND_CLOSE);
            for &core in cores {
                buf.extend_from_slice(&core.to_le_bytes());
            }
        }
    }
    let len = (buf.len() - 4) as u32;
    if len > MAX_FRAME_LEN {
        return Err(bad(format!(
            "frame of {len} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
        )));
    }
    buf[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&buf)
}

/// Decode one frame from `r`. `Ok(None)` is a clean end of stream (EOF
/// exactly on a frame boundary); EOF mid-frame — including 1–3 bytes
/// into the length prefix — and malformed frames are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < len_bytes.len() {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a frame's length prefix"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(bad(format!(
            "frame length {len} outside 1..={MAX_FRAME_LEN}"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let payload = &body[1..];
    match body[0] {
        KIND_REQS => {
            if !payload.len().is_multiple_of(8) {
                return Err(bad(format!(
                    "REQS payload of {} bytes is not a run of 8-byte pairs",
                    payload.len()
                )));
            }
            Ok(Some(Frame::Reqs(
                payload
                    .chunks_exact(8)
                    .map(|c| {
                        (
                            u32::from_le_bytes(c[..4].try_into().unwrap()),
                            u32::from_le_bytes(c[4..].try_into().unwrap()),
                        )
                    })
                    .collect(),
            )))
        }
        KIND_CLOSE => {
            if !payload.len().is_multiple_of(4) {
                return Err(bad(format!(
                    "CLOSE payload of {} bytes is not a run of u32 ids",
                    payload.len()
                )));
            }
            Ok(Some(Frame::Close(
                payload
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )))
        }
        other => Err(bad(format!("unknown frame kind 0x{other:02x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF after");
        got
    }

    #[test]
    fn frames_roundtrip() {
        for frame in [
            Frame::Reqs(vec![]),
            Frame::Reqs(vec![(0, 7), (3, 1_000_000), (u32::MAX, u32::MAX)]),
            Frame::Close(vec![]),
            Frame::Close(vec![0, 1, 2]),
        ] {
            assert_eq!(roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn streams_of_frames_decode_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Reqs(vec![(0, 1)])).unwrap();
        write_frame(&mut buf, &Frame::Reqs(vec![(1, 2)])).unwrap();
        write_frame(&mut buf, &Frame::Close(vec![])).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(Frame::Reqs(vec![(0, 1)]))
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(Frame::Reqs(vec![(1, 2)]))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Frame::Close(vec![])));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Ragged REQS payload (5 bytes after kind).
        let mut buf = 6u32.to_le_bytes().to_vec();
        buf.push(KIND_REQS);
        buf.extend_from_slice(&[1, 2, 3, 4, 5]);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Unknown kind.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.push(0x7f);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Zero length.
        let buf = 0u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Oversized length.
        let buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Truncated mid-frame.
        let mut buf = 9u32.to_le_bytes().to_vec();
        buf.push(KIND_REQS);
        buf.extend_from_slice(&[1, 2, 3]); // promised 8 payload bytes
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Ragged CLOSE payload.
        let mut buf = 4u32.to_le_bytes().to_vec();
        buf.push(KIND_CLOSE);
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn truncated_length_prefix_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Reqs(vec![(0, 1)])).unwrap();
        assert_eq!(read_frame(&mut io::Cursor::new(&buf[..0])).unwrap(), None);
        for cut in 1..4 {
            let err = read_frame(&mut io::Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        // A cut after a whole frame is still a clean end for that frame
        // and an error for the next.
        let mut two = buf.clone();
        two.extend_from_slice(&buf[..2]);
        let mut cursor = io::Cursor::new(two);
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A reader that hands out one byte per call, interrupting every
    /// other call — the length prefix must be assembled across reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            let Some((&b, rest)) = self.bytes.split_first() else {
                return Ok(0);
            };
            if out.is_empty() {
                return Ok(0);
            }
            out[0] = b;
            self.bytes = rest;
            Ok(1)
        }
    }

    #[test]
    fn short_reads_and_interrupts_reassemble_frames() {
        let frame = Frame::Reqs(vec![(3, 4), (5, 6)]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut r = Trickle {
            bytes: &buf,
            interrupt: false,
        };
        assert_eq!(read_frame(&mut r).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }
}
