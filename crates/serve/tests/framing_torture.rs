//! Adversarial hardening of the wire framing (DESIGN §14).
//!
//! Contract under torture: every byte-prefix truncation and every
//! single-bit flip of an encoded frame stream decodes either exactly —
//! the frames an independent slice-based decoder finds in the same
//! bytes — or up to a typed `io::Error`, never a panic. Fed through
//! `serve_connection` into a `QueueSet`, the admitted requests are
//! exactly those of the frames that decoded completely before any
//! error, and `offered == admitted + dropped` holds.

use mcp_serve::{
    read_frame, serve_connection, write_frame, Discipline, Frame, Msg, QueueSet, KIND_CLOSE,
    KIND_REQS, MAX_FRAME_LEN,
};
use proptest::prelude::*;
use std::io::{self, Cursor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Engine cores of the receiving queue set.
const CORES: usize = 4;

/// An independent decoder over a byte slice: the frames in `bytes`, and
/// whether the stream ends in an error instead of on a frame boundary.
fn reference_decode(mut bytes: &[u8]) -> (Vec<Frame>, bool) {
    let mut frames = Vec::new();
    let u32_at = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    loop {
        if bytes.is_empty() {
            return (frames, false);
        }
        if bytes.len() < 4 {
            return (frames, true);
        }
        let len = u32_at(bytes) as usize;
        if len == 0 || len > MAX_FRAME_LEN as usize || bytes.len() - 4 < len {
            return (frames, true);
        }
        let (kind, payload) = (bytes[4], &bytes[5..4 + len]);
        let frame = match kind {
            KIND_REQS if payload.len().is_multiple_of(8) => Frame::Reqs(
                payload
                    .chunks_exact(8)
                    .map(|c| (u32_at(c), u32_at(&c[4..])))
                    .collect(),
            ),
            KIND_CLOSE if payload.len().is_multiple_of(4) => {
                Frame::Close(payload.chunks_exact(4).map(u32_at).collect())
            }
            _ => return (frames, true),
        };
        frames.push(frame);
        bytes = &bytes[4 + len..];
    }
}

/// Decode with `read_frame` until the end or the first error, under
/// `catch_unwind`: the decoder must never panic, whatever the bytes.
fn decode(bytes: &[u8]) -> (Vec<Frame>, Option<io::Error>) {
    catch_unwind(AssertUnwindSafe(|| {
        let mut cursor = Cursor::new(bytes);
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e)),
            }
        }
    }))
    .expect("frame decoding must never panic")
}

/// What a cFCFS queue set holds after `frames` arrive: requests admit in
/// order until the first close, which ends the one cFCFS stream (one
/// marker per listed core, one for an empty list); later requests drop.
fn expected_queue(frames: &[Frame]) -> (Vec<Msg>, u64, u64) {
    let (mut msgs, mut offered, mut dropped, mut open) = (Vec::new(), 0, 0, true);
    for frame in frames {
        match frame {
            Frame::Reqs(reqs) => {
                offered += reqs.len() as u64;
                if open {
                    msgs.extend(reqs.iter().map(|&(core, page)| Msg::Req { core, page }));
                } else {
                    dropped += reqs.len() as u64;
                }
            }
            Frame::Close(cores) if cores.is_empty() => {
                open = false;
                msgs.push(Msg::Close { core: u32::MAX });
            }
            Frame::Close(cores) => {
                open = false;
                msgs.extend(cores.iter().map(|&core| Msg::Close { core }));
            }
        }
    }
    (msgs, offered, dropped)
}

/// Check one (possibly damaged) byte stream against the contract.
fn check(bytes: &[u8], what: &str) {
    let (want_frames, want_err) = reference_decode(bytes);
    let (frames, err) = decode(bytes);
    assert_eq!(frames, want_frames, "{what}: decoded frames");
    match (&err, want_err) {
        (None, false) => {}
        (Some(e), true) => assert!(
            matches!(
                e.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ),
            "{what}: untyped error {e:?}"
        ),
        _ => panic!("{what}: error {err:?}, reference expected error: {want_err}"),
    }

    // The whole stream through a connection into a queue set deep enough
    // that nothing drops for want of room.
    let (queues, mut consumer) = QueueSet::new(Discipline::Cfcfs, CORES, bytes.len() + 8);
    let fed = catch_unwind(AssertUnwindSafe(|| {
        serve_connection(&mut Cursor::new(bytes), &queues)
    }))
    .expect("serve_connection must never panic");
    assert_eq!(fed.is_err(), want_err, "{what}: connection outcome");
    let (want_msgs, offered, dropped) = expected_queue(&want_frames);
    let mut msgs = Vec::new();
    consumer.drain(usize::MAX, |m| msgs.push(m));
    assert_eq!(msgs, want_msgs, "{what}: admitted messages");
    let t = queues.totals();
    assert_eq!(
        (t.offered, t.dropped),
        (offered, dropped),
        "{what}: counters"
    );
    assert_eq!(t.offered, t.admitted + t.dropped, "{what}: conservation");
}

/// `frames` encoded back to back.
fn stream(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        write_frame(&mut bytes, frame).unwrap();
    }
    bytes
}

/// Request frames (one empty), a single-core close that ends the cFCFS
/// stream, a request frame that then drops, and a close-all.
fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Reqs(vec![(0, 7), (1, 8), (2, 9)]),
        Frame::Reqs(vec![]),
        Frame::Reqs(vec![(3, 1_000_000), (0, 2)]),
        Frame::Close(vec![2]),
        Frame::Reqs(vec![(1, 5)]),
        Frame::Close(vec![]),
    ]
}

#[test]
fn reference_decoder_agrees_on_the_clean_stream() {
    let frames = sample_frames();
    let bytes = stream(&frames);
    assert_eq!(reference_decode(&bytes), (frames.clone(), false));
    assert_eq!(decode(&bytes).0, frames);
    check(&bytes, "clean stream");
}

#[test]
fn every_prefix_decodes_whole_frames_or_errors() {
    let frames = sample_frames();
    let bytes = stream(&frames);
    let mut boundaries = vec![0];
    for frame in &frames {
        let last = *boundaries.last().unwrap();
        boundaries.push(last + stream(std::slice::from_ref(frame)).len());
    }
    for len in 0..=bytes.len() {
        let prefix = &bytes[..len];
        let whole = boundaries.iter().filter(|&&b| b <= len).count() - 1;
        let (got, err) = decode(prefix);
        assert_eq!(got, frames[..whole], "prefix {len}: whole frames");
        assert_eq!(err.is_some(), !boundaries.contains(&len), "prefix {len}");
        check(prefix, &format!("prefix {len}"));
    }
}

#[test]
fn every_single_bit_flip_decodes_exactly_or_errors() {
    let bytes = stream(&sample_frames());
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped, &format!("bit {bit}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_streams_survive_cuts_and_flips(
        reqs in prop::collection::vec(
            prop::collection::vec((0u32..6, 0u32..u32::MAX), 0..6),
            1..6,
        ),
        cut_pm in 0usize..1001,
        flip_pm in 0usize..1000,
    ) {
        let frames: Vec<Frame> = reqs.into_iter().map(Frame::Reqs).collect();
        let bytes = stream(&frames);
        check(&bytes[..bytes.len() * cut_pm / 1000], "random cut");
        let mut flipped = bytes.clone();
        let bit = bytes.len() * 8 * flip_pm / 1000;
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped, "random flip");
    }
}
