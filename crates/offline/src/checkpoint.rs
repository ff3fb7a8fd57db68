//! Versioned on-disk snapshots of DP frontiers, for checkpoint/resume.
//!
//! When a governed DP run trips its [`mcp_core::Budget`] it stops at a
//! layer boundary and hands back a checkpoint: the complete frontier
//! plus every best-value discovered so far, in a **deterministic byte
//! layout** (entries sorted in canonical [`StateKey`] order,
//! little-endian fixed-width integers). Because the DPs themselves are
//! worker-count-invariant, the snapshot bytes depend only on the
//! instance and on *which* layer boundary the run stopped at — never on
//! `--jobs`, hash order, or timing inside a layer.
//!
//! Every snapshot embeds a fingerprint of the instance (sequences, `K`,
//! `τ`, and the solver options that shape the state space) and a
//! trailing checksum of the payload. Loading validates both, so
//! resuming against the wrong workload, changed options, or a corrupt
//! file is a typed error, not silent wrong answers.

use crate::state::{DpInstance, StateKey};
use mcp_core::Time;
use std::fmt;
use std::io;
use std::path::Path;

/// Snapshot format version (bump on any layout change).
const VERSION: u16 = 1;
/// File magic.
const MAGIC: [u8; 4] = *b"MCPK";
/// Snapshot kind tags.
const KIND_FTF: u8 = 1;
const KIND_PIF: u8 = 2;

/// Errors from saving/loading/validating a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid snapshot (bad magic/version/layout or
    /// checksum mismatch).
    Corrupt(String),
    /// The snapshot belongs to a different instance or solver options.
    Mismatch {
        /// Fingerprint of the instance being resumed.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Mismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: instance is {expected:#018x}, \
                 snapshot was taken for {found:#018x} (different workload, config, or options)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a over a byte stream — tiny, dependency-free, stable.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a compiled instance plus the option bits that shape
/// the explored state space. Two runs may share a snapshot iff their
/// fingerprints match.
pub fn instance_fingerprint(inst: &DpInstance, option_bits: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(inst.k as u64);
    h.write_u64(inst.tau);
    h.write_u64(inst.seqs.len() as u64);
    for seq in &inst.seqs {
        h.write_u64(seq.len() as u64);
        for &pg in seq {
            h.write(&pg.to_le_bytes());
        }
    }
    h.write_u64(inst.pages.len() as u64);
    for pg in &inst.pages {
        h.write_u64(u64::from(pg.0));
    }
    h.write_u64(option_bits);
    h.finish()
}

// ---------------------------------------------------------------------
// Byte-level reader/writer
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn key(&mut self, key: &StateKey) {
        self.u64(key.0);
        for &x in key.1.iter() {
            self.u32(x);
        }
    }
    /// Append the payload checksum (everything after the 4-byte magic).
    fn seal(mut self) -> Vec<u8> {
        let mut h = Fnv::new();
        h.write(&self.buf[MAGIC.len()..]);
        self.u64(h.finish());
        self.buf
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Corrupt(format!(
                "truncated at byte {} (needed {n} more)",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn key(&mut self, cores: usize) -> Result<StateKey, CheckpointError> {
        let cfg = self.u64()?;
        let mut pos = Vec::with_capacity(cores);
        for _ in 0..cores {
            pos.push(self.u32()?);
        }
        Ok((cfg, pos.into_boxed_slice()))
    }
    /// The per-state core count, capped against the remaining payload:
    /// every state key spends at least 4 bytes per core, so a corrupt
    /// count (the checksum can collide, and fuzzed bytes are arbitrary)
    /// cannot drive a multi-gigabyte `with_capacity` before the first
    /// key read fails.
    fn cores(&mut self) -> Result<usize, CheckpointError> {
        let cores = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if cores > remaining / 4 {
            return Err(CheckpointError::Corrupt(format!(
                "core count {cores} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(cores)
    }
    /// Length prefix with a sanity cap against absurd allocations from
    /// corrupt files.
    fn count(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n > remaining {
            return Err(CheckpointError::Corrupt(format!(
                "{what} count {n} exceeds remaining bytes {remaining}"
            )));
        }
        Ok(n as usize)
    }
}

fn open_reader<'a>(bytes: &'a [u8], kind: u8) -> Result<Reader<'a>, CheckpointError> {
    if bytes.len() < MAGIC.len() + 8 || bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let payload = &bytes[MAGIC.len()..bytes.len() - 8];
    let mut h = Fnv::new();
    h.write(payload);
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if h.finish() != stored {
        return Err(CheckpointError::Corrupt("checksum mismatch".into()));
    }
    let mut r = Reader {
        bytes: &bytes[..bytes.len() - 8],
        pos: MAGIC.len(),
    };
    let version = r.u16()?;
    if version != VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported snapshot version {version} (this build reads {VERSION})"
        )));
    }
    let k = r.u8()?;
    if k != kind {
        return Err(CheckpointError::Corrupt(format!(
            "snapshot kind {k} where kind {kind} was expected \
             (FTF and PIF checkpoints are not interchangeable)"
        )));
    }
    Ok(r)
}

// ---------------------------------------------------------------------
// FTF snapshots
// ---------------------------------------------------------------------

/// A truncated [`crate::ftf_dp()`] run, resumable to the exact full-run
/// result: every discovered state with its best fault count and parent,
/// the unexpanded frontier, and the best terminal seen (if any).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtfCheckpoint {
    /// Fingerprint of the instance + options this snapshot belongs to.
    pub fingerprint: u64,
    /// All discovered states `(state, best faults, parent)`, sorted by
    /// state key.
    pub best: Vec<(StateKey, u64, Option<StateKey>)>,
    /// States not yet expanded, sorted by state key.
    pub frontier: Vec<StateKey>,
    /// Best terminal discovered so far.
    pub best_terminal: Option<(u64, StateKey)>,
}

impl FtfCheckpoint {
    /// Number of discovered states.
    pub fn states(&self) -> usize {
        self.best.len()
    }

    /// Serialize to the deterministic byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cores = self
            .best
            .first()
            .map(|(k, _, _)| k.1.len())
            .unwrap_or_default();
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(VERSION);
        w.u8(KIND_FTF);
        w.u64(self.fingerprint);
        w.u32(cores as u32);
        w.u64(self.best.len() as u64);
        for (key, faults, parent) in &self.best {
            w.key(key);
            w.u64(*faults);
            match parent {
                None => w.u8(0),
                Some(p) => {
                    w.u8(1);
                    w.key(p);
                }
            }
        }
        w.u64(self.frontier.len() as u64);
        for key in &self.frontier {
            w.key(key);
        }
        match &self.best_terminal {
            None => w.u8(0),
            Some((faults, key)) => {
                w.u8(1);
                w.u64(*faults);
                w.key(key);
            }
        }
        w.seal()
    }

    /// Parse from bytes, validating magic, version, kind, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = open_reader(bytes, KIND_FTF)?;
        let fingerprint = r.u64()?;
        let cores = r.cores()?;
        let n = r.count("state")?;
        let mut best = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.key(cores)?;
            let faults = r.u64()?;
            let parent = match r.u8()? {
                0 => None,
                1 => Some(r.key(cores)?),
                other => return Err(CheckpointError::Corrupt(format!("bad parent tag {other}"))),
            };
            best.push((key, faults, parent));
        }
        let nf = r.count("frontier")?;
        let mut frontier = Vec::with_capacity(nf);
        for _ in 0..nf {
            frontier.push(r.key(cores)?);
        }
        let best_terminal = match r.u8()? {
            0 => None,
            1 => {
                let faults = r.u64()?;
                Some((faults, r.key(cores)?))
            }
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "bad terminal tag {other}"
                )))
            }
        };
        Ok(FtfCheckpoint {
            fingerprint,
            best,
            frontier,
            best_terminal,
        })
    }

    /// Write the snapshot to a file, atomically: the bytes are staged in
    /// a temp sibling, fsynced, and renamed over the target, with bounded
    /// retry on transient faults — a crash (or injected fault) mid-write
    /// never leaves a torn file at `path` (DESIGN §13).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        mcp_chaos::io::atomic_write(path, &self.to_bytes(), "checkpoint.save")
            .map_err(CheckpointError::Io)
    }

    /// Read a snapshot from a file (transient read faults retried;
    /// corruption surfaces as [`CheckpointError::Corrupt`] via the
    /// checksum, never as a panic).
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&mcp_chaos::io::read(path, "checkpoint.load")?)
    }
}

// ---------------------------------------------------------------------
// PIF snapshots
// ---------------------------------------------------------------------

/// A truncated [`crate::pif_decide`] run: the live layer (each state's
/// Pareto set of fault vectors, in stored order) at the last fully
/// served timestep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PifCheckpoint {
    /// Fingerprint of the instance + options + bounds + horizon.
    pub fingerprint: u64,
    /// Timesteps fully served; resume continues at `t_done + 1`.
    pub t_done: Time,
    /// Cumulative state-vector expansions so far.
    pub expansions: u64,
    /// The live layer, sorted by state key; vector lists keep their
    /// exact stored order (it feeds later Pareto insertions).
    pub layer: Vec<(StateKey, Vec<Box<[u16]>>)>,
}

impl PifCheckpoint {
    /// Number of live states in the layer.
    pub fn states(&self) -> usize {
        self.layer.len()
    }

    /// Serialize to the deterministic byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cores = self
            .layer
            .first()
            .map(|(k, _)| k.1.len())
            .unwrap_or_default();
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(VERSION);
        w.u8(KIND_PIF);
        w.u64(self.fingerprint);
        w.u32(cores as u32);
        w.u64(self.t_done);
        w.u64(self.expansions);
        w.u64(self.layer.len() as u64);
        for (key, vectors) in &self.layer {
            w.key(key);
            w.u64(vectors.len() as u64);
            for v in vectors {
                for &x in v.iter() {
                    w.u16(x);
                }
            }
        }
        w.seal()
    }

    /// Parse from bytes, validating magic, version, kind, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = open_reader(bytes, KIND_PIF)?;
        let fingerprint = r.u64()?;
        let cores = r.cores()?;
        let t_done = r.u64()?;
        let expansions = r.u64()?;
        let n = r.count("layer state")?;
        let mut layer = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.key(cores)?;
            let nv = r.count("vector")?;
            let mut vectors = Vec::with_capacity(nv);
            for _ in 0..nv {
                let mut v = Vec::with_capacity(cores);
                for _ in 0..cores {
                    v.push(r.u16()?);
                }
                vectors.push(v.into_boxed_slice());
            }
            layer.push((key, vectors));
        }
        Ok(PifCheckpoint {
            fingerprint,
            t_done,
            expansions,
            layer,
        })
    }

    /// Write the snapshot to a file, atomically: the bytes are staged in
    /// a temp sibling, fsynced, and renamed over the target, with bounded
    /// retry on transient faults — a crash (or injected fault) mid-write
    /// never leaves a torn file at `path` (DESIGN §13).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        mcp_chaos::io::atomic_write(path, &self.to_bytes(), "checkpoint.save")
            .map_err(CheckpointError::Io)
    }

    /// Read a snapshot from a file (transient read faults retried;
    /// corruption surfaces as [`CheckpointError::Corrupt`] via the
    /// checksum, never as a panic).
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&mcp_chaos::io::read(path, "checkpoint.load")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cfg: u64, pos: &[u32]) -> StateKey {
        (cfg, pos.to_vec().into_boxed_slice())
    }

    fn sample_ftf() -> FtfCheckpoint {
        FtfCheckpoint {
            fingerprint: 0xdead_beef,
            best: vec![
                (key(0, &[1, 1]), 0, None),
                (key(3, &[2, 4]), 2, Some(key(0, &[1, 1]))),
            ],
            frontier: vec![key(3, &[2, 4])],
            best_terminal: Some((5, key(3, &[9, 9]))),
        }
    }

    #[test]
    fn ftf_roundtrip_is_identity() {
        let ck = sample_ftf();
        let bytes = ck.to_bytes();
        assert_eq!(FtfCheckpoint::from_bytes(&bytes).unwrap(), ck);
        // Deterministic layout: same value, same bytes.
        assert_eq!(bytes, sample_ftf().to_bytes());
    }

    #[test]
    fn pif_roundtrip_is_identity() {
        let ck = PifCheckpoint {
            fingerprint: 42,
            t_done: 7,
            expansions: 123,
            layer: vec![
                (key(1, &[4, 1]), vec![vec![0, 2].into_boxed_slice()]),
                (
                    key(2, &[4, 1]),
                    vec![vec![1, 1].into_boxed_slice(), vec![2, 0].into_boxed_slice()],
                ),
            ],
        };
        let bytes = ck.to_bytes();
        assert_eq!(PifCheckpoint::from_bytes(&bytes).unwrap(), ck);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample_ftf().to_bytes();
        // Flip one payload byte: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            FtfCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
        // Truncation is also corruption.
        let whole = sample_ftf().to_bytes();
        assert!(matches!(
            FtfCheckpoint::from_bytes(&whole[..whole.len() - 3]),
            Err(CheckpointError::Corrupt(_))
        ));
        // Garbage is not a snapshot.
        assert!(matches!(
            FtfCheckpoint::from_bytes(b"not a checkpoint at all"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn kinds_are_not_interchangeable() {
        let pif = PifCheckpoint {
            fingerprint: 1,
            t_done: 0,
            expansions: 0,
            layer: vec![(key(0, &[1]), vec![vec![0].into_boxed_slice()])],
        };
        assert!(matches!(
            FtfCheckpoint::from_bytes(&pif.to_bytes()),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            PifCheckpoint::from_bytes(&sample_ftf().to_bytes()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mcp_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ftf.ckpt");
        let ck = sample_ftf();
        ck.save(&path).unwrap();
        assert_eq!(FtfCheckpoint::load(&path).unwrap(), ck);
        assert!(matches!(
            FtfCheckpoint::load(&dir.join("missing.ckpt")),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprints_separate_instances_and_options() {
        use mcp_core::{SimConfig, Workload};
        let w1 = Workload::from_u32([vec![1, 2], vec![3]]).unwrap();
        let w2 = Workload::from_u32([vec![1, 2], vec![4]]).unwrap();
        let i1 = DpInstance::build(&w1, &SimConfig::new(2, 1)).unwrap();
        let i1b = DpInstance::build(&w1, &SimConfig::new(2, 2)).unwrap();
        let i2 = DpInstance::build(&w2, &SimConfig::new(2, 1)).unwrap();
        let f = instance_fingerprint(&i1, 0);
        assert_eq!(f, instance_fingerprint(&i1, 0));
        assert_ne!(f, instance_fingerprint(&i1, 1));
        assert_ne!(f, instance_fingerprint(&i1b, 0));
        assert_ne!(f, instance_fingerprint(&i2, 0));
    }
}
