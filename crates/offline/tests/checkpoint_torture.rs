//! Adversarial hardening of the checkpoint layer (DESIGN §13).
//!
//! Contract under torture: parsing arbitrary bytes — every byte-prefix
//! truncation, random single-byte mutations, random soup — yields a
//! typed [`CheckpointError`], never a panic, wrap-around, or absurd
//! allocation; and the on-disk save path is atomic under simulated
//! crashes (the target file is never torn, even when every write
//! attempt "crashes").

use mcp_chaos::{arm_scoped, disarmed_scoped, FaultPlan};
use mcp_core::{Budget, SimConfig};
use mcp_offline::{
    ftf_dp_governed, lru_faults, pif_decide_governed, CheckpointError, FtfCheckpoint, FtfOptions,
    FtfOutcome, PifCheckpoint, PifOptions, PifOutcome,
};
use mcp_workloads::random_disjoint;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// A real FTF checkpoint: a governed run truncated by a tiny state cap
/// (seeds are probed until one actually truncates — the generator
/// randomizes instance size).
fn ftf_checkpoint() -> FtfCheckpoint {
    for seed in 11..64 {
        let w = random_disjoint(seed, 2, 8, 4);
        let cfg = SimConfig::new(3, 1);
        let budget = Budget::unlimited().with_max_states(2);
        if let FtfOutcome::Truncated(t) =
            ftf_dp_governed(&w, cfg, FtfOptions::default(), &budget, None).unwrap()
        {
            return t.checkpoint;
        }
    }
    panic!("no seed in range produced a truncated run");
}

/// A real PIF checkpoint: a governed decision truncated mid-horizon.
fn pif_checkpoint() -> PifCheckpoint {
    for seed in 12..64 {
        let w = random_disjoint(seed, 2, 8, 4);
        let cfg = SimConfig::new(3, 1);
        let bounds: Vec<u64> = (0..w.num_cores())
            .map(|i| lru_faults(w.sequence(i), (cfg.cache_size / w.num_cores()).max(1)))
            .collect();
        let budget = Budget::unlimited().with_max_states(2);
        if let PifOutcome::Truncated(t) =
            pif_decide_governed(&w, cfg, 6, &bounds, PifOptions::default(), &budget, None).unwrap()
        {
            return t.checkpoint;
        }
    }
    panic!("no seed in range produced a truncated run");
}

/// Parse under `catch_unwind`: the loader must never panic, whatever the
/// bytes.
fn parse_ftf(bytes: &[u8]) -> Result<FtfCheckpoint, CheckpointError> {
    catch_unwind(AssertUnwindSafe(|| FtfCheckpoint::from_bytes(bytes)))
        .expect("checkpoint parsing must never panic")
}

fn parse_pif(bytes: &[u8]) -> Result<PifCheckpoint, CheckpointError> {
    catch_unwind(AssertUnwindSafe(|| PifCheckpoint::from_bytes(bytes)))
        .expect("checkpoint parsing must never panic")
}

#[test]
fn every_byte_prefix_is_a_typed_error() {
    let ftf = ftf_checkpoint();
    let bytes = ftf.to_bytes();
    for len in 0..bytes.len() {
        assert!(
            parse_ftf(&bytes[..len]).is_err(),
            "strict prefix of {len}/{} bytes must not parse",
            bytes.len()
        );
    }
    assert_eq!(parse_ftf(&bytes).unwrap(), ftf);

    let pif = pif_checkpoint();
    let bytes = pif.to_bytes();
    for len in 0..bytes.len() {
        assert!(
            parse_pif(&bytes[..len]).is_err(),
            "strict prefix of {len}/{} bytes must not parse",
            bytes.len()
        );
    }
    assert_eq!(parse_pif(&bytes).unwrap(), pif);
}

/// FNV-1a matching the snapshot trailer — lets the test forge a valid
/// checksum over a hostile payload.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn forged_checksum_with_absurd_core_count_is_rejected_cheaply() {
    // Valid magic/version/kind/checksum, but a core count claiming 4 GiB
    // of positions per key: the loader must reject it from the length
    // budget instead of attempting the allocation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u16.to_le_bytes()); // version
    payload.push(1); // KIND_FTF
    payload.extend_from_slice(&0u64.to_le_bytes()); // fingerprint
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // cores
    payload.extend_from_slice(&1u64.to_le_bytes()); // one state entry
    payload.extend_from_slice(&[0u8; 32]); // some bytes for it to chew on
    let mut bytes = b"MCPK".to_vec();
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    match parse_ftf(&bytes) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("core count"), "{msg}")
        }
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-byte mutations of a valid snapshot: typed error or — for
    /// the vanishingly rare checksum-preserving mutation — a parsed
    /// value; never a panic (the catch_unwind in the helpers proves it).
    #[test]
    fn mutated_snapshots_never_panic(idx in 0usize..4096, val in 0u8..=255) {
        let bytes = ftf_checkpoint().to_bytes();
        let mut m = bytes.clone();
        let i = idx % m.len();
        m[i] = val;
        if m == bytes {
            prop_assert!(parse_ftf(&m).is_ok());
        } else {
            // One flipped byte cannot preserve FNV-1a here; it must be
            // caught as a typed corruption.
            prop_assert!(parse_ftf(&m).is_err());
        }
        let _ = parse_pif(&m);
    }

    /// Random byte soup (with and without a valid magic) never panics.
    #[test]
    fn random_soup_never_panics(mut soup in prop::collection::vec(0u8..=255, 0..256), magic in 0u8..=1) {
        if magic == 1 && soup.len() >= 4 {
            soup[..4].copy_from_slice(b"MCPK");
        }
        let _ = parse_ftf(&soup);
        let _ = parse_pif(&soup);
    }

    /// Random truncations of a valid snapshot are typed errors.
    #[test]
    fn truncations_are_typed_errors(cut in 0usize..4096) {
        let bytes = pif_checkpoint().to_bytes();
        let len = cut % bytes.len();
        prop_assert!(parse_pif(&bytes[..len]).is_err());
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcp-ck-torture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn simulated_crash_mid_write_never_tears_the_target() {
    let path = tmp("crash.mcpk");
    let old = ftf_checkpoint();
    let new = pif_checkpoint(); // any different payload

    // The unfaulted save and load hold the arm lock, so a concurrently
    // running test's fault plan cannot tear them.
    {
        let _quiet = disarmed_scoped();
        old.save(&path).unwrap();
    }
    {
        let _guard = arm_scoped(FaultPlan::write_crash(0xC5A7));
        // Every attempt "crashes" (torn temp / ENOSPC / failed rename):
        // the save must give up with a typed IO error...
        let err = new.to_bytes();
        let res = mcp_chaos::io::atomic_write(&path, &err, "checkpoint.save");
        assert!(res.is_err(), "write_crash plan must defeat every retry");
    }
    // ...and the target still holds the previous complete snapshot.
    let _quiet = disarmed_scoped();
    assert_eq!(FtfCheckpoint::load(&path).unwrap(), old);
    assert!(
        !mcp_chaos::io::temp_sibling(&path).exists(),
        "no staging litter left behind"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_io_faults_are_survived_or_typed_never_silent() {
    let ck = ftf_checkpoint();
    // Sweep seeds so all fault classes (ENOSPC, torn, rename-fail on the
    // write side; short read, bit flip, transient on the read side) get
    // drawn. Default plans are bounded, so saves must all succeed; loads
    // must either return the exact snapshot or a typed error.
    let mut corrupt_loads = 0;
    for seed in 0..24u64 {
        let path = tmp(&format!("fault-{seed}.mcpk"));
        let _guard = arm_scoped(FaultPlan {
            read_per_mille: 500,
            max_consecutive: 1, // reads have no corruption retry: keep it survivable
            ..FaultPlan::seeded(seed)
        });
        ck.save(&path)
            .unwrap_or_else(|e| panic!("bounded plan must not defeat save (seed {seed}): {e}"));
        match catch_unwind(AssertUnwindSafe(|| FtfCheckpoint::load(&path))) {
            Ok(Ok(loaded)) => assert_eq!(loaded, ck, "seed {seed}: silent divergence"),
            Ok(Err(CheckpointError::Corrupt(_))) => corrupt_loads += 1,
            Ok(Err(e)) => panic!("seed {seed}: unexpected error class: {e}"),
            Err(_) => panic!("seed {seed}: load panicked"),
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(corrupt_loads > 0, "the sweep never drew a corrupting fault");
}
