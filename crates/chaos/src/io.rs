//! Self-healing file IO: atomic writes (temp sibling + fsync + rename)
//! and whole-file reads, both with bounded retry, deterministic backoff,
//! and chaos injection points.
//!
//! The atomicity contract: after [`atomic_write`] returns — success *or*
//! error, including a simulated crash on any attempt — the target path
//! either holds its previous complete contents or the new complete
//! contents, never a torn prefix. Torn writes land in a `.tmp` sibling
//! that is never the target.
//!
//! Retry interacts with the bounded adversary of [`crate::FaultPlan`]:
//! [`MAX_IO_ATTEMPTS`] exceeds the default `max_consecutive`, so any
//! default plan's injected faults are survived transparently; only a
//! torture plan (or a real, persistent disk error) exhausts the retries
//! and surfaces a typed `io::Error`.

use crate::{read_fault, site_hash, write_fault, ReadFault, WriteFault};
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Attempts per IO operation (first try + retries). Strictly greater
/// than the default [`crate::FaultPlan::max_consecutive`] so default
/// plans cannot defeat the retry loop.
pub const MAX_IO_ATTEMPTS: u32 = 4;

/// Deterministic backoff before retry `attempt + 1`: a fixed, doubling
/// micro-sleep — no clocks or randomness, so fault/retry schedules are
/// reproducible.
fn backoff(attempt: u32) {
    std::thread::sleep(Duration::from_micros(200u64 << attempt.min(8)));
}

fn injected(what: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("mcp-chaos injected {what}"))
}

/// Was this error manufactured by an armed fault plan (as opposed to a
/// genuine OS error)?
pub fn is_injected(e: &io::Error) -> bool {
    e.to_string().contains("mcp-chaos injected")
}

/// The temp sibling `atomic_write` stages into: same directory (so the
/// rename cannot cross filesystems), suffixed `.tmp`.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Stable per-path operation index: distinct paths draw independent
/// fault streams under the same site name.
fn path_index(path: &Path) -> u64 {
    site_hash(&path.to_string_lossy())
}

/// Atomically replace `path` with `bytes`: write a temp sibling, fsync,
/// rename over the target. Transient failures (injected or real) are
/// retried up to [`MAX_IO_ATTEMPTS`] with deterministic backoff; the
/// target is never left torn.
pub fn atomic_write(path: &Path, bytes: &[u8], site: &str) -> io::Result<()> {
    let index = path_index(path);
    let tmp = temp_sibling(path);
    let mut last: Option<io::Error> = None;
    for attempt in 0..MAX_IO_ATTEMPTS {
        match write_once(path, &tmp, bytes, site, index, attempt) {
            Ok(()) => return Ok(()),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < MAX_IO_ATTEMPTS {
                    backoff(attempt);
                }
            }
        }
    }
    // Give up: clean the staging file so no `.tmp` litter survives, and
    // surface the last error. The target is untouched by construction.
    let _ = fs::remove_file(&tmp);
    Err(last.expect("at least one attempt ran"))
}

fn write_once(
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
    site: &str,
    index: u64,
    attempt: u32,
) -> io::Result<()> {
    let fault = write_fault(site, index, attempt);
    if let Some(WriteFault::Enospc) = fault {
        return Err(injected("ENOSPC before write"));
    }
    let mut f = File::create(tmp)?;
    if let Some(WriteFault::Torn { keep_per_256 }) = fault {
        // Simulated crash mid-write: a strict prefix reaches the temp
        // file, then the "process dies". The target path is untouched.
        let keep = bytes.len() * keep_per_256 as usize / 256;
        f.write_all(&bytes[..keep])?;
        let _ = f.sync_all();
        return Err(injected(format_args!(
            "crash mid-write (torn temp file, {keep}/{} bytes)",
            bytes.len()
        )));
    }
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Some(WriteFault::RenameFail) = fault {
        return Err(injected("rename failure after staging"));
    }
    fs::rename(tmp, path)?;
    Ok(())
}

/// Read the whole file at `path`. Transient (injected) errors are
/// retried with backoff; injected *corruption* — short reads and bit
/// flips — is returned as corrupted bytes, exercising the caller's
/// checksum/typed-error path rather than the retry path.
pub fn read(path: &Path, site: &str) -> io::Result<Vec<u8>> {
    let index = path_index(path);
    let mut last: Option<io::Error> = None;
    for attempt in 0..MAX_IO_ATTEMPTS {
        let fault = read_fault(site, index, attempt);
        if let Some(ReadFault::Transient) = fault {
            last = Some(injected("transient read error"));
            if attempt + 1 < MAX_IO_ATTEMPTS {
                backoff(attempt);
            }
            continue;
        }
        let mut f = match File::open(path) {
            Ok(f) => f,
            Err(e) => {
                // Genuine open errors (NotFound, permissions) are not
                // transient; surface them immediately.
                return Err(e);
            }
        };
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        match fault {
            Some(ReadFault::Short { keep_per_256 }) => {
                let keep = bytes.len() * keep_per_256 as usize / 256;
                bytes.truncate(keep);
            }
            Some(ReadFault::BitFlip { salt }) if !bytes.is_empty() => {
                let bit = salt % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            _ => {}
        }
        return Ok(bytes);
    }
    Err(last.expect("loop only exhausts via transient faults"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arm_scoped, disarmed_scoped, FaultPlan};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcp-chaos-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plain_round_trip() {
        let _guard = disarmed_scoped();
        let dir = tmp_dir("plain");
        let p = dir.join("file.bin");
        atomic_write(&p, b"hello", "test.write").unwrap();
        assert_eq!(read(&p, "test.read").unwrap(), b"hello");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_plan_faults_are_survived_transparently() {
        let dir = tmp_dir("survive");
        let _guard = arm_scoped(FaultPlan::seeded(0xBEEF));
        // Many distinct paths so the 250‰ write rate certainly fires on
        // some first attempts; every write must still succeed.
        for i in 0..64 {
            let p = dir.join(format!("f{i}.bin"));
            let payload = vec![i as u8; 64 + i];
            atomic_write(&p, &payload, "test.write").unwrap();
            let bytes = fs::read(&p).unwrap();
            assert_eq!(bytes, payload, "target must hold complete contents");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_plan_never_tears_the_target() {
        let dir = tmp_dir("crash");
        let p = dir.join("ck.bin");
        {
            let _guard = disarmed_scoped();
            atomic_write(&p, b"old complete contents", "test.write").unwrap();
        }
        {
            let _guard = arm_scoped(FaultPlan::write_crash(11));
            let err = atomic_write(&p, b"new contents", "test.write").unwrap_err();
            assert!(is_injected(&err), "{err}");
        }
        assert_eq!(
            fs::read(&p).unwrap(),
            b"old complete contents",
            "a crashed write must leave the previous contents intact"
        );
        assert!(
            !temp_sibling(&p).exists(),
            "no staging litter after giving up"
        );
        // Disarmed, the same write goes through.
        let _guard = disarmed_scoped();
        atomic_write(&p, b"new contents", "test.write").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"new contents");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_corruption_is_returned_not_retried() {
        let dir = tmp_dir("corrupt");
        let p = dir.join("data.bin");
        let payload: Vec<u8> = (0..=255).collect();
        {
            let _guard = disarmed_scoped();
            atomic_write(&p, &payload, "test.write").unwrap();
        }
        let plan = FaultPlan {
            read_per_mille: 1000,
            write_per_mille: 0,
            task_per_mille: 0,
            max_consecutive: u32::MAX,
            ..FaultPlan::seeded(0)
        };
        // Scan seeds until attempt 0 draws a corrupting (non-transient)
        // fault for this path, then require the corruption to surface.
        for seed in 0..64 {
            let _guard = arm_scoped(FaultPlan { seed, ..plan });
            match read_fault("test.read", super::path_index(&p), 0) {
                Some(ReadFault::Transient) | None => continue,
                Some(_) => {
                    let bytes = read(&p, "test.read").unwrap();
                    assert_ne!(bytes, payload, "corruption must reach the caller");
                    return;
                }
            }
        }
        panic!("no corrupting draw in 64 seeds");
    }
}
