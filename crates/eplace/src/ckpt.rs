//! Durable [`GpCheckpoint`] persistence: a versioned, checksummed binary
//! encoding with a bit-exact round trip.
//!
//! [`GpCheckpoint`] was in-memory only until the placement-as-a-service
//! daemon needed crash recovery across a *process* boundary: a SIGKILLed
//! run must resume from its last on-disk checkpoint and finish bit-identical
//! to an uninterrupted one. That forces three properties on the encoding:
//!
//! 1. **Bit exactness** — every `f64` is stored as its IEEE-754 bit pattern
//!    ([`f64::to_bits`]), so a loaded checkpoint compares equal to the saved
//!    one down to the sign of NaN payloads and `resume_global_placement`
//!    replays the identical trajectory.
//! 2. **Self-validation** — an 8-byte magic, a format version, and a trailing
//!    FNV-1a 64 checksum over everything before it. A corrupt, truncated, or
//!    foreign file yields a typed [`EplaceError::Checkpoint`], never a panic
//!    and never a silently wrong resume.
//! 3. **Crash-safe writes** — [`save_checkpoint`] goes through
//!    [`eplace_obs::write_atomic`] (write temp + fsync + rename), so a crash
//!    at any instant leaves either the previous or the new checkpoint on
//!    disk, never a torn one.

use crate::nesterov::NesterovCheckpoint;
use crate::recover::GpCheckpoint;
use eplace_errors::EplaceError;
use eplace_geometry::Point;
use std::path::Path;

/// Leading magic of the on-disk format.
const MAGIC: &[u8; 8] = b"EPLGPCKP";

/// Current format version. Bump on any layout change; old readers reject
/// newer files with a typed error instead of misreading them.
const VERSION: u32 = 1;

/// Hard cap on any encoded vector length, guarding the reader against
/// allocating absurd amounts of memory for a corrupt length prefix before
/// the checksum gets a chance to reject the file.
const MAX_LEN: u64 = 1 << 32;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_points(buf: &mut Vec<u8>, points: &[Point]) {
    put_u64(buf, points.len() as u64);
    for p in points {
        put_f64(buf, p.x);
        put_f64(buf, p.y);
    }
}

/// Bounds-checked little-endian reader over the encoded payload. Every
/// `take_*` is a `Result`, so a truncated or corrupt file can never panic
/// the loader.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take_u64(&mut self) -> Result<u64, String> {
        let end = self.at.checked_add(8).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!("truncated at byte {}", self.at));
        };
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.at..end]);
        self.at = end;
        Ok(u64::from_le_bytes(raw))
    }

    fn take_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_usize(&mut self, what: &str) -> Result<usize, String> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| format!("{what} {v} overflows usize"))
    }

    fn take_points(&mut self, what: &str) -> Result<Vec<Point>, String> {
        let len = self.take_u64()?;
        if len > MAX_LEN {
            return Err(format!("{what} length {len} exceeds the format cap"));
        }
        let len = len as usize;
        // 16 bytes per point must fit in the remaining payload.
        let remaining = self.bytes.len() - self.at;
        if len.checked_mul(16).is_none_or(|need| need > remaining) {
            return Err(format!(
                "{what} length {len} exceeds the remaining {remaining} payload bytes"
            ));
        }
        let mut points = Vec::with_capacity(len);
        for _ in 0..len {
            let x = self.take_f64()?;
            let y = self.take_f64()?;
            points.push(Point { x, y });
        }
        Ok(points)
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the checkpoint payload",
                self.bytes.len() - self.at
            ))
        }
    }
}

/// Encodes `ck` into the versioned, checksummed binary format.
pub fn checkpoint_to_bytes(ck: &GpCheckpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128 + 16 * 6 * ck.best_pos.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_u64(&mut buf, ck.iteration as u64);
    put_f64(&mut buf, ck.lambda);
    put_f64(&mut buf, ck.gamma);
    put_f64(&mut buf, ck.prev_hpwl);
    put_f64(&mut buf, ck.hpwl_init);
    put_f64(&mut buf, ck.delta_ref);
    put_f64(&mut buf, ck.best_overflow);
    put_u64(&mut buf, ck.best_iter as u64);
    put_points(&mut buf, &ck.best_pos);
    let opt = &ck.optimizer;
    put_points(&mut buf, &opt.u);
    put_points(&mut buf, &opt.v);
    put_points(&mut buf, &opt.v_prev);
    put_points(&mut buf, &opt.g);
    put_points(&mut buf, &opt.g_prev);
    put_f64(&mut buf, opt.a);
    put_f64(&mut buf, opt.last_alpha);
    put_u64(&mut buf, opt.steps as u64);
    put_u64(&mut buf, opt.total_backtracks as u64);
    let checksum = fnv1a64(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Decodes a checkpoint previously produced by [`checkpoint_to_bytes`].
/// `origin` names the source in error messages (a path, or `"<memory>"`).
///
/// # Errors
///
/// [`EplaceError::Checkpoint`] on bad magic, unknown version, checksum
/// mismatch, truncation, or inconsistent vector lengths. Never panics.
pub fn checkpoint_from_bytes(bytes: &[u8], origin: &str) -> Result<GpCheckpoint, EplaceError> {
    decode(bytes).map_err(|message| EplaceError::checkpoint(origin, message))
}

fn decode(bytes: &[u8]) -> Result<GpCheckpoint, String> {
    let header = MAGIC.len() + 4;
    if bytes.len() < header + 8 {
        return Err(format!(
            "file holds {} bytes, smaller than the fixed header",
            bytes.len()
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic (not an ePlace checkpoint)".to_string());
    }
    let mut raw_version = [0u8; 4];
    raw_version.copy_from_slice(&bytes[MAGIC.len()..header]);
    let version = u32::from_le_bytes(raw_version);
    if version != VERSION {
        return Err(format!(
            "format version {version} (this build reads version {VERSION})"
        ));
    }
    let body_end = bytes.len() - 8;
    let mut raw_sum = [0u8; 8];
    raw_sum.copy_from_slice(&bytes[body_end..]);
    let stored = u64::from_le_bytes(raw_sum);
    let computed = fnv1a64(&bytes[..body_end]);
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }

    let mut cur = Cursor {
        bytes: &bytes[..body_end],
        at: header,
    };
    let iteration = cur.take_usize("iteration")?;
    let lambda = cur.take_f64()?;
    let gamma = cur.take_f64()?;
    let prev_hpwl = cur.take_f64()?;
    let hpwl_init = cur.take_f64()?;
    let delta_ref = cur.take_f64()?;
    let best_overflow = cur.take_f64()?;
    let best_iter = cur.take_usize("best_iter")?;
    let best_pos = cur.take_points("best_pos")?;
    let u = cur.take_points("optimizer.u")?;
    let v = cur.take_points("optimizer.v")?;
    let v_prev = cur.take_points("optimizer.v_prev")?;
    let g = cur.take_points("optimizer.g")?;
    let g_prev = cur.take_points("optimizer.g_prev")?;
    let a = cur.take_f64()?;
    let last_alpha = cur.take_f64()?;
    let steps = cur.take_usize("steps")?;
    let total_backtracks = cur.take_usize("total_backtracks")?;
    cur.done()?;

    let ck = GpCheckpoint {
        iteration,
        lambda,
        gamma,
        prev_hpwl,
        hpwl_init,
        delta_ref,
        best_overflow,
        best_iter,
        best_pos,
        optimizer: NesterovCheckpoint {
            u,
            v,
            v_prev,
            g,
            g_prev,
            a,
            last_alpha,
            steps,
            total_backtracks,
        },
    };
    let n = ck.best_pos.len();
    match ck.size_mismatch(n) {
        Some((name, len)) => Err(format!("{name} holds {len} points but best_pos holds {n}")),
        None => Ok(ck),
    }
}

/// Persists `ck` to `path` atomically (write temp + fsync + rename): a crash
/// at any instant leaves either the previous or the new checkpoint on disk.
///
/// # Errors
///
/// [`EplaceError::Io`] when the staging write or rename fails.
pub fn save_checkpoint(path: impl AsRef<Path>, ck: &GpCheckpoint) -> Result<(), EplaceError> {
    let path = path.as_ref();
    eplace_obs::write_atomic(path, &checkpoint_to_bytes(ck))
        .map_err(|e| EplaceError::io(path.display().to_string(), e.to_string()))
}

/// Loads a checkpoint previously written by [`save_checkpoint`].
///
/// # Errors
///
/// [`EplaceError::Io`] when the file cannot be read;
/// [`EplaceError::Checkpoint`] when it does not decode and verify.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<GpCheckpoint, EplaceError> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| EplaceError::io(display.clone(), e.to_string()))?;
    checkpoint_from_bytes(&bytes, &display)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> GpCheckpoint {
        let pts = |salt: f64| -> Vec<Point> {
            (0..n)
                .map(|i| Point {
                    x: salt + i as f64 * 0.125,
                    y: -salt * (i + 1) as f64 / 3.0,
                })
                .collect()
        };
        GpCheckpoint {
            iteration: 42,
            lambda: 1.25e-4,
            gamma: 80.5,
            prev_hpwl: 1.0e6 + 1.0 / 3.0,
            hpwl_init: 9.0e5,
            delta_ref: 2.7e4,
            best_overflow: 0.173_256,
            best_iter: 39,
            best_pos: pts(1.0),
            optimizer: NesterovCheckpoint {
                u: pts(2.0),
                v: pts(3.0),
                v_prev: pts(4.0),
                g: pts(5.0),
                g_prev: pts(6.0),
                a: 7.5,
                last_alpha: 1.23e-3,
                steps: 42,
                total_backtracks: 17,
            },
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ck = sample(13);
        let bytes = checkpoint_to_bytes(&ck);
        let loaded = checkpoint_from_bytes(&bytes, "<memory>").unwrap();
        assert_eq!(loaded, ck);
        // PartialEq on f64 is too weak for the bit-exactness claim (0.0 ==
        // -0.0): compare the re-encoding byte for byte.
        assert_eq!(checkpoint_to_bytes(&loaded), bytes);
    }

    #[test]
    fn every_single_byte_flip_is_detected_without_panic() {
        let ck = sample(3);
        let bytes = checkpoint_to_bytes(&ck);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let err = checkpoint_from_bytes(&corrupt, "<memory>")
                .expect_err(&format!("flip at byte {i} must be detected"));
            assert!(matches!(err, EplaceError::Checkpoint { .. }));
        }
    }

    #[test]
    fn every_truncation_is_detected_without_panic() {
        let ck = sample(2);
        let bytes = checkpoint_to_bytes(&ck);
        for keep in 0..bytes.len() {
            let err = checkpoint_from_bytes(&bytes[..keep], "<memory>")
                .expect_err(&format!("truncation to {keep} bytes must be detected"));
            assert!(matches!(err, EplaceError::Checkpoint { .. }));
        }
    }

    #[test]
    fn version_bump_is_rejected_with_typed_error() {
        let mut bytes = checkpoint_to_bytes(&sample(1));
        bytes[8] = 99; // version field, little-endian low byte
        let err = checkpoint_from_bytes(&bytes, "<memory>").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("version 99"), "{msg}");
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("eplace_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        let ck = sample(7);
        save_checkpoint(&path, &ck).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded, ck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_checkpoint("/nonexistent/eplace/job.ckpt").unwrap_err();
        assert!(matches!(err, EplaceError::Io { .. }));
    }

    #[test]
    fn non_finite_floats_survive_the_round_trip() {
        let mut ck = sample(2);
        ck.best_overflow = f64::INFINITY; // the pre-loop checkpoint really holds this
        let bytes = checkpoint_to_bytes(&ck);
        let loaded = checkpoint_from_bytes(&bytes, "<memory>").unwrap();
        assert_eq!(loaded.best_overflow, f64::INFINITY);
        assert_eq!(checkpoint_to_bytes(&loaded), bytes);
    }
}
