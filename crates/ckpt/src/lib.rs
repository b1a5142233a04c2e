//! # nowmp-ckpt — checkpointing substrate (the `libckpt` substitute)
//!
//! The paper uses a modified `libckpt` [Plank et al. 1995] twice:
//!
//! 1. **Fault tolerance** (§4.3): periodically, at an adaptation point,
//!    the master garbage-collects, collects every page it lacks, and
//!    checkpoints itself to disk. Slaves have no private state at
//!    adaptation points, so no coordination is needed.
//! 2. **Urgent-leave migration** (§4.2): the leaving process's heap and
//!    stack are written to a newly created process on another node.
//!
//! Rust cannot portably dump its own thread stacks, so this crate
//! checkpoints exactly the state that is *semantically* present at an
//! adaptation point: the shared pages, allocator and
//! registry state, the fork counter (replay fast-forward index), and an
//! application-provided master blob. The file format is hand-rolled,
//! zero-run compressed, and CRC-32 protected.
//!
//! For migration, [`migration_image_bytes`] sizes the process image the
//! way `libckpt` would (resident pages + stack), which the adaptive
//! layer charges over the 8.1 MB/s migration stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nowmp_tmk::system::MemoryImage;
use nowmp_util::crc::Crc32;
use nowmp_util::wire::{Dec, Enc, WireError};
use nowmp_util::zrle;
use std::fmt;
use std::fs;
use std::io::{Read, Write as IoWrite};
use std::path::Path;

/// File magic: "NOWMPCKP".
pub const MAGIC: &[u8; 8] = b"NOWMPCKP";
/// Format version.
pub const VERSION: u32 = 1;

/// Errors surfaced by checkpoint I/O.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Not a checkpoint file / wrong version.
    BadFormat(String),
    /// CRC mismatch: the file is corrupt.
    Corrupt {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Wire-level decode failure.
    Wire(WireError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::BadFormat(s) => write!(f, "bad checkpoint format: {s}"),
            CkptError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "checkpoint corrupt: crc stored {stored:#x} != computed {computed:#x}"
                )
            }
            CkptError::Wire(e) => write!(f, "checkpoint decode error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> Self {
        CkptError::Wire(e)
    }
}

/// A complete checkpoint: the DSM memory image plus the master's
/// private blob (application-defined; empty by default).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Shared-memory image exported by the master.
    pub image: MemoryImage,
    /// Master-private state (the app's save/restore hook payload).
    pub master_blob: Vec<u8>,
}

impl Checkpoint {
    /// Serialize to bytes (magic + version + payload + CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Enc::with_capacity(4096);
        body.put_u64(self.image.fork_no);
        body.put_u64(self.image.alloc_slots);
        body.put_seq(&self.image.registry);
        body.put_u32(self.image.pages.len() as u32);
        for (pid, words) in &self.image.pages {
            body.put_u32(*pid);
            zrle::encode_words(words, &mut body);
        }
        body.put_bytes(&self.master_blob);
        let body = body.finish();

        let mut crc = Crc32::new();
        crc.update(&body);

        let mut out = Enc::with_capacity(body.len() + 24);
        out.put_raw(MAGIC);
        out.put_u32(VERSION);
        out.put_u32(crc.finish());
        out.put_bytes(&body);
        out.finish()
    }

    /// Deserialize, verifying magic, version and CRC.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        let mut d = Dec::new(buf);
        let magic = d.get_raw(8)?;
        if magic != MAGIC {
            return Err(CkptError::BadFormat("bad magic".into()));
        }
        let version = d.get_u32()?;
        if version != VERSION {
            return Err(CkptError::BadFormat(format!(
                "unsupported version {version}"
            )));
        }
        let stored = d.get_u32()?;
        let body = d.get_bytes()?;
        d.expect_done()?;
        let mut crc = Crc32::new();
        crc.update(body);
        let computed = crc.finish();
        if computed != stored {
            return Err(CkptError::Corrupt { stored, computed });
        }

        let mut b = Dec::new(body);
        let fork_no = b.get_u64()?;
        let alloc_slots = b.get_u64()?;
        let registry = b.get_seq()?;
        let npages = b.get_u32()? as usize;
        if npages > 1 << 26 {
            return Err(CkptError::BadFormat(format!("absurd page count {npages}")));
        }
        let mut pages = Vec::with_capacity(npages.min(65536));
        for _ in 0..npages {
            let pid = b.get_u32()?;
            let words = zrle::decode_words(&mut b)?;
            pages.push((pid, words));
        }
        let master_blob = b.get_bytes()?.to_vec();
        b.expect_done()?;
        Ok(Checkpoint {
            image: MemoryImage {
                fork_no,
                alloc_slots,
                registry,
                pages,
            },
            master_blob,
        })
    }

    /// Write to `path` atomically (tmp file + rename).
    pub fn write_file(&self, path: &Path) -> Result<u64, CkptError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(bytes.len() as u64)
    }

    /// Read and verify from `path`.
    pub fn read_file(path: &Path) -> Result<Self, CkptError> {
        let mut buf = Vec::new();
        fs::File::open(path)?.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }
}

/// Size of a migrating process's image as `libckpt` would write it:
/// resident pages plus a stack/metadata allowance. The paper measured
/// 0.6–0.8 s process creation plus image transfer at 8.1 MB/s; this is
/// the byte count that transfer is charged for.
pub fn migration_image_bytes(resident_pages: usize, page_size: usize) -> usize {
    const STACK_AND_METADATA: usize = 256 * 1024;
    resident_pages * page_size + STACK_AND_METADATA
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            image: MemoryImage {
                fork_no: 42,
                alloc_slots: 4096,
                registry: vec![],
                pages: vec![
                    (0, vec![0u64; 512]),
                    (1, (0..512u64).collect()),
                    (7, vec![0, 0, 9, 0, 0, 0, 0, 0]),
                ],
            },
            master_blob: b"master state".to_vec(),
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn zero_pages_compress() {
        let c = Checkpoint {
            image: MemoryImage {
                fork_no: 0,
                alloc_slots: 512 * 64,
                registry: vec![],
                pages: (0..64).map(|i| (i, vec![0u64; 512])).collect(),
            },
            master_blob: vec![],
        };
        let bytes = c.to_bytes();
        assert!(
            bytes.len() < 64 * 64,
            "64 zero pages should compress to < 4 KB, got {}",
            bytes.len()
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("nowmp-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.ckpt");
        let c = sample();
        let n = c.write_file(&path).unwrap();
        assert!(n > 0);
        let back = Checkpoint::read_file(&path).unwrap();
        assert_eq!(c, back);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let c = sample();
        let mut bytes = c.to_bytes();
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0xFF;
        match Checkpoint::from_bytes(&bytes) {
            Err(CkptError::Corrupt { .. }) | Err(CkptError::Wire(_)) => {}
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CkptError::BadFormat(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 8, 12, 20, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn migration_image_sizing() {
        // 1000 resident 4 KB pages ≈ 4 MB + 256 KB stack allowance.
        let b = migration_image_bytes(1000, 4096);
        assert_eq!(b, 1000 * 4096 + 256 * 1024);
    }
}
