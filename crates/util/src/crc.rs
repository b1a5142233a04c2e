//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes a step.
//!
//! Protects checkpoint files and migration images against corruption, the
//! same role the original `libckpt` delegated to filesystem integrity.
//! Every checkpointed page passes through here, so the inner loop is
//! slice-by-8: table `k` holds the CRC of a byte followed by `k` zero
//! bytes, which lets one step fold a whole 64-bit word into the state
//! with eight independent lookups instead of eight dependent ones.

/// Lazily-built tables for the reflected IEEE polynomial: `t[0]` is the
/// classic bytewise table, `t[k][b]` advances `t[k - 1][b]` by one more
/// zero byte.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256 {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Compute the CRC-32 of `data` (matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continue a CRC-32 computation: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Incremental CRC-32 hasher for streaming writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32 {
    value: u32,
}

impl Crc32 {
    /// Fresh hasher (CRC of the empty string is 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.value = crc32_update(self.value, data);
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The one-byte-a-step routine slice-by-8 replaced, kept as the
    /// reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        !data.iter().fold(!0u32, |c, &b| {
            t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    #[test]
    fn agrees_with_bytewise_on_every_length_and_alignment() {
        // A fixed-seed LCG (Knuth's MMIX constants), so a failure names
        // a reproducible buffer.
        let mut x = 1u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        let pool: Vec<u8> = (0..8200 + 8).map(|_| next() as u8).collect();
        for i in 0..1000usize {
            // Lengths 0..=8200 (past two 4 KB pages), starting at every
            // offset within a word.
            let len = if i < 64 { i } else { next() as usize % 8201 };
            let off = i % 8;
            let buf = &pool[off..off + len];
            assert_eq!(crc32(buf), crc32_bytewise(buf), "len {len} offset {off}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 512];
        data[100] = 42;
        let good = crc32(&data);
        data[100] ^= 0x01;
        assert_ne!(good, crc32(&data));
    }

    proptest! {
        #[test]
        fn prop_split_anywhere(data in proptest::collection::vec(any::<u8>(), 0..300), split in 0usize..300) {
            let split = split.min(data.len());
            let (a, b) = data.split_at(split);
            prop_assert_eq!(crc32_update(crc32(a), b), crc32(&data));
        }
    }
}
