//! Page checksums: CRC32 footers appended to every on-disk page record.
//!
//! A page on disk is a *record* of [`PAGE_RECORD_SIZE`] bytes: the 4096-byte
//! payload followed by a 16-byte footer. The footer binds the payload to its
//! page id and format version so that besides bit rot we also catch pages
//! written to the wrong slot (misdirected writes) and format skew:
//!
//! ```text
//! offset  size  field
//!      0     4  CRC32 (IEEE, LE) over payload ‖ page-id ‖ version
//!      4     4  page id echo (LE)
//!      8     2  footer format version (LE, currently 1)
//!     10     6  footer magic  b"PSJPF1"
//! ```
//!
//! The CRC covers the id and version in addition to the payload, so a footer
//! copied from another page fails verification even when its own CRC is
//! internally consistent.
//!
//! **Kernel.** The CRC is CRC-32/IEEE (reflected, the zlib/Ethernet CRC),
//! computed by slicing-by-8: eight 256-entry tables, built by a `const fn`
//! at compile time, advance the state by one 8-byte word per step, with a
//! bytewise tail. Its output is bit-identical to the classic one-table
//! bytewise loop, so every record ever written still verifies; it runs
//! several times faster, which matters because loading a tree checks the
//! CRC of every page it holds.

use crate::error::PageError;
use crate::page::{PageId, PAGE_SIZE};

/// Size in bytes of the per-page footer.
pub const PAGE_FOOTER_SIZE: usize = 16;
/// Size in bytes of one on-disk page record (payload + footer).
pub const PAGE_RECORD_SIZE: usize = PAGE_SIZE + PAGE_FOOTER_SIZE;
/// Current footer format version.
pub const PAGE_FORMAT_VERSION: u16 = 1;
/// Magic bytes terminating every footer.
pub const FOOTER_MAGIC: [u8; 6] = *b"PSJPF1";

/// CRC-32/IEEE generator polynomial, reflected.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, so one lookup per byte of an 8-byte word advances the state by
/// the whole word. Built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advances the (pre-inverted) CRC state over `data`: eight bytes per step
/// through the slicing tables, then the tail byte by byte.
fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC over payload bound to the page id and format version.
fn page_crc(payload: &[u8], id: PageId, version: u16) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    state = crc32_update(state, payload);
    state = crc32_update(state, &id.0.to_le_bytes());
    state = crc32_update(state, &version.to_le_bytes());
    state ^ 0xFFFF_FFFF
}

/// Build the 16-byte footer for `payload` stored as page `id`.
pub fn page_footer(payload: &[u8; PAGE_SIZE], id: PageId) -> [u8; PAGE_FOOTER_SIZE] {
    let mut footer = [0u8; PAGE_FOOTER_SIZE];
    let crc = page_crc(payload, id, PAGE_FORMAT_VERSION);
    footer[0..4].copy_from_slice(&crc.to_le_bytes());
    footer[4..8].copy_from_slice(&id.0.to_le_bytes());
    footer[8..10].copy_from_slice(&PAGE_FORMAT_VERSION.to_le_bytes());
    footer[10..16].copy_from_slice(&FOOTER_MAGIC);
    footer
}

/// Assemble a full on-disk record (payload + footer) for page `id`.
pub fn encode_record(payload: &[u8; PAGE_SIZE], id: PageId) -> [u8; PAGE_RECORD_SIZE] {
    let mut record = [0u8; PAGE_RECORD_SIZE];
    record[..PAGE_SIZE].copy_from_slice(payload);
    record[PAGE_SIZE..].copy_from_slice(&page_footer(payload, id));
    record
}

/// Verify the footer of `record` against the expected page `id`.
///
/// `context` (typically the file path) is embedded in the error message so
/// multi-tree failures are attributable.
pub fn verify_record(
    record: &[u8; PAGE_RECORD_SIZE],
    id: PageId,
    context: &str,
) -> Result<(), PageError> {
    let payload = &record[..PAGE_SIZE];
    let footer = &record[PAGE_SIZE..];
    if footer[10..16] != FOOTER_MAGIC {
        return Err(PageError::Corrupt {
            page: id,
            context: format!("{context}: footer magic mismatch"),
        });
    }
    let version = u16::from_le_bytes([footer[8], footer[9]]);
    if version != PAGE_FORMAT_VERSION {
        return Err(PageError::Corrupt {
            page: id,
            context: format!(
                "{context}: unsupported page format version {version} (expected {PAGE_FORMAT_VERSION})"
            ),
        });
    }
    let echo = u32::from_le_bytes([footer[4], footer[5], footer[6], footer[7]]);
    if echo != id.0 {
        return Err(PageError::Corrupt {
            page: id,
            context: format!("{context}: page id echo {echo} != expected {}", id.0),
        });
    }
    let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let computed = page_crc(payload, id, version);
    if stored != computed {
        return Err(PageError::Corrupt {
            page: id,
            context: format!(
                "{context}: CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic one-table bytewise CRC32 the slicing kernel replaces,
    /// with its table built here rather than taken from `TABLES`.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state = (state >> 8) ^ table[((state ^ b as u32) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
        let mut payload = [0u8; PAGE_SIZE];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i * 31 + 7) as u8;
        }
        let record = encode_record(&payload, PageId(9));
        assert_eq!(crc32(&record), crc32_bytewise(&record));
    }

    #[test]
    fn footer_bytes_are_pinned() {
        // The on-disk footer of a fixed page: any drift in the CRC kernel
        // or the footer layout would make existing files unreadable.
        let mut payload = [0u8; PAGE_SIZE];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i * 31 + 7) as u8;
        }
        let record = encode_record(&payload, PageId(42));
        assert_eq!(record[..PAGE_SIZE], payload[..]);
        assert_eq!(
            record[PAGE_SIZE..],
            [
                0x72, 0x6C, 0x56, 0x07, 0x2A, 0x00, 0x00, 0x00, 0x01, 0x00, 0x50, 0x53, 0x4A, 0x50,
                0x46, 0x31
            ]
        );
        assert_eq!(page_footer(&payload, PageId(42)), record[PAGE_SIZE..]);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_verifies() {
        let mut payload = [0u8; PAGE_SIZE];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let record = encode_record(&payload, PageId(7));
        verify_record(&record, PageId(7), "test").unwrap();
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let payload = [0xA5u8; PAGE_SIZE];
        let base = encode_record(&payload, PageId(1));
        for &offset in &[
            0usize,
            1,
            PAGE_SIZE / 2,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 5,
        ] {
            let mut record = base;
            record[offset] ^= 0x10;
            let err = verify_record(&record, PageId(1), "flip").unwrap_err();
            assert!(err.is_corrupt(), "offset {offset} not detected");
        }
    }

    #[test]
    fn wrong_slot_is_detected() {
        // A record written for page 3 but read back as page 4 must fail
        // even though its internal CRC is consistent.
        let payload = [0x11u8; PAGE_SIZE];
        let record = encode_record(&payload, PageId(3));
        verify_record(&record, PageId(3), "slot").unwrap();
        let err = verify_record(&record, PageId(4), "slot").unwrap_err();
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("echo"));
    }

    #[test]
    fn torn_record_is_detected() {
        let payload = [0x42u8; PAGE_SIZE];
        let mut record = encode_record(&payload, PageId(2));
        // Simulate a torn write: the tail of the record is zeroed.
        for b in record[PAGE_SIZE - 100..].iter_mut() {
            *b = 0;
        }
        assert!(verify_record(&record, PageId(2), "torn")
            .unwrap_err()
            .is_corrupt());
    }
}
