//! A byte image of the simulated persistent storage.
//!
//! The engine keeps its own persistent image as copy-on-write per-line
//! records that pair each line's bytes with their provenance (see
//! `jaaru::MemState`); [`PmImage`] is the plain byte image behind the
//! public API, the allocator examples, and the test-side reference models.

use crate::hash::FastMap;

use crate::addr::{Addr, CacheLineId, CACHE_LINE_SIZE};

type LineSlab = [u8; CACHE_LINE_SIZE as usize];

/// The contents of persistent storage, as a sparse map of cache lines.
///
/// A `PmImage` is what survives a crash: the execution engine computes the
/// persisted bytes for every cache line (according to the flushes that took
/// effect and the chosen persistence point) and materializes them here. The
/// post-crash execution reads initial values out of the image.
///
/// Unwritten bytes read as zero, matching the convention that fresh
/// persistent pools are zero-initialized.
///
/// # Examples
///
/// ```
/// use pmem::{Addr, PmImage};
/// let mut img = PmImage::new();
/// img.write_u32(Addr(0x1000), 7);
/// assert_eq!(img.read_u32(Addr(0x1000)), 7);
/// assert_eq!(img.read_u8(Addr(0x2000)), 0); // untouched → zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct PmImage {
    lines: FastMap<CacheLineId, LineSlab>,
}

impl PmImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        PmImage::default()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Resolves whole cache-line runs with one map lookup and a
    /// `copy_from_slice` each, instead of a per-byte lookup.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let at = addr + off as u64;
            let line_off = at.line_offset() as usize;
            let take = (CACHE_LINE_SIZE as usize - line_off).min(buf.len() - off);
            match self.lines.get(&at.cache_line()) {
                Some(line) => {
                    buf[off..off + take].copy_from_slice(&line[line_off..line_off + take])
                }
                None => buf[off..off + take].fill(0),
            }
            off += take;
        }
    }

    /// Writes the bytes of `data` starting at `addr`.
    ///
    /// Like [`PmImage::read`], touches each covered cache line once.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let at = addr + off as u64;
            let line_off = at.line_offset() as usize;
            let take = (CACHE_LINE_SIZE as usize - line_off).min(data.len() - off);
            let line = self.line_mut(at.cache_line());
            line[line_off..line_off + take].copy_from_slice(&data[off..off + take]);
            off += take;
        }
    }

    /// Direct read access to one cache line's bytes, if ever written.
    pub fn line(&self, line: CacheLineId) -> Option<&LineSlab> {
        self.lines.get(&line)
    }

    /// Direct write access to one cache line's bytes, created zero-filled on
    /// first touch.
    pub fn line_mut(&mut self, line: CacheLineId) -> &mut LineSlab {
        self.lines
            .entry(line)
            .or_insert([0u8; CACHE_LINE_SIZE as usize])
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.lines.get(&addr.cache_line()) {
            Some(line) => line[addr.line_offset() as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        self.line_mut(addr.cache_line())[addr.line_offset() as usize] = value;
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: Addr) -> u16 {
        let mut b = [0u8; 2];
        self.read(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Number of distinct cache lines ever written.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` if no byte has ever been written.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Removes all contents, returning the image to all-zero.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_bytes_read_zero() {
        let img = PmImage::new();
        assert_eq!(img.read_u64(Addr(0x40)), 0);
        assert!(img.is_empty());
    }

    #[test]
    fn roundtrip_integers() {
        let mut img = PmImage::new();
        img.write_u8(Addr(1), 0xab);
        img.write_u16(Addr(2), 0x1234);
        img.write_u32(Addr(4), 0xdead_beef);
        img.write_u64(Addr(8), 0x0102_0304_0506_0708);
        assert_eq!(img.read_u8(Addr(1)), 0xab);
        assert_eq!(img.read_u16(Addr(2)), 0x1234);
        assert_eq!(img.read_u32(Addr(4)), 0xdead_beef);
        assert_eq!(img.read_u64(Addr(8)), 0x0102_0304_0506_0708);
    }

    #[test]
    fn writes_crossing_line_boundaries() {
        let mut img = PmImage::new();
        // 8 bytes starting 4 before a line boundary.
        img.write_u64(Addr(60), 0x1122_3344_5566_7788);
        assert_eq!(img.read_u64(Addr(60)), 0x1122_3344_5566_7788);
        assert_eq!(img.touched_lines(), 2);
    }

    #[test]
    fn little_endian_layout() {
        let mut img = PmImage::new();
        img.write_u32(Addr(0), 0x0403_0201);
        assert_eq!(img.read_u8(Addr(0)), 0x01);
        assert_eq!(img.read_u8(Addr(3)), 0x04);
    }

    #[test]
    fn bulk_read_spans_written_and_unwritten_lines() {
        let mut img = PmImage::new();
        img.write(Addr(60), &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Read a range covering the written straddle plus an untouched line.
        let mut buf = [0xffu8; 80];
        img.read(Addr(56), &mut buf);
        assert_eq!(&buf[..4], &[0, 0, 0, 0]);
        assert_eq!(&buf[4..12], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(buf[12..].iter().all(|&b| b == 0));
    }

    #[test]
    fn line_accessors_expose_slabs() {
        let mut img = PmImage::new();
        assert!(img.line(CacheLineId(0)).is_none());
        img.line_mut(CacheLineId(0))[3] = 9;
        assert_eq!(img.read_u8(Addr(3)), 9);
        assert_eq!(img.line(CacheLineId(0)).unwrap()[3], 9);
    }

    #[test]
    fn partial_overwrite_mixes_bytes() {
        // The key behaviour for torn stores: writing only some bytes of a
        // field leaves a mix of old and new bytes.
        let mut img = PmImage::new();
        img.write_u64(Addr(0), 0);
        img.write_u32(Addr(0), 0x1234_5678); // low half of a 64-bit store
        assert_eq!(img.read_u64(Addr(0)), 0x1234_5678);
        img.clear();
        assert!(img.is_empty());
    }
}
