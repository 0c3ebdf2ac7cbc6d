//! C-style struct layout computation for benchmark ports.
//!
//! The benchmark data structures in the paper are C++ programs whose
//! correctness arguments depend on field-level layout — e.g. CCEH relies on
//! a pair's `key` and `value` fields sharing a cache line (§3.1). Ports use
//! [`StructLayout`] to compute naturally aligned offsets the way a C compiler
//! would, so those co-residency properties carry over.

use serde::{Deserialize, Serialize};

use crate::addr::Addr;

/// A field in a [`StructLayout`]: a name, offset, and size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    name: String,
    offset: u64,
    size: u64,
}

impl Field {
    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Byte offset from the start of the struct.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The address of this field within an instance based at `base`.
    pub fn addr(&self, base: Addr) -> Addr {
        base + self.offset
    }
}

/// Computes C-style struct layouts with natural alignment.
///
/// Fields are laid out in declaration order; each scalar field of size `n`
/// (a power of two up to 8) is aligned to `n` bytes, and the total size is
/// rounded up to the struct's maximum field alignment — the same rules
/// x86-64 C compilers use for these benchmarks.
///
/// # Examples
///
/// ```
/// use pmem::StructLayout;
/// let mut pair = StructLayout::new("Pair");
/// let key = pair.field_u64("key");
/// let value = pair.field_u64("value");
/// assert_eq!(pair.field(key).offset(), 0);
/// assert_eq!(pair.field(value).offset(), 8);
/// assert_eq!(pair.size(), 16);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StructLayout {
    name: String,
    fields: Vec<Field>,
    size: u64,
    align: u64,
}

/// Index of a field within a [`StructLayout`].
pub type FieldIdx = usize;

impl StructLayout {
    /// Starts a new layout with the given struct name.
    pub fn new(name: impl Into<String>) -> Self {
        StructLayout {
            name: name.into(),
            fields: Vec::new(),
            size: 0,
            align: 1,
        }
    }

    /// The struct's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a field of `size` bytes with alignment `align`.
    ///
    /// Returns the field's index for later lookup via [`field`].
    ///
    /// [`field`]: StructLayout::field
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `size` is zero.
    pub fn field_raw(&mut self, name: impl Into<String>, size: u64, align: u64) -> FieldIdx {
        assert!(size > 0, "zero-size field");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let offset = (self.size + align - 1) & !(align - 1);
        self.fields.push(Field {
            name: name.into(),
            offset,
            size,
        });
        self.size = offset + size;
        self.align = self.align.max(align);
        self.fields.len() - 1
    }

    /// Appends a naturally aligned 1-byte field.
    pub fn field_u8(&mut self, name: impl Into<String>) -> FieldIdx {
        self.field_raw(name, 1, 1)
    }

    /// Appends a naturally aligned 2-byte field.
    pub fn field_u16(&mut self, name: impl Into<String>) -> FieldIdx {
        self.field_raw(name, 2, 2)
    }

    /// Appends a naturally aligned 4-byte field.
    pub fn field_u32(&mut self, name: impl Into<String>) -> FieldIdx {
        self.field_raw(name, 4, 4)
    }

    /// Appends a naturally aligned 8-byte field.
    pub fn field_u64(&mut self, name: impl Into<String>) -> FieldIdx {
        self.field_raw(name, 8, 8)
    }

    /// Appends an inline array of `count` elements of `elem_size` bytes,
    /// aligned to `elem_align`.
    pub fn field_array(
        &mut self,
        name: impl Into<String>,
        elem_size: u64,
        elem_align: u64,
        count: u64,
    ) -> FieldIdx {
        self.field_raw(name, elem_size * count, elem_align)
    }

    /// Looks up a field by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn field(&self, idx: FieldIdx) -> &Field {
        &self.fields[idx]
    }

    /// Looks up a field by name.
    pub fn field_named(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Total size, rounded up to the struct alignment.
    pub fn size(&self) -> u64 {
        (self.size + self.align - 1) & !(self.align - 1)
    }

    /// The struct's alignment (maximum field alignment).
    pub fn align(&self) -> u64 {
        self.align
    }

    /// Iterates over the fields in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Field> {
        self.fields.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_alignment_inserts_padding() {
        let mut s = StructLayout::new("Mixed");
        let a = s.field_u8("a");
        let b = s.field_u64("b");
        let c = s.field_u16("c");
        assert_eq!(s.field(a).offset(), 0);
        assert_eq!(s.field(b).offset(), 8); // padded past the u8
        assert_eq!(s.field(c).offset(), 16);
        assert_eq!(s.size(), 24); // rounded to 8
        assert_eq!(s.align(), 8);
    }

    #[test]
    fn field_lookup_by_name() {
        let mut s = StructLayout::new("Pair");
        s.field_u64("key");
        s.field_u64("value");
        assert_eq!(s.field_named("value").unwrap().offset(), 8);
        assert!(s.field_named("missing").is_none());
        assert_eq!(s.name(), "Pair");
    }

    #[test]
    fn arrays_contribute_their_full_size() {
        let mut s = StructLayout::new("Node");
        let keys = s.field_array("keys", 8, 8, 16);
        assert_eq!(s.field(keys).size(), 128);
        assert_eq!(s.size(), 128);
    }

    #[test]
    fn field_addr_is_base_plus_offset() {
        let mut s = StructLayout::new("S");
        s.field_u32("x");
        let y = s.field_u32("y");
        assert_eq!(s.field(y).addr(Addr(0x100)), Addr(0x104));
    }

    #[test]
    fn cceh_pair_shares_cache_line() {
        // The property §3.1 relies on: a 16-byte pair allocated at a
        // line-aligned address keeps key and value on one line.
        let mut pair = StructLayout::new("Pair");
        pair.field_u64("key");
        pair.field_u64("value");
        let base = Addr(0x1000);
        assert!(base.range_on_one_line(pair.size()));
    }
}
