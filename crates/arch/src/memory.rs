//! Local memories of a processing part.
//!
//! Each PP contains two local memories, `MEM1` and `MEM2`, of 512 words each.
//! The allocator places statespace tuples (array elements, spilled values)
//! into these memories; the simulator enforces the single read/write port per
//! memory per cycle.

use crate::error::ArchError;
use std::fmt;

/// Identifier of one of the two local memories of a PP.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemId {
    /// First local memory (`MEM1`).
    Mem1,
    /// Second local memory (`MEM2`).
    Mem2,
}

impl MemId {
    /// Both memory identifiers.
    pub const ALL: [MemId; 2] = [MemId::Mem1, MemId::Mem2];

    /// Index of the memory (0 or 1).
    pub fn index(self) -> usize {
        match self {
            MemId::Mem1 => 0,
            MemId::Mem2 => 1,
        }
    }

    /// Memory with the given index.
    ///
    /// # Panics
    /// Panics when `index >= 2`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemId::Mem1 => f.write_str("MEM1"),
            MemId::Mem2 => f.write_str("MEM2"),
        }
    }
}

/// Reference to one word of one local memory of one PP.
///
/// Four bytes: [`TileConfig::validate`](crate::TileConfig::validate) bounds
/// the PP count by [`u8::MAX`] and the memory size by [`u16::MAX`] words, so
/// every word of a valid tile, and the index one past either end, fits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemRef {
    /// Processing part owning the memory.
    pub pp: u8,
    /// Which of the two local memories.
    pub mem: MemId,
    /// Word offset inside the memory.
    pub offset: u16,
}

const _: () = assert!(std::mem::size_of::<MemRef>() <= 8);

impl MemRef {
    /// Creates a memory reference.
    ///
    /// # Panics
    /// Panics when `pp` or `offset` exceeds the bounds
    /// [`TileConfig::validate`](crate::TileConfig::validate) enforces; a
    /// reference into a validated tile never does.
    pub fn new(pp: usize, mem: MemId, offset: usize) -> Self {
        MemRef {
            pp: u8::try_from(pp).expect("PP index within the validated tile"),
            mem,
            offset: u16::try_from(offset).expect("memory offset within the validated tile"),
        }
    }

    /// The processing part as an index.
    pub fn pp_index(self) -> usize {
        usize::from(self.pp)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pp{}.{}[{}]", self.pp, self.mem, self.offset)
    }
}

/// One local memory: an array of words with an occupancy map.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalMemory {
    id: MemId,
    words: Vec<Option<i64>>,
}

impl LocalMemory {
    /// Creates an empty memory with `size` words.
    pub fn new(id: MemId, size: usize) -> Self {
        LocalMemory {
            id,
            words: vec![None; size],
        }
    }

    /// Identifier of this memory.
    pub fn id(&self) -> MemId {
        self.id
    }

    /// Capacity in words.
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Number of words currently holding a value.
    pub fn occupied(&self) -> usize {
        self.words.iter().filter(|w| w.is_some()).count()
    }

    /// Writes `value` at `offset`.
    ///
    /// # Errors
    /// [`ArchError::InvalidMemory`] when the offset is out of range.
    pub fn write(&mut self, offset: usize, value: i64) -> Result<(), ArchError> {
        let size = self.size();
        let id = self.id;
        let slot = self
            .words
            .get_mut(offset)
            .ok_or_else(|| ArchError::InvalidMemory {
                reference: format!("{id}[{offset}] (size {size})"),
            })?;
        *slot = Some(value);
        Ok(())
    }

    /// Reads the word at `offset`.
    ///
    /// # Errors
    /// * [`ArchError::InvalidMemory`] when the offset is out of range;
    /// * [`ArchError::UninitializedRead`] when the word was never written.
    pub fn read(&self, offset: usize) -> Result<i64, ArchError> {
        let slot = self
            .words
            .get(offset)
            .ok_or_else(|| ArchError::InvalidMemory {
                reference: format!("{}[{offset}] (size {})", self.id, self.size()),
            })?;
        slot.ok_or_else(|| ArchError::UninitializedRead {
            location: format!("{}[{offset}]", self.id),
        })
    }

    /// Clears the word at `offset`.
    ///
    /// # Errors
    /// [`ArchError::InvalidMemory`] when the offset is out of range.
    pub fn clear(&mut self, offset: usize) -> Result<(), ArchError> {
        let size = self.size();
        let id = self.id;
        let slot = self
            .words
            .get_mut(offset)
            .ok_or_else(|| ArchError::InvalidMemory {
                reference: format!("{id}[{offset}] (size {size})"),
            })?;
        *slot = None;
        Ok(())
    }

    /// Offset of a free word, if any.
    pub fn free_slot(&self) -> Option<usize> {
        self.words.iter().position(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_id_round_trip() {
        assert_eq!(MemId::Mem1.index(), 0);
        assert_eq!(MemId::from_index(1), MemId::Mem2);
        assert_eq!(MemId::Mem2.to_string(), "MEM2");
    }

    #[test]
    fn write_read_clear() {
        let mut mem = LocalMemory::new(MemId::Mem1, 8);
        assert_eq!(mem.size(), 8);
        mem.write(3, -9).unwrap();
        assert_eq!(mem.read(3).unwrap(), -9);
        assert_eq!(mem.occupied(), 1);
        mem.clear(3).unwrap();
        assert!(matches!(
            mem.read(3),
            Err(ArchError::UninitializedRead { .. })
        ));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut mem = LocalMemory::new(MemId::Mem2, 4);
        assert!(matches!(
            mem.write(4, 0),
            Err(ArchError::InvalidMemory { .. })
        ));
        assert!(matches!(mem.read(99), Err(ArchError::InvalidMemory { .. })));
    }

    #[test]
    fn free_slot_skips_occupied_words() {
        let mut mem = LocalMemory::new(MemId::Mem1, 3);
        mem.write(0, 1).unwrap();
        assert_eq!(mem.free_slot(), Some(1));
        mem.write(1, 2).unwrap();
        mem.write(2, 3).unwrap();
        assert_eq!(mem.free_slot(), None);
    }

    #[test]
    fn mem_ref_display() {
        assert_eq!(MemRef::new(0, MemId::Mem2, 17).to_string(), "pp0.MEM2[17]");
    }
}
