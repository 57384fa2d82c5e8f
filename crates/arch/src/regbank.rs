//! Register banks of a processing part.
//!
//! Each PP has four input register banks named `Ra`, `Rb`, `Rc`, `Rd`; each
//! bank holds four registers. The ALU of a PP reads its operands from its own
//! register banks only — values produced elsewhere must first be moved into a
//! register (via the crossbar) or fetched from a local memory. The resource
//! allocator's job (Fig. 5 of the paper) is to schedule those moves early
//! enough.

use crate::error::ArchError;
use std::fmt;

/// Name of one of the four input register banks of a PP.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegBankName {
    /// Bank `Ra` (feeds ALU input a).
    Ra,
    /// Bank `Rb` (feeds ALU input b).
    Rb,
    /// Bank `Rc` (feeds ALU input c).
    Rc,
    /// Bank `Rd` (feeds ALU input d).
    Rd,
}

impl RegBankName {
    /// All bank names in ALU-input order.
    pub const ALL: [RegBankName; 4] = [
        RegBankName::Ra,
        RegBankName::Rb,
        RegBankName::Rc,
        RegBankName::Rd,
    ];

    /// Index of the bank (0 for `Ra` … 3 for `Rd`).
    pub fn index(self) -> usize {
        match self {
            RegBankName::Ra => 0,
            RegBankName::Rb => 1,
            RegBankName::Rc => 2,
            RegBankName::Rd => 3,
        }
    }

    /// Bank with the given index.
    ///
    /// # Panics
    /// Panics when `index >= 4`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }
}

impl fmt::Display for RegBankName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegBankName::Ra => "Ra",
            RegBankName::Rb => "Rb",
            RegBankName::Rc => "Rc",
            RegBankName::Rd => "Rd",
        };
        f.write_str(s)
    }
}

/// Reference to one register of one bank of one PP.
///
/// Three bytes: [`TileConfig::validate`](crate::TileConfig::validate) bounds
/// the PP count and the registers per bank by [`u8::MAX`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegRef {
    /// Processing part owning the register.
    pub pp: u8,
    /// Register bank within the PP.
    pub bank: RegBankName,
    /// Register index within the bank.
    pub index: u8,
}

const _: () = assert!(std::mem::size_of::<RegRef>() <= 8);

impl RegRef {
    /// Creates a register reference.
    ///
    /// # Panics
    /// Panics when `pp` or `index` exceeds the bounds
    /// [`TileConfig::validate`](crate::TileConfig::validate) enforces; a
    /// reference into a validated tile never does.
    pub fn new(pp: usize, bank: RegBankName, index: usize) -> Self {
        RegRef {
            pp: u8::try_from(pp).expect("PP index within the validated tile"),
            bank,
            index: u8::try_from(index).expect("register index within the validated tile"),
        }
    }

    /// The processing part as an index.
    pub fn pp_index(self) -> usize {
        usize::from(self.pp)
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pp{}.{}[{}]", self.pp, self.bank, self.index)
    }
}

/// One register bank: a small array of word registers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegisterBank {
    name: RegBankName,
    regs: Vec<Option<i64>>,
}

impl RegisterBank {
    /// Creates an empty bank with `size` registers.
    pub fn new(name: RegBankName, size: usize) -> Self {
        RegisterBank {
            name,
            regs: vec![None; size],
        }
    }

    /// Name of the bank.
    pub fn name(&self) -> RegBankName {
        self.name
    }

    /// Number of registers in the bank.
    pub fn size(&self) -> usize {
        self.regs.len()
    }

    /// Number of registers currently holding a value.
    pub fn occupied(&self) -> usize {
        self.regs.iter().filter(|r| r.is_some()).count()
    }

    /// Writes `value` to register `index`.
    ///
    /// # Errors
    /// [`ArchError::InvalidRegister`] when the index is out of range.
    pub fn write(&mut self, index: usize, value: i64) -> Result<(), ArchError> {
        let size = self.size();
        let slot = self
            .regs
            .get_mut(index)
            .ok_or_else(|| ArchError::InvalidRegister {
                reference: format!("{}[{index}] (bank size {size})", self.name),
            })?;
        *slot = Some(value);
        Ok(())
    }

    /// Reads register `index`.
    ///
    /// # Errors
    /// * [`ArchError::InvalidRegister`] when the index is out of range;
    /// * [`ArchError::UninitializedRead`] when the register was never written.
    pub fn read(&self, index: usize) -> Result<i64, ArchError> {
        let slot = self
            .regs
            .get(index)
            .ok_or_else(|| ArchError::InvalidRegister {
                reference: format!("{}[{index}] (bank size {})", self.name, self.size()),
            })?;
        slot.ok_or_else(|| ArchError::UninitializedRead {
            location: format!("{}[{index}]", self.name),
        })
    }

    /// Clears register `index` (frees the slot).
    ///
    /// # Errors
    /// [`ArchError::InvalidRegister`] when the index is out of range.
    pub fn clear(&mut self, index: usize) -> Result<(), ArchError> {
        let size = self.size();
        let slot = self
            .regs
            .get_mut(index)
            .ok_or_else(|| ArchError::InvalidRegister {
                reference: format!("{}[{index}] (bank size {size})", self.name),
            })?;
        *slot = None;
        Ok(())
    }

    /// Index of a free register, if any.
    pub fn free_slot(&self) -> Option<usize> {
        self.regs.iter().position(Option::is_none)
    }

    /// `true` when every register holds a value.
    pub fn is_full(&self) -> bool {
        self.free_slot().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_name_indexing() {
        for (i, name) in RegBankName::ALL.into_iter().enumerate() {
            assert_eq!(name.index(), i);
            assert_eq!(RegBankName::from_index(i), name);
        }
        assert_eq!(RegBankName::Ra.to_string(), "Ra");
    }

    #[test]
    fn write_read_clear() {
        let mut bank = RegisterBank::new(RegBankName::Rb, 4);
        assert_eq!(bank.size(), 4);
        assert_eq!(bank.occupied(), 0);
        bank.write(2, 77).unwrap();
        assert_eq!(bank.read(2).unwrap(), 77);
        assert_eq!(bank.occupied(), 1);
        bank.clear(2).unwrap();
        assert!(matches!(
            bank.read(2),
            Err(ArchError::UninitializedRead { .. })
        ));
    }

    #[test]
    fn out_of_range_accesses_fail() {
        let mut bank = RegisterBank::new(RegBankName::Ra, 4);
        assert!(matches!(
            bank.write(4, 1),
            Err(ArchError::InvalidRegister { .. })
        ));
        assert!(matches!(
            bank.read(9),
            Err(ArchError::InvalidRegister { .. })
        ));
        assert!(matches!(
            bank.clear(4),
            Err(ArchError::InvalidRegister { .. })
        ));
    }

    #[test]
    fn free_slot_tracking() {
        let mut bank = RegisterBank::new(RegBankName::Rd, 2);
        assert_eq!(bank.free_slot(), Some(0));
        bank.write(0, 1).unwrap();
        assert_eq!(bank.free_slot(), Some(1));
        bank.write(1, 2).unwrap();
        assert!(bank.is_full());
        assert_eq!(bank.free_slot(), None);
    }

    #[test]
    fn reg_ref_display() {
        let r = RegRef::new(3, RegBankName::Rc, 1);
        assert_eq!(r.to_string(), "pp3.Rc[1]");
    }
}
