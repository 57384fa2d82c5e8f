//! Tile configuration: the structural parameters of an FPFA tile.

use crate::alu::AluCapability;
use crate::error::ArchError;

/// Structural parameters of one FPFA tile.
///
/// [`TileConfig::paper`] reproduces the tile of the DATE'03 paper (five PPs,
/// four banks of four registers, two memories of 512 words). Other
/// configurations are useful for design-space exploration and for the
/// deliberately undersized tiles used in failure-injection tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TileConfig {
    /// Number of processing parts (ALUs) in the tile.
    pub num_pps: usize,
    /// Number of input register banks per PP.
    pub banks_per_pp: usize,
    /// Number of registers per bank.
    pub regs_per_bank: usize,
    /// Number of local memories per PP.
    pub mems_per_pp: usize,
    /// Number of words per local memory.
    pub mem_words: usize,
    /// Number of global crossbar buses available per cycle.
    pub crossbar_buses: usize,
    /// Read/write ports per local memory per cycle.
    pub mem_ports: usize,
    /// Write ports per register bank per cycle.
    pub regbank_write_ports: usize,
    /// How far ahead of its use an input may be moved into a register
    /// (the "four steps before" window of Fig. 5).
    pub input_move_window: usize,
    /// What one ALU may execute in a single cycle.
    pub alu: AluCapability,
}

impl TileConfig {
    /// The tile described in the paper.
    pub fn paper() -> Self {
        TileConfig {
            num_pps: 5,
            banks_per_pp: 4,
            regs_per_bank: 4,
            mems_per_pp: 2,
            mem_words: 512,
            crossbar_buses: 10,
            mem_ports: 1,
            regbank_write_ports: 1,
            input_move_window: 4,
            alu: AluCapability::paper(),
        }
    }

    /// A single-PP tile used as the sequential baseline.
    pub fn single_alu() -> Self {
        TileConfig {
            num_pps: 1,
            ..Self::paper()
        }
    }

    /// Overrides the number of processing parts.
    pub fn with_num_pps(mut self, num_pps: usize) -> Self {
        self.num_pps = num_pps;
        self
    }

    /// Overrides the ALU capability.
    pub fn with_alu(mut self, alu: AluCapability) -> Self {
        self.alu = alu;
        self
    }

    /// Overrides the register-file shape.
    pub fn with_register_files(mut self, banks: usize, regs_per_bank: usize) -> Self {
        self.banks_per_pp = banks;
        self.regs_per_bank = regs_per_bank;
        self
    }

    /// Overrides the local memory shape.
    pub fn with_memories(mut self, mems: usize, words: usize) -> Self {
        self.mems_per_pp = mems;
        self.mem_words = words;
        self
    }

    /// Overrides the crossbar width.
    pub fn with_crossbar_buses(mut self, buses: usize) -> Self {
        self.crossbar_buses = buses;
        self
    }

    /// Overrides the allocator's input-move look-back window.
    pub fn with_input_move_window(mut self, window: usize) -> Self {
        self.input_move_window = window;
        self
    }

    /// Total number of registers in the tile.
    pub fn total_registers(&self) -> usize {
        self.num_pps * self.banks_per_pp * self.regs_per_bank
    }

    /// Total number of memory words in the tile.
    pub fn total_memory_words(&self) -> usize {
        self.num_pps * self.mems_per_pp * self.mem_words
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    /// [`ArchError::InvalidConfig`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.num_pps == 0 {
            return Err(ArchError::InvalidConfig(
                "tile needs at least one PP".into(),
            ));
        }
        if self.banks_per_pp == 0 || self.regs_per_bank == 0 {
            return Err(ArchError::InvalidConfig(
                "each PP needs at least one register".into(),
            ));
        }
        if self.mems_per_pp == 0 || self.mem_words == 0 {
            return Err(ArchError::InvalidConfig(
                "each PP needs at least one memory word".into(),
            ));
        }
        if self.crossbar_buses == 0 {
            return Err(ArchError::InvalidConfig(
                "the crossbar needs at least one bus".into(),
            ));
        }
        if self.mem_ports == 0 || self.regbank_write_ports == 0 {
            return Err(ArchError::InvalidConfig(
                "memories and register banks need at least one port".into(),
            ));
        }
        if self.alu.max_ops == 0 || self.alu.max_inputs == 0 {
            return Err(ArchError::InvalidConfig(
                "the ALU must execute at least one operation with one input".into(),
            ));
        }
        // `MemRef` and `RegRef` store indices in the narrowest integers these
        // bounds allow; one past the last index must fit too.
        for (what, count, max) in [
            ("PPs", self.num_pps, usize::from(u8::MAX)),
            (
                "registers per bank",
                self.regs_per_bank,
                usize::from(u8::MAX),
            ),
            ("words per memory", self.mem_words, usize::from(u16::MAX)),
        ] {
            if count > max {
                return Err(ArchError::InvalidConfig(format!(
                    "{count} {what} exceed the model's limit of {max}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_fig1() {
        let c = TileConfig::paper();
        assert_eq!(c.num_pps, 5);
        assert_eq!(c.banks_per_pp, 4);
        assert_eq!(c.regs_per_bank, 4);
        assert_eq!(c.mems_per_pp, 2);
        assert_eq!(c.mem_words, 512);
        assert_eq!(c.total_registers(), 5 * 4 * 4);
        assert_eq!(c.total_memory_words(), 5 * 2 * 512);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_style_overrides() {
        let c = TileConfig::paper()
            .with_num_pps(3)
            .with_register_files(2, 2)
            .with_memories(1, 64)
            .with_crossbar_buses(4)
            .with_input_move_window(2)
            .with_alu(AluCapability::single_op());
        assert_eq!(c.num_pps, 3);
        assert_eq!(c.total_registers(), 12);
        assert_eq!(c.total_memory_words(), 192);
        assert_eq!(c.crossbar_buses, 4);
        assert_eq!(c.input_move_window, 2);
        assert_eq!(c.alu.max_ops, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(TileConfig::paper().with_num_pps(0).validate().is_err());
        assert!(TileConfig::paper()
            .with_register_files(0, 4)
            .validate()
            .is_err());
        assert!(TileConfig::paper().with_memories(2, 0).validate().is_err());
        assert!(TileConfig::paper()
            .with_crossbar_buses(0)
            .validate()
            .is_err());
    }

    #[test]
    fn configurations_past_the_reference_widths_are_refused() {
        let widest = TileConfig::paper()
            .with_num_pps(255)
            .with_register_files(4, 255)
            .with_memories(2, 65_535);
        assert_eq!(widest.validate(), Ok(()));
        for (config, what) in [
            (widest.with_num_pps(256), "256 PPs"),
            (widest.with_register_files(4, 256), "256 registers per bank"),
            (widest.with_memories(2, 65_536), "65536 words per memory"),
        ] {
            match config.validate() {
                Err(ArchError::InvalidConfig(reason)) => {
                    assert!(reason.contains(what), "{reason}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn single_alu_baseline() {
        let c = TileConfig::single_alu();
        assert_eq!(c.num_pps, 1);
        assert!(c.validate().is_ok());
    }
}
