//! # camsoc-dft
//!
//! Design-for-test: scan insertion, stuck-at fault simulation and ATPG.
//!
//! The paper reports "After scan insertion, the fault coverage was 93 %"
//! for the 240 K-gate DSC controller. This crate rebuilds that number's
//! machinery:
//!
//! * [`scan`] — full-scan insertion: every plain flip-flop is swapped
//!   for its scan variant, flops are stitched into balanced scan chains,
//!   and scan-in/scan-out/scan-enable ports are added.
//! * [`faults`] — the collapsed single-stuck-at fault universe over nets
//!   and fanout branches.
//! * [`fsim`] — a 64-pattern-parallel fault simulator using the
//!   full-scan combinational model (flop Q pins are pseudo-inputs, flop
//!   D pins pseudo-outputs), with a shared per-net cone index and an
//!   allocation-free epoch-stamped scratch on the default
//!   [`fsim::FsimMode::Cached`] path.
//! * [`atpg`] — random-pattern generation with fault dropping followed
//!   by a PODEM-style deterministic phase for the stubborn faults, which
//!   walks the same compiled snapshot and cone index as [`fsim`].
//! * [`vectors`] — scan-vector accounting: load/unload cycles and tester
//!   time per pattern set.
//!
//! # Example
//!
//! ```
//! use camsoc_netlist::generate;
//! use camsoc_dft::{scan::ScanConfig, atpg::{Atpg, AtpgConfig}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = generate::fsm(8, 4, 4, 21);
//! let (scanned, report) = camsoc_dft::scan::insert_scan(nl, &ScanConfig::default())?;
//! assert!(report.scan_flops > 0);
//! let result = Atpg::new(&scanned, AtpgConfig::default())?.run();
//! assert!(result.fault_coverage() > 0.80);
//! # Ok(())
//! # }
//! ```

pub mod atpg;
pub mod codec;
pub mod faults;
pub mod fsim;
pub mod scan;
pub mod vectors;

pub use atpg::{Atpg, AtpgConfig, AtpgResult};
pub use faults::{FaultList, StuckAtFault};
pub use fsim::{CombCircuit, FsimMode, FsimStats};
pub use scan::{insert_scan, ScanConfig, ScanReport};
