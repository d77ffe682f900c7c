//! Placement operators for the `xplace` framework.
//!
//! Everything a gradient-based global placer evaluates per iteration lives
//! here, implemented as kernels on the [`xplace_device::Device`] execution
//! model so that launch counts, memory traffic and synchronization points
//! are accounted exactly as the paper's operator-level analysis requires:
//!
//! * [`PlacementModel`] — the flattened array-of-structs view of a design
//!   (movable cells, fixed cells, fillers, CSR nets) that the operators
//!   run on,
//! * [`wirelength`] — HPWL and the numerically stable weighted-average
//!   (WA) wirelength with analytic gradients, in both *split* (separate
//!   kernels, as DREAMPlace launches them) and *fused* (the paper's
//!   operator-combination) forms,
//! * [`density`] — bin-density accumulation with ePlace cell smoothing,
//!   the overflow ratio (Eq. 7), the filler-map extraction of §3.1.2, and
//!   the electrostatic field gradient backed by
//!   [`xplace_fft::ElectrostaticSolver`],
//! * [`precond`] — the diagonal preconditioner `max(1, |S_i| + λ A_i)`
//!   and the stage ratio ω of §3.2.
//!
//! # Example
//!
//! ```
//! use xplace_db::synthesis::{synthesize, SynthesisSpec};
//! use xplace_device::{Device, DeviceConfig};
//! use xplace_ops::PlacementModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = synthesize(&SynthesisSpec::new("demo", 500, 520).with_seed(2))?;
//! let device = Device::new(DeviceConfig::rtx3090());
//! let model = PlacementModel::from_design(&design)?;
//! let hpwl = xplace_ops::wirelength::hpwl(&device, &model);
//! assert!(hpwl > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod density;
mod error;
mod model;
pub mod precond;
pub mod wirelength;

pub use error::OpsError;
pub use model::{clamp_center, NodeRange, PlacementModel};
