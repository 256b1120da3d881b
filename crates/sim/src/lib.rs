//! Structural (netlist-level) simulation of CoopMC accelerator datapaths.
//!
//! The behavioral models in `coopmc-kernels`/`coopmc-sampler` compute *what*
//! the hardware computes; this crate models *how*: circuits are built from
//! primitive components (adders, comparators, LUT ROMs, muxes, registers)
//! wired into a [`Netlist`] and stepped cycle by cycle. The shipped circuits
//! are structural renderings of the paper's micro-architecture diagrams:
//!
//! - [`circuits::NormTreeCircuit`] — the DyNorm comparator tree (Fig. 3),
//! - [`circuits::PgCoreCircuit`] — the fused PG core: factor adders → log
//!   LUT → NormTree → broadcast subtract → TableExp (Fig. 6),
//! - [`circuits::TreeSamplerCircuit`] — TreeSum + TraverseTree (Fig. 8),
//!   combinational ([`circuits::TreeSamplerCircuit::new`]) or pipelined
//!   with register stages inserted between the two trees, one label per
//!   cycle (the PipeTreeSampler, [`circuits::TreeSamplerCircuit::pipelined`]).
//!
//! Each hardware tree is built in one place: one pairwise-tree helper
//! builds the NormTree layers (registered or combinational) and the
//! TreeSum levels.
//!
//! Every circuit also carries a typed [`CircuitDescriptor`] (see
//! [`descriptor`]): named pins, typed component counts and named children,
//! derived by bracketing the netlist during construction — the single
//! structural source of truth that `coopmc-analyze` schedules/lints,
//! `coopmc-hw` prices, and `coopmc verify --export-schematic` renders.
//!
//! The test suites prove, exhaustively and property-based, that every
//! structural circuit computes *exactly* the same outputs as its behavioral
//! counterpart, and that its descriptor-derived component census matches
//! the area model in `coopmc-hw` — closing the loop between the three
//! layers of the reproduction (behavioral ≡ structural ≡ costed).
//!
//! # Example
//!
//! ```
//! use coopmc_sim::circuits::TreeSamplerCircuit;
//!
//! let mut circuit = TreeSamplerCircuit::new(4);
//! // Sample with an explicit threshold of 0.6 over weights [.1,.2,.3,.4]:
//! let label = circuit.sample(&[0.1, 0.2, 0.3, 0.4], 0.6);
//! assert_eq!(label, 2); // CDF: .1, .3, .6, 1.0 → first bucket > 0.6
//! ```

pub mod circuits;
pub mod descriptor;
mod netlist;

pub use descriptor::{CircuitDescriptor, DescriptorBuilder, Pin, PinDir};
pub use netlist::{Component, ComponentCensus, LutSpec, Mark, Netlist, Wire};
