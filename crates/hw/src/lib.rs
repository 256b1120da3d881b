//! Hardware cost models for CoopMC accelerator datapaths.
//!
//! The paper evaluates its optimizations with Cadence Genus synthesis on
//! GlobalFoundries 12 nm at 500 MHz. This crate substitutes a first-order
//! analytical model whose primitive costs are **calibrated to the paper's
//! published numbers** (Table III component areas, Table IV core totals) —
//! see `DESIGN.md` §2 for the substitution rationale. The paper's claims are
//! ratios between datapath configurations built from the same primitives, so
//! an anchored component model reproduces them.
//!
//! Modules:
//!
//! - [`area`] — the primitive component table and composite area for every
//!   PG datapath variant (Table III) and sampler design (Fig. 14).
//! - [`batch`] — the parallel-PG-unit (`pg_units`) bank that models the
//!   chromatic engine's `generate_rows_into` strides, extending the Table
//!   III-style ratios to the vector datapath.
//! - [`cycles`] — per-stage cycle composition for the PG/SD/PU flow.
//! - [`power`] — activity-based relative energy/power (Table IV power
//!   column).
//! - [`accel`] — the end-to-end core configurations `V_Baseline`, `V_PG`,
//!   `V_TS`, `V_PG+TS` of the §IV-D case study (Table IV).
//! - [`roofline`] — the §IV-D memory-bandwidth feasibility analysis.
//! - [`reconcile`] — checks run-journal cycle totals (from `coopmc-obs`)
//!   against the closed-form model, tying the executed chain back to the
//!   Table IV accounting.
//! - [`structural`] — prices a descriptor-derived component census with the
//!   same anchors, so the netlist-derived and closed-form tallies can be
//!   cross-checked by the `descriptor-drift` verify gate.

pub mod accel;
pub mod area;
pub mod batch;
pub mod cycles;
pub mod mem;
pub mod pgpipe;
pub mod power;
pub mod reconcile;
pub mod roofline;
pub mod structural;
