//! `rect-addr`: depth-optimal rectangular addressing of 2D qubit arrays.
//!
//! Umbrella crate re-exporting the workspace members. See the individual
//! crates for full documentation:
//!
//! * [`bitmatrix`] — bit-packed binary matrices;
//! * [`linalg`] — the real-rank floor, GF(2) rank and fooling-set bounds;
//! * [`sat`] — the CDCL SAT solver used by the exact EBMF solver;
//! * [`certcheck`] — standalone DRAT/LRAT certificate validator (shares
//!   no code with the solver, so optimality claims are checked
//!   independently);
//! * [`exactcover`] — Algorithm X / dancing links;
//! * [`ebmf`] — the paper's core contribution: row packing and SAP;
//! * [`qaddress`] — AOD addressing schedules and the FTQC two-level layer;
//! * [`obs`] — zero-dependency telemetry: latency histograms, counters,
//!   per-job stage traces and the metrics dump;
//! * [`proto`] — the versioned JSON-lines wire protocol (v1 + v2);
//! * [`engine`] — concurrent portfolio solving with canonical-form caching;
//! * [`serve`] — the `Service` facade and its stdin/socket transports.

pub use bitmatrix;
pub use certcheck;
pub use ebmf;
pub use engine;
pub use exactcover;
pub use linalg;
pub use obs;
pub use proto;
pub use qaddress;
pub use sat;
pub use serve;
