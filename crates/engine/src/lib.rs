//! The `rect-addr` serving engine: concurrent solving with
//! permutation-invariant caching and a streaming batch protocol.
//!
//! The solver crates answer one matrix at a time; real workloads — per-layer
//! addressing of a whole circuit, parameter sweeps over benchmark families —
//! submit thousands of related matrices, many identical up to row/column
//! relabeling. This crate is the layer between the solvers and the CLI that
//! makes such workloads cheap:
//!
//! * [`canonical_form`] — a **complete** canonical labeling of the
//!   row/column permutation class of a
//!   [`BitMatrix`](bitmatrix::BitMatrix): bipartite signature refinement
//!   plus individualization-refinement search with automorphism pruning,
//!   exact even on the biregular patterns refinement alone cannot split
//!   (budgeted via [`CanonOptions`], tagged by [`Completeness`]);
//! * [`CanonicalCache`] — memoizes solved partitions keyed by canonical
//!   form, mapping hits back through the query's own permutations, so a
//!   pattern repeated across circuit layers is solved once. The map is
//!   **sharded** by key hash with per-shard LRU eviction, and
//!   [`CanonicalCache::begin`] adds **single-flight** coalescing: W
//!   concurrent jobs on one canonical key run exactly one solve while the
//!   other W − 1 wait on the result;
//! * [`race_strategies`] — the paper's Algorithm 1 as the engine's
//!   pipeline: the real-rank floor once per job, then the [`Strategy`]
//!   phases (`trivial`, `packing`, `sap`) in order, each from the best
//!   partition so far, stopping as soon as it meets the floor; wall-clock
//!   and conflict budgets cancel the SAT phase mid-query via
//!   [`CancelToken`];
//! * [`SessionStore`] — warm [`SapSession`](ebmf::SapSession)s keyed by
//!   canonical class: cache-adjacent jobs *resume* the incremental SAT
//!   descent (learnt clauses retained) instead of re-encoding. A session
//!   is parked once proved (without its encoding) or once its class
//!   recurs;
//! * [`Engine`] — the cache-wrapped pipeline, solving one
//!   [`protocol`] job at a time ([`Engine::solve_job`]). Streaming
//!   transports live one layer up: the `rect-addr-serve` crate's
//!   `Service` facade multiplexes stdin/stdout and socket connections
//!   onto one shared `Engine`, and the CLI exposes them as
//!   `rect-addr batch <file|->` and `rect-addr serve [--listen ...]`.
//!
//! # Examples
//!
//! ```
//! use bitmatrix::BitMatrix;
//! use rect_addr_engine::{Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let l0: BitMatrix = "10\n01".parse()?;
//! let l1: BitMatrix = "01\n10".parse()?; // l0 with rows swapped
//! assert_eq!(engine.solve(&l0).partition.len(), 2);
//! // The permuted duplicate is answered from the canonical-form cache.
//! assert!(engine.solve(&l1).cache_hit);
//! assert_eq!(engine.cache_stats().hits, 1);
//! # Ok::<(), bitmatrix::ParseMatrixError>(())
//! ```

mod cache;
mod canon;
#[allow(clippy::module_inception)]
mod engine;
pub mod persist;
mod portfolio;
mod strategy;

/// The wire protocol (re-exported from `rect-addr-proto`, where the
/// versioned v1/v2 framing now lives).
pub use proto as protocol;

pub use cache::{
    CacheDecision, CacheStats, CachedOutcome, CanonicalCache, FlightGuard, DEFAULT_SHARDS,
    HEURISTIC_KEY_PREVIEW,
};
pub use canon::{
    canonical_form, canonical_form_with, CanonOptions, CanonicalForm, Completeness,
    DEFAULT_CANON_BUDGET,
};
pub use engine::{Engine, EngineConfig, EngineOutcome};
pub use portfolio::{
    build_strategies, build_strategies_with, race_strategies, PortfolioConfig, PortfolioOutcome,
    Provenance,
};
/// Re-export of the SAT cancel token appearing in [`Strategy::run`]'s
/// signature, so downstream crates can implement strategies without
/// depending on the `sat` crate directly.
pub use sat::CancelToken;
pub use strategy::{
    PackingStrategy, SapStrategy, SessionStore, SolveJob, Strategy, StrategyBudget,
    StrategyOutcome, TrivialStrategy,
};
