//! # mcp-workloads — request-sequence generators
//!
//! * [`adversarial`] — the exact constructions from the paper's proofs
//!   (Lemma 1, Lemma 2, Theorem 1.1, Lemma 4), parameterized by `p`, `K`,
//!   `τ`, and length, used by the experiments that reproduce each bound.
//! * [`synthetic`] — realistic multiprogrammed traffic (uniform, Zipf,
//!   phased working sets, scans, loops) for upper-bound experiments,
//!   examples, and property tests.
//! * [`access_graph`] — random-walk workloads over access graphs (the
//!   Borodin et al. / Fiat–Karlin locality model from the paper's
//!   related work).
//! * [`trace`] — JSON and compact text trace I/O.

#![warn(missing_docs)]

pub mod access_graph;
pub mod adversarial;
pub mod stats;
pub mod synthetic;
pub mod trace;

pub use access_graph::{graph_walks, AccessGraph};
pub use adversarial::{lemma1_lower, lemma2, lemma4_cyclic, thm1_rotating};
pub use stats::{
    lru_stack_distances, profile, profile_core, reuse_distances, working_set_size, CoreProfile,
};
pub use synthetic::{
    bursty, drifting_phases, multiprogrammed, phased, random_disjoint, shared_hotset,
    staggered_thrash, uniform, zipf, zipf_shared, CorePattern,
};
pub use trace::{from_json, load_json, read_text, save_json, to_json, write_text, TextError};
