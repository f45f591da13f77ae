#![warn(missing_docs)]
//! # ma-core — the Micro Adaptivity framework
//!
//! This crate is the paper's primary contribution, engine-agnostic:
//!
//! * [`flavor`] / [`dictionary`] — the *Primitive Dictionary* that maps a
//!   primitive signature string to a set of alternative implementations
//!   ("flavors"), each with provenance metadata, plus a registration
//!   mechanism for loading flavor libraries (§1.1 *Flavors*, §3.1).
//! * [`cycles`] / [`profile`] — cheap per-call cost measurement: the reward
//!   signal of the bandit (§1, "Primitive Functions").
//! * [`aph`] — the *Approximated Performance History*: a bounded 512-bucket
//!   performance histogram whose neighbouring buckets merge pairwise when
//!   full (§1.1 *APH*). Every figure in the paper plotting
//!   "cycles/tuple during a query" is an APH.
//! * [`policy`] — multi-armed-bandit flavor-selection policies:
//!   the paper's [`policy::VwGreedy`] plus the baselines it is evaluated
//!   against in Table 5 (ε-greedy, ε-first, ε-decreasing) and a UCB1
//!   extension.
//! * [`trace`] / [`sim`] / [`scores`] — the trace-driven simulator used in
//!   §3.2 "Simulations on traces": replay recorded per-call flavor costs
//!   against any policy and score it against the per-call oracle OPT
//!   (Absolute/OPT and Relative/OPT, Table 5).

pub mod aph;
pub mod cycles;
pub mod dictionary;
pub mod flavor;
pub mod policy;
pub mod profile;
pub mod rng;
pub mod scores;
pub mod sim;
pub mod trace;

pub use aph::{Aph, AphBucket};
pub use cycles::{instant_ticks, ticks_now};
pub use dictionary::PrimitiveDictionary;
pub use flavor::{FlavorInfo, FlavorSet, FlavorSource};
pub use policy::{Policy, PolicyKind, VwGreedyParams};
pub use profile::PrimitiveProfile;
pub use rng::SplitMix64;
pub use scores::{ScoreBoard, SimScore};
pub use sim::{simulate_instance, simulate_workload, SimResult};
pub use trace::InstanceTrace;
