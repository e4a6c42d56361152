//! # pprl-smc — the SMC step (paper §V)
//!
//! The blocking step leaves a set of *unknown* (U) class pairs. This crate
//! decides how the bounded cryptographic budget is spent on them:
//!
//! 1. [`expected`] — the expected-distance functions of §V-C (Eq. 1–8),
//!    computed from generalization sequences under the uniform-distribution
//!    assumption ("participants would not (and should not) release any
//!    statistics on the distribution of original values").
//! 2. [`SelectionHeuristic`] — the orderings evaluated in §VI:
//!    `MinFirst`, `MaxLast`, `MinAvgFirst` (plus `Random`, which §V-B's
//!    strategy 3 requires).
//! 3. [`SmcAllowance`] — the cost cap, expressed as the paper does: a
//!    percentage of all `|R|·|S|` record pairs.
//! 4. [`executor`] — spends the budget, class pair by class pair (with
//!    partial consumption of the pair that straddles the limit), using
//!    either the real Paillier protocol or the plaintext oracle (provably
//!    equivalent; see `DESIGN.md` substitution 2).
//! 5. [`LabelingStrategy`] — §V-B's three options for the pairs the budget
//!    never reaches; the paper adopts *maximize precision* (label them
//!    non-match), which guarantees 100 % precision.
//!
//! ```
//! use pprl_smc::SmcAllowance;
//!
//! // The paper's default: 1.5 % of the |R|·|S| pair space.
//! let allowance = SmcAllowance::paper_default();
//! assert_eq!(allowance.budget_pairs(404_331_664), 6_064_974);
//! ```

mod allowance;
mod clk_bank;
pub mod codec;
pub mod comparator;
mod deadline;
pub mod executor;
pub mod expected;
mod heuristics;
pub mod holder;
mod strategy;

pub use allowance::SmcAllowance;
pub use clk_bank::ClkBank;
pub use codec::{decode_session, encode_session};
pub use comparator::{clk_record_fields, CompareCtx, Comparator, ComparatorStats, PairView};
pub use deadline::DeadlineBudget;
pub use executor::{
    AbandonReason, AbandonTally, ChannelConfig, CompareOutcome, DegradationReport, ExaminedStats,
    LeftoverPair, PairDecision, PairEvent, RemoteParty, SessionPhase, SmcMode, SmcReport,
    SmcRunner, SmcSession, SmcStep,
};
pub use holder::{HolderBackend, HolderSide};
pub use heuristics::{order_unknown, SelectionHeuristic};
pub use strategy::{label_leftovers, LabelingStrategy};

// Transport-layer knobs surfaced so downstream crates can configure a
// [`ChannelConfig`] without depending on pprl-crypto directly.
pub use pprl_crypto::protocol::retry::RetryPolicy;
pub use pprl_crypto::protocol::transport::{FaultConfig, FaultStats};

/// Errors from the SMC step.
#[derive(Debug)]
pub enum SmcError {
    /// The Paillier protocol cannot evaluate this distance securely
    /// (edit distance needs a garbled-circuit protocol; oracle mode
    /// supports it for experimentation).
    UnsupportedDistance(&'static str),
    /// Crypto-layer failure.
    Crypto(pprl_crypto::CryptoError),
    /// Unrecoverable transport failure during session setup (the key
    /// broadcast); per-pair transport failures degrade instead of erroring.
    Transport(pprl_crypto::protocol::transport::TransportError),
    /// A checkpointed [`SmcSession`] does not fit the inputs or
    /// configuration it was asked to resume against.
    SessionMismatch(String),
    /// An internal invariant did not hold (an index derived from session
    /// state fell outside its table). Replaces panics on protocol paths:
    /// corrupted session state must surface as an error, not an abort.
    Internal(&'static str),
}

impl std::fmt::Display for SmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmcError::UnsupportedDistance(d) => {
                write!(f, "distance {d} not supported by the SMC protocol")
            }
            SmcError::Crypto(e) => write!(f, "crypto error: {e}"),
            SmcError::Transport(e) => write!(f, "transport error: {e}"),
            SmcError::SessionMismatch(why) => write!(f, "session mismatch: {why}"),
            SmcError::Internal(why) => write!(f, "internal invariant violated: {why}"),
        }
    }
}

impl std::error::Error for SmcError {}

impl From<pprl_crypto::CryptoError> for SmcError {
    fn from(e: pprl_crypto::CryptoError) -> Self {
        SmcError::Crypto(e)
    }
}

impl From<pprl_crypto::protocol::transport::TransportError> for SmcError {
    fn from(e: pprl_crypto::protocol::transport::TransportError) -> Self {
        SmcError::Transport(e)
    }
}
