//! The three-party secure comparison protocols of paper §V-A.
//!
//! Participants:
//! * **Querying party** — owns the Paillier key pair, learns only the final
//!   result (a squared distance, or just a match bit in the masked variant).
//! * **Alice / Bob** — the data holders; each sees only ciphertexts and its
//!   own inputs.
//!
//! Two granularities are provided:
//! * [`distance`] / [`compare`] — single-attribute building blocks operating
//!   directly on ciphertexts.
//! * [`party`] — byte-level state machines that exchange framed
//!   [`message::ProtocolMessage`]s, so integration tests exercise exactly
//!   what would cross the wire, and [`cost::CostLedger`] can meter bytes
//!   and rounds the way the paper meters SMC cost.

pub mod compare;
pub mod cost;
pub mod distance;
pub mod message;
pub mod pack;
pub mod party;
pub mod record;
pub mod retry;
pub mod transport;

pub use compare::secure_threshold_match;
pub use distance::secure_squared_distance;
pub use pack::{
    bob_record_message_packed, bob_reply, querier_reveal, querier_reveal_record_packed,
    validate_packable, validate_packable_values, PackingPlan,
};
pub use party::{DataHolder, QueryingParty};
pub use record::{alice_record_message, bob_record_message, querier_reveal_record};
pub use retry::{ReliableLink, RetryPolicy};
pub use transport::{
    Envelope, FaultConfig, FaultStats, FaultyTransport, LocalTransport, PartyId, Transport,
    TransportError,
};
