//! The connect/accept handshake.
//!
//! The first frame on every connection — including every *re*connection —
//! is a `Hello`. It binds the link to a protocol version, a party role,
//! the comparator backend, and the job fingerprint (the same FNV-1a-64
//! the run journal header uses), so a party whose inputs or configuration
//! drifted is refused before any ciphertext moves. The backend byte is
//! checked *before* the fingerprint: two parties configured for different
//! comparison protocols get the typed [`NetError::BackendMismatch`]
//! naming both sides, not a generic drift message. The resume fields make
//! reconnection idempotent: the peer learns exactly how far this side's
//! durable state reaches and retransmits only what lies beyond it.

use crate::NetError;

/// Wire magic opening every `Hello` payload.
pub const HELLO_MAGIC: &[u8; 4] = b"PNET";

/// Protocol version; bumped on any incompatible frame/handshake change.
/// v2 added the comparator-backend byte to the hello payload.
pub const NET_VERSION: u16 = 2;

/// Fixed `Hello` payload size.
pub const HELLO_LEN: usize = 4 + 2 + 1 + 1 + 8 + 8 + 1;

/// Which of the paper's three parties a peer claims to be.
/// (Numeric values are wire format — do not reorder.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Data holder R (sends `m_alice` to Bob).
    Alice = 0,
    /// Data holder S (masks and forwards to the querier).
    Bob = 1,
    /// Querying party (holds the Paillier private key, decides matches).
    Query = 2,
}

impl Role {
    /// Parses a CLI role name.
    pub fn parse(name: &str) -> Option<Role> {
        match name {
            "alice" => Some(Role::Alice),
            "bob" => Some(Role::Bob),
            "query" | "querier" => Some(Role::Query),
            _ => None,
        }
    }

    fn from_wire(byte: u8) -> Option<Role> {
        match byte {
            0 => Some(Role::Alice),
            1 => Some(Role::Bob),
            2 => Some(Role::Query),
            _ => None,
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Alice => "alice",
            Role::Bob => "bob",
            Role::Query => "query",
        })
    }
}

/// Comparator backend family, as carried in the hello payload.
/// (Numeric values are wire format — they mirror
/// `SmcMode::backend_code`; do not reorder.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Paillier SMC exchange (exact decisions, ciphertext frames).
    Paillier = 0,
    /// q-gram CLK Bloom-filter exchange (Dice decisions, filter frames).
    Bloom = 1,
}

impl Backend {
    /// Maps `SmcMode::backend_code` onto the wire enum.
    pub fn from_code(code: u8) -> Option<Backend> {
        match code {
            0 => Some(Backend::Paillier),
            1 => Some(Backend::Bloom),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Paillier => "paillier",
            Backend::Bloom => "bloom",
        })
    }
}

/// Handshake announcement: who is connecting, for which job, with which
/// comparison protocol, and how far the announcer's durable state already
/// reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Announcer's protocol version.
    pub version: u16,
    /// Announcer's party role.
    pub role: Role,
    /// Announcer's comparator backend.
    pub backend: Backend,
    /// Job fingerprint (config + datasets), as in the journal header.
    pub fingerprint: u64,
    /// Highest data `pair_id` the announcer has durably completed on this
    /// link (`0` = none; real pair ids start at 1).
    pub watermark: u64,
    /// Whether the announcer already holds the session public key
    /// (`true` on resume, telling the querier not to re-broadcast;
    /// always `false` on keyless backends).
    pub have_key: bool,
}

impl Hello {
    /// A fresh session's announcement.
    pub fn new(role: Role, backend: Backend, fingerprint: u64) -> Self {
        Hello {
            version: NET_VERSION,
            role,
            backend,
            fingerprint,
            watermark: 0,
            have_key: false,
        }
    }

    /// Whether the announcer has durably completed `pair_id` (`0` = the
    /// key broadcast): the one test behind both the receiver's dedup
    /// screen (over its own announcement) and the sender's
    /// delivered-by-hello proof (over the peer's).
    pub(crate) fn covers(&self, pair_id: u64) -> bool {
        if pair_id == 0 {
            self.have_key
        } else {
            pair_id <= self.watermark
        }
    }

    /// Serializes to the fixed-width payload of a `K_HELLO` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HELLO_LEN);
        buf.extend_from_slice(HELLO_MAGIC);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.push(self.role as u8);
        buf.push(self.backend as u8);
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.watermark.to_le_bytes());
        buf.push(self.have_key as u8);
        buf
    }

    /// Parses a `K_HELLO` payload.
    pub fn decode(payload: &[u8]) -> Result<Hello, NetError> {
        // One slice pattern covers every field and the length check at
        // once, with no indexing to go out of range.
        let &[m0, m1, m2, m3, v0, v1, role_byte, backend_byte, f0, f1, f2, f3, f4, f5, f6, f7, w0, w1, w2, w3, w4, w5, w6, w7, key_byte] =
            payload
        else {
            return Err(NetError::Handshake(format!(
                "hello payload has {} bytes, expected {HELLO_LEN}",
                payload.len()
            )));
        };
        if [m0, m1, m2, m3] != *HELLO_MAGIC {
            return Err(NetError::Handshake("bad hello magic".into()));
        }
        let version = u16::from_le_bytes([v0, v1]);
        let role = Role::from_wire(role_byte)
            .ok_or_else(|| NetError::Handshake(format!("unknown role byte {role_byte}")))?;
        let backend = Backend::from_code(backend_byte)
            .ok_or_else(|| NetError::Handshake(format!("unknown backend byte {backend_byte}")))?;
        let fingerprint = u64::from_le_bytes([f0, f1, f2, f3, f4, f5, f6, f7]);
        let watermark = u64::from_le_bytes([w0, w1, w2, w3, w4, w5, w6, w7]);
        let have_key = match key_byte {
            0 => false,
            1 => true,
            other => {
                return Err(NetError::Handshake(format!("bad have_key byte {other}")));
            }
        };
        Ok(Hello {
            version,
            role,
            backend,
            fingerprint,
            watermark,
            have_key,
        })
    }

    /// Checks a peer's hello against what this side expects. Ordered so
    /// the most specific refusal wins: version, role, then backend (typed
    /// — a backend split is an operator configuration error worth naming
    /// precisely), then the catch-all fingerprint.
    pub fn verify(
        &self,
        expect_role: Role,
        expect_backend: Backend,
        fingerprint: u64,
    ) -> Result<(), NetError> {
        if self.version != NET_VERSION {
            return Err(NetError::Handshake(format!(
                "peer speaks net protocol v{}, this build speaks v{NET_VERSION}",
                self.version
            )));
        }
        if self.role != expect_role {
            return Err(NetError::Handshake(format!(
                "expected the {expect_role} party, peer claims {}",
                self.role
            )));
        }
        if self.backend != expect_backend {
            return Err(NetError::BackendMismatch {
                ours: expect_backend,
                peer: self.backend,
            });
        }
        if self.fingerprint != fingerprint {
            return Err(NetError::Handshake(format!(
                "job fingerprint mismatch (ours {fingerprint:016x}, peer {:016x}): \
                 the parties do not share identical inputs and configuration",
                self.fingerprint
            )));
        }
        Ok(())
    }
}

/// Wire magic opening every `Busy` payload.
pub const BUSY_MAGIC: &[u8; 4] = b"PBSY";

/// Fixed `Busy` payload size.
pub const BUSY_LEN: usize = 4 + 8;

/// Bounded-admission pushback: the reply a gated listener sends in place
/// of a hello when the job is known but cannot start yet (the daemon is
/// at its concurrency cap, or draining). The dialer holds its state,
/// sleeps `retry_after_ms` off-ledger, and re-dials; nothing about the
/// session is lost or duplicated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy {
    /// Suggested pause before the dialer's next attempt.
    pub retry_after_ms: u64,
}

impl Busy {
    /// Serializes to the fixed-width payload of a `K_BUSY` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BUSY_LEN);
        buf.extend_from_slice(BUSY_MAGIC);
        buf.extend_from_slice(&self.retry_after_ms.to_le_bytes());
        buf
    }

    /// Parses a `K_BUSY` payload.
    pub fn decode(payload: &[u8]) -> Result<Busy, NetError> {
        let &[m0, m1, m2, m3, r0, r1, r2, r3, r4, r5, r6, r7] = payload else {
            return Err(NetError::Handshake(format!(
                "busy payload has {} bytes, expected {BUSY_LEN}",
                payload.len()
            )));
        };
        if [m0, m1, m2, m3] != *BUSY_MAGIC {
            return Err(NetError::Handshake("bad busy magic".into()));
        }
        Ok(Busy {
            retry_after_ms: u64::from_le_bytes([r0, r1, r2, r3, r4, r5, r6, r7]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_roundtrips() {
        let b = Busy {
            retry_after_ms: 1_234,
        };
        let bytes = b.encode();
        assert_eq!(bytes.len(), BUSY_LEN);
        assert_eq!(Busy::decode(&bytes).unwrap(), b);
        assert!(Busy::decode(&bytes[..BUSY_LEN - 1]).is_err());
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(Busy::decode(&bad).is_err());
    }

    #[test]
    fn hello_roundtrips() {
        let mut h = Hello::new(Role::Bob, Backend::Paillier, 0xDEAD_BEEF_0BAD_F00D);
        h.watermark = 41;
        h.have_key = true;
        let bytes = h.encode();
        assert_eq!(bytes.len(), HELLO_LEN);
        assert_eq!(Hello::decode(&bytes).unwrap(), h);

        let b = Hello::new(Role::Alice, Backend::Bloom, 7);
        assert_eq!(Hello::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn verify_rejects_drift() {
        let h = Hello::new(Role::Alice, Backend::Paillier, 7);
        assert!(h.verify(Role::Alice, Backend::Paillier, 7).is_ok());
        assert!(h.verify(Role::Bob, Backend::Paillier, 7).is_err());
        assert!(h.verify(Role::Alice, Backend::Paillier, 8).is_err());
        let mut stale = h;
        stale.version = 0;
        assert!(stale.verify(Role::Alice, Backend::Paillier, 7).is_err());
    }

    #[test]
    fn verify_backend_split_is_typed_and_beats_fingerprint() {
        let h = Hello::new(Role::Alice, Backend::Bloom, 7);
        // Same fingerprint, different backend: typed refusal.
        match h.verify(Role::Alice, Backend::Paillier, 7) {
            Err(NetError::BackendMismatch { ours, peer }) => {
                assert_eq!(ours, Backend::Paillier);
                assert_eq!(peer, Backend::Bloom);
            }
            other => panic!("expected BackendMismatch, got {other:?}"),
        }
        // Backend split *and* fingerprint drift: the backend error wins
        // (it names the actual misconfiguration).
        assert!(matches!(
            h.verify(Role::Alice, Backend::Paillier, 8),
            Err(NetError::BackendMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = Hello::new(Role::Query, Backend::Paillier, 1).encode();
        assert!(Hello::decode(&good[..HELLO_LEN - 1]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(Hello::decode(&bad_magic).is_err());
        let mut bad_role = good.clone();
        bad_role[6] = 9;
        assert!(Hello::decode(&bad_role).is_err());
        let mut bad_backend = good.clone();
        bad_backend[7] = 7;
        assert!(Hello::decode(&bad_backend).is_err());
        let mut bad_flag = good;
        bad_flag[24] = 2;
        assert!(Hello::decode(&bad_flag).is_err());
    }
}
