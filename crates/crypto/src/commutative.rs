//! Commutative encryption (Pohlig–Hellman exponentiation cipher) and the
//! secure set-intersection protocol of Agrawal, Evfimievski, Srikant
//! (SIGMOD'03) — the paper's reference \[15\] and the classic *pure
//! cryptographic* approach to private exact-match linkage.
//!
//! Each party holds a secret exponent `e` over a fixed safe-prime group;
//! `E_e(x) = H(x)^e mod p` where `H` hashes into the quadratic-residue
//! subgroup. Encryption commutes — `E_a(E_b(x)) = E_b(E_a(x))` — so two
//! parties can compare doubly-encrypted values for equality without either
//! learning the other's plaintexts.
//!
//! The paper positions the hybrid method against exactly this family (§VII):
//! "Secure set intersection methods deal with *exact matching* and are too
//! expensive to be applied to large databases due to their reliance on
//! cryptography." The [`intersect_encrypted`] baseline demonstrates both
//! limitations measurably: cost scales with the full table sizes, and any
//! near match (e.g. ages 1 year apart) is missed.

use crate::sha256::sha256;
use pprl_bignum::{random_below, BigUint};
use rand::RngCore;

/// The RFC 3526 1536-bit MODP group modulus — a well-known safe prime
/// (`p = 2q + 1` with `q` prime), so squaring maps any hash into the
/// prime-order subgroup of quadratic residues.
const RFC3526_1536_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
);

/// The shared group for commutative encryption.
#[derive(Clone, Debug)]
pub struct CommutativeGroup {
    p: BigUint,
    /// `q = (p − 1) / 2`, the order of the quadratic-residue subgroup.
    q: BigUint,
}

impl Default for CommutativeGroup {
    fn default() -> Self {
        Self::rfc3526_1536()
    }
}

impl CommutativeGroup {
    /// The standard 1536-bit group.
    pub fn rfc3526_1536() -> Self {
        // pprl:allow(panic-path): parses a compile-time hex constant, exercised by every test
        let p = BigUint::from_hex(RFC3526_1536_HEX).expect("constant parses");
        let q = p.shr(1);
        CommutativeGroup { p, q }
    }

    /// Hashes an arbitrary byte string into the quadratic-residue subgroup.
    pub fn hash_to_group(&self, value: &[u8]) -> BigUint {
        // Expand SHA-256 output to the group size by counter-mode hashing,
        // reduce mod p, then square into the QR subgroup.
        let mut wide = Vec::with_capacity(6 * 32);
        for counter in 0u8..6 {
            let mut input = value.to_vec();
            input.push(counter);
            wide.extend_from_slice(&sha256(&input));
        }
        let x = BigUint::from_bytes_be(&wide).rem(&self.p);
        // Avoid the degenerate elements 0, ±1.
        let x = if x.is_zero() || x.is_one() {
            BigUint::from_u64(4)
        } else {
            x
        };
        x.mod_mul(&x, &self.p)
    }
}

/// A party's secret commutative-encryption key.
#[derive(Clone, Debug)]
pub struct CommutativeKey {
    group: CommutativeGroup,
    exponent: BigUint,
}

impl CommutativeKey {
    /// Samples a fresh secret exponent in `[1, q)` coprime to `q`.
    pub fn generate<R: RngCore + ?Sized>(group: &CommutativeGroup, rng: &mut R) -> Self {
        loop {
            let e = random_below(rng, &group.q);
            if !e.is_zero() && e.gcd(&group.q).is_one() {
                return CommutativeKey {
                    group: group.clone(),
                    exponent: e,
                };
            }
        }
    }

    /// Encrypts a raw plaintext byte string (hash-then-exponentiate).
    ///
    /// The exponent is this party's long-lived secret key, so the
    /// exponentiation uses the constant-time walk: across a run every
    /// element is raised to the *same* secret, which is exactly the
    /// repeated-measurement setting timing attacks need.
    pub fn encrypt_value(&self, value: &[u8]) -> BigUint {
        let h = self.group.hash_to_group(value);
        h.mod_pow_ct(&self.exponent, &self.group.p)
    }

    /// Re-encrypts an already-encrypted group element (the commuting layer).
    pub fn encrypt_element(&self, element: &BigUint) -> BigUint {
        element.mod_pow_ct(&self.exponent, &self.group.p)
    }
}

/// Counts of cryptographic work done by [`intersect_encrypted`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntersectionCost {
    /// Modular exponentiations performed across both parties.
    pub exponentiations: u64,
    /// Group elements exchanged.
    pub elements_exchanged: u64,
}

/// The AgES-style two-party intersection on equality keys: returns the
/// index pairs `(i, j)` with `a_values[i] == b_values[j]` (as plaintexts),
/// computed only on doubly-encrypted values.
pub fn intersect_encrypted<R: RngCore + ?Sized>(
    a_values: &[Vec<u8>],
    b_values: &[Vec<u8>],
    rng: &mut R,
) -> (Vec<(u32, u32)>, IntersectionCost) {
    let group = CommutativeGroup::default();
    let ka = CommutativeKey::generate(&group, rng);
    let kb = CommutativeKey::generate(&group, rng);
    let mut cost = IntersectionCost::default();

    // A → B: E_a(x); B → A: E_b(E_a(x)); and symmetrically.
    let ea: Vec<BigUint> = a_values.iter().map(|v| ka.encrypt_value(v)).collect();
    let eb: Vec<BigUint> = b_values.iter().map(|v| kb.encrypt_value(v)).collect();
    cost.exponentiations += (ea.len() + eb.len()) as u64;
    cost.elements_exchanged += (ea.len() + eb.len()) as u64;

    let eab: Vec<BigUint> = ea.iter().map(|e| kb.encrypt_element(e)).collect();
    let eba: Vec<BigUint> = eb.iter().map(|e| ka.encrypt_element(e)).collect();
    cost.exponentiations += (eab.len() + eba.len()) as u64;
    cost.elements_exchanged += (eab.len() + eba.len()) as u64;

    // Equality of double encryptions ⇔ equality of plaintexts.
    use std::collections::HashMap;
    let mut index: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
    for (j, e) in eba.iter().enumerate() {
        index.entry(e.to_bytes_be()).or_default().push(j as u32);
    }
    let mut matches = Vec::new();
    for (i, e) in eab.iter().enumerate() {
        // pprl:allow(secret-taint): comparing doubly-encrypted values is
        // the protocol's public output — equality of E_a(E_b(x)) is
        // exactly what both parties agree to learn (AgES step 3)
        if let Some(js) = index.get(&e.to_bytes_be()) {
            for &j in js {
                matches.push((i as u32, j));
            }
        }
    }
    matches.sort_unstable();
    (matches, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encryption_commutes() {
        let mut rng = StdRng::seed_from_u64(11);
        let group = CommutativeGroup::default();
        let ka = CommutativeKey::generate(&group, &mut rng);
        let kb = CommutativeKey::generate(&group, &mut rng);
        let x = b"hello world";
        let ab = kb.encrypt_element(&ka.encrypt_value(x));
        let ba = ka.encrypt_element(&kb.encrypt_value(x));
        assert_eq!(ab, ba);
    }

    #[test]
    fn different_plaintexts_stay_different() {
        let mut rng = StdRng::seed_from_u64(12);
        let group = CommutativeGroup::default();
        let k = CommutativeKey::generate(&group, &mut rng);
        assert_ne!(k.encrypt_value(b"alice"), k.encrypt_value(b"bob"));
    }

    #[test]
    fn intersection_finds_exact_matches_only() {
        let mut rng = StdRng::seed_from_u64(13);
        let a: Vec<Vec<u8>> = ["smith|35", "jones|41", "garcia|29"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let b: Vec<Vec<u8>> = ["garcia|29", "smith|36", "jones|41"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let (matches, cost) = intersect_encrypted(&a, &b, &mut rng);
        // smith|35 vs smith|36 (one year apart) is NOT found — the exact-
        // match limitation the hybrid approach overcomes.
        assert_eq!(matches, vec![(1, 2), (2, 0)]);
        assert_eq!(cost.exponentiations, 12);
    }

    #[test]
    fn duplicate_values_produce_all_pairs() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = vec![b"x".to_vec(), b"x".to_vec()];
        let b = vec![b"x".to_vec()];
        let (matches, _) = intersect_encrypted(&a, &b, &mut rng);
        assert_eq!(matches, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn hash_lands_in_qr_subgroup() {
        // h = x² mod p must satisfy h^q ≡ 1 (mod p).
        let group = CommutativeGroup::default();
        let h = group.hash_to_group(b"subgroup test");
        assert_eq!(h.mod_pow(&group.q, &group.p), BigUint::one());
    }
}
