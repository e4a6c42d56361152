//! CLK construction, Dice matching, and BLIP bit flipping.

use std::fmt;

/// Flip-stream side tag for the first (querier-side / Alice) data set.
pub const SIDE_A: u8 = 0;
/// Flip-stream side tag for the second (Bob) data set.
pub const SIDE_B: u8 = 1;

/// Tuning knobs for the CLK backend. All-integer so the `Debug`
/// rendering — which feeds the job fingerprint — is byte-stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClkParams {
    /// Bloom filter length in bits.
    pub filter_len: u32,
    /// Bits set per q-gram (double-hashing iterations).
    pub hashes: u32,
    /// q-gram width in characters.
    pub q: u32,
    /// Dice-similarity match threshold in thousandths (800 = 0.8).
    pub threshold_millis: u32,
    /// DP budget ε in thousandths (5000 = ε 5.0); 0 disables flipping.
    pub epsilon_millis: u32,
    /// Keys the q-gram hash family and the per-row flip streams.
    pub seed: u64,
}

impl ClkParams {
    /// The PACE exemplar's published configuration: 1000-bit filters,
    /// 30 hash functions, bigrams, 0.8 Dice threshold, flipping off.
    pub fn paper_defaults(seed: u64) -> Self {
        ClkParams {
            filter_len: 1000,
            hashes: 30,
            q: 2,
            threshold_millis: 800,
            epsilon_millis: 0,
            seed,
        }
    }

    /// Bounds check; every constructor in core/cli funnels through this
    /// so a nonsense filter never reaches the wire codec.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.filter_len < 8 || self.filter_len > 1 << 20 {
            return Err("clk filter length must be in 8..=1048576 bits");
        }
        if self.hashes == 0 || self.hashes > 256 {
            return Err("clk hash count must be in 1..=256");
        }
        if self.q == 0 || self.q > 8 {
            return Err("clk q-gram width must be in 1..=8");
        }
        if self.threshold_millis > 1000 {
            return Err("clk threshold is a fraction in thousandths (0..=1000)");
        }
        if self.epsilon_millis > 30_000 {
            return Err("clk epsilon is capped at 30.0 (30000 millis)");
        }
        Ok(())
    }

    /// Wire size of one encoded filter payload body (excluding tag and
    /// flip counter): packed bits, LSB-first within each byte.
    pub fn filter_bytes(&self) -> usize {
        (self.filter_len as usize).div_ceil(8)
    }
}

/// One record's Bloom-filter encoding. Bit `j` lives at word `j / 64`,
/// position `j % 64` — packed little-endian, so wire byte `j / 8`,
/// position `j % 8`. Padding bits past `nbits` are always zero (the wire
/// codec rejects filters that violate this) and `ones` is always the
/// population count of `words` in any filter this module hands out,
/// which is what lets a Dice tally read two cached cardinalities and
/// make one pass.
#[derive(Clone, PartialEq, Eq)]
pub struct Clk {
    words: Vec<u64>,
    nbits: u32,
    ones: u32,
}

// pprl:allow(secret-leak): redacting impl — reveals only the filter shape
impl fmt::Debug for Clk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clk")
            .field("nbits", &self.nbits)
            .field("ones", &self.ones)
            .finish_non_exhaustive()
    }
}

/// Words a filter of `nbits` bits occupies.
fn words_for(nbits: u32) -> usize {
    (nbits as usize).div_ceil(64)
}

impl Clk {
    /// All-zero filter of `nbits` bits.
    pub fn zero(nbits: u32) -> Self {
        Clk {
            words: vec![0u64; words_for(nbits)],
            nbits,
            ones: 0,
        }
    }

    /// Reconstructs a filter from packed wire bytes. `None` when the
    /// byte count does not match `nbits` or a padding bit is set.
    pub fn from_bytes(nbits: u32, bytes: &[u8]) -> Option<Self> {
        if bytes.len() != (nbits as usize).div_ceil(8) {
            return None;
        }
        let tail = nbits % 8;
        if tail != 0 {
            let mask = !0u8 << tail;
            if bytes.last().is_some_and(|b| b & mask != 0) {
                return None;
            }
        }
        let words: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                for (dst, src) in word.iter_mut().zip(chunk) {
                    *dst = *src;
                }
                u64::from_le_bytes(word)
            })
            .collect();
        let mut clk = Clk {
            words,
            nbits,
            ones: 0,
        };
        clk.recount();
        Some(clk)
    }

    /// Filter length in bits.
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// Population count (cached, O(1)).
    pub fn ones(&self) -> u32 {
        self.ones
    }

    /// Sets a bit and leaves `ones` stale: the gram loop sets some 700
    /// bits a record, most of them more than once, so [`encode_fields`]
    /// recounts once at the end instead of testing every bit on the way.
    fn set_uncounted(&mut self, bit: u32) {
        if bit >= self.nbits {
            return;
        }
        if let Some(word) = self.words.get_mut((bit / 64) as usize) {
            *word |= 1u64 << (bit % 64);
        }
    }

    fn recount(&mut self) {
        self.ones = self.words.iter().map(|w| w.count_ones()).sum();
    }

    fn toggle(&mut self, bit: u32) {
        if bit >= self.nbits {
            return;
        }
        if let Some(word) = self.words.get_mut((bit / 64) as usize) {
            let mask = 1u64 << (bit % 64);
            *word ^= mask;
            if *word & mask != 0 {
                self.ones += 1;
            } else {
                self.ones -= 1;
            }
        }
    }
}

/// A filter borrowed from a [`Clk`] or a [`ClkSlab`] slot: the words and
/// the cardinality cached beside them. Only those two types hand one
/// out, so `ones` is always the population count of `words`.
#[derive(Clone, Copy)]
pub struct ClkRef<'a> {
    words: &'a [u64],
    nbits: u32,
    ones: u32,
}

// pprl:allow(secret-leak): redacting impl — reveals only the filter shape
impl fmt::Debug for ClkRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClkRef")
            .field("nbits", &self.nbits)
            .field("ones", &self.ones)
            .finish_non_exhaustive()
    }
}

impl<'a> From<&'a Clk> for ClkRef<'a> {
    fn from(clk: &'a Clk) -> Self {
        ClkRef {
            words: &clk.words,
            nbits: clk.nbits,
            ones: clk.ones,
        }
    }
}

impl ClkRef<'_> {
    /// Filter length in bits.
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// Population count (cached, O(1)).
    pub fn ones(&self) -> u32 {
        self.ones
    }

    /// Appends the packed wire bytes: `nbits.div_ceil(8)` of them, bit
    /// `j` at byte `j / 8`, position `j % 8`.
    pub fn pack_into(&self, buf: &mut Vec<u8>) {
        let end = buf.len() + (self.nbits as usize).div_ceil(8);
        for word in self.words {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.truncate(end);
    }
}

/// Filters per slab chunk — what one allocation holds (32 KiB at the
/// paper's 1000 bits). A power of two, so a slot splits by shift and mask.
const CHUNK_FILTERS: usize = 256;

/// Many equal-length filters packed back to back, each with its
/// cardinality cached — what a per-job filter bank stores, so that a
/// Dice tally over two slots touches two runs of words and nothing else.
/// The words live in fixed-capacity chunks that are allocated once and
/// never grown: a slab that doubled in place would copy every filter it
/// holds at each step and leave the old runs behind as resident holes
/// (measured on 3 200 filters: 0.4 MiB of a 7 MiB job).
pub struct ClkSlab {
    nbits: u32,
    chunks: Vec<Vec<u64>>,
    ones: Vec<u32>,
}

// pprl:allow(secret-leak): redacting impl — shape and slot count, never bits
impl fmt::Debug for ClkSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClkSlab")
            .field("nbits", &self.nbits)
            .field("filters", &self.ones.len())
            .finish_non_exhaustive()
    }
}

impl ClkSlab {
    /// Empty slab for `nbits`-bit filters.
    pub fn new(nbits: u32) -> Self {
        ClkSlab {
            nbits,
            chunks: Vec::new(),
            ones: Vec::new(),
        }
    }

    /// Filters held.
    pub fn len(&self) -> usize {
        self.ones.len()
    }

    /// True before the first [`push`](Self::push).
    pub fn is_empty(&self) -> bool {
        self.ones.is_empty()
    }

    /// Copies `clk` into the next slot and returns its index; `None`
    /// when the filter's length is not the slab's.
    pub fn push(&mut self, clk: &Clk) -> Option<usize> {
        if clk.nbits != self.nbits {
            return None;
        }
        let slot = self.ones.len();
        if slot % CHUNK_FILTERS == 0 {
            self.chunks
                .push(Vec::with_capacity(CHUNK_FILTERS * words_for(self.nbits)));
        }
        self.chunks.last_mut()?.extend_from_slice(&clk.words);
        self.ones.push(clk.ones);
        Some(slot)
    }

    /// The filter in `slot`; `None` past the end.
    pub fn get(&self, slot: usize) -> Option<ClkRef<'_>> {
        let stride = words_for(self.nbits);
        let start = (slot % CHUNK_FILTERS) * stride;
        Some(ClkRef {
            words: self
                .chunks
                .get(slot / CHUNK_FILTERS)?
                .get(start..start + stride)?,
            nbits: self.nbits,
            ones: *self.ones.get(slot)?,
        })
    }
}

// pprl:allow(secret-leak): redacting impl — prints shape, never bit data
impl fmt::Display for Clk {
    /// Deliberately terse: a filter is derived from record contents, so
    /// its bits never belong in logs — only the shape does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clk[{} bits, {} set]", self.nbits, self.ones)
    }
}

/// FNV-1a over `bytes`, starting from `basis` — the workspace-standard
/// hash, reseeded so each (seed, field) slot gets its own gram family.
fn fnv1a64_seeded(basis: u64, bytes: &[u8]) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Decorrelates the second hash of the double-hashing scheme from the
/// first (golden-ratio constant, as in the executor's RNG forking).
const H2_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// Inserts one q-gram: double hashing g_i = h1 + i·h2 (mod filter_len),
/// the standard simulation of `hashes` independent hash functions.
fn insert_gram(clk: &mut Clk, params: &ClkParams, field_idx: u64, gram: &[u8]) {
    let h1 = fnv1a64_seeded(FNV_BASIS ^ params.seed ^ field_idx, gram);
    // Forcing h2 odd keeps the probe sequence from collapsing onto a
    // short cycle when h2 shares a factor with the filter length.
    let h2 = fnv1a64_seeded(FNV_BASIS ^ params.seed.rotate_left(17) ^ H2_TWEAK ^ field_idx, gram) | 1;
    let len = u64::from(params.filter_len.max(1));
    for i in 0..u64::from(params.hashes) {
        let g = h1.wrapping_add(i.wrapping_mul(h2)) % len;
        clk.set_uncounted(g as u32);
    }
}

/// Encodes canonicalized field strings as one composite CLK: each field
/// is padded with `q - 1` sentinel characters on both ends, split into
/// overlapping character q-grams, and hashed into the shared filter
/// under a per-field hash family (field 0's "ab" never collides with
/// field 1's "ab" by construction).
pub fn encode_fields<S: AsRef<str>>(params: &ClkParams, fields: &[S]) -> Clk {
    let mut clk = Clk::zero(params.filter_len);
    let q = params.q.max(1) as usize;
    for (idx, field) in fields.iter().enumerate() {
        let mut chars: Vec<char> = vec!['#'; q - 1];
        chars.extend(field.as_ref().chars());
        chars.resize(chars.len() + q - 1, '#');
        if chars.len() < q {
            continue;
        }
        let mut gram = String::new();
        for window in chars.windows(q) {
            gram.clear();
            gram.extend(window.iter());
            insert_gram(&mut clk, params, idx as u64, gram.as_bytes());
        }
    }
    clk.recount();
    clk
}

/// The three tallies a Dice decision needs. Shipping tallies instead of
/// the second filter is what keeps Bob's bits off the querier leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiceCounts {
    pub a_ones: u32,
    pub b_ones: u32,
    pub common: u32,
}

impl DiceCounts {
    /// Tallies for a filter pair ([`Clk`]s, [`ClkSlab`] slots, or one of
    /// each); `None` when the lengths disagree (mixed parameter sets
    /// must fail loudly upstream, not fuzzily). One pass: both
    /// cardinalities are cached, so only the intersection is counted,
    /// 64 bits to the AND.
    pub fn of<'a, 'b>(a: impl Into<ClkRef<'a>>, b: impl Into<ClkRef<'b>>) -> Option<DiceCounts> {
        let (a, b) = (a.into(), b.into());
        if a.nbits != b.nbits {
            return None;
        }
        let common = a
            .words
            .iter()
            .zip(b.words)
            .map(|(x, y)| (x & y).count_ones())
            .sum();
        Some(DiceCounts {
            a_ones: a.ones,
            b_ones: b.ones,
            common,
        })
    }
}

/// Dice similarity in thousandths: `2000·|A∩B| / (|A|+|B|)`, with the
/// degenerate both-empty case pinned to exact similarity.
pub fn dice_millis(counts: &DiceCounts) -> u32 {
    let denom = u64::from(counts.a_ones) + u64::from(counts.b_ones);
    if denom == 0 {
        return 1000;
    }
    let num = 2000u64 * u64::from(counts.common);
    (num / denom).min(u32::MAX as u64) as u32
}

/// The match decision, in exact integer arithmetic:
/// `2·common / (a_ones + b_ones) >= threshold` with no rounding step,
/// so every party — and every resume — lands on the same verdict.
pub fn dice_match(counts: &DiceCounts, threshold_millis: u32) -> bool {
    let denom = u64::from(counts.a_ones) + u64::from(counts.b_ones);
    if denom == 0 {
        return true;
    }
    2000u64 * u64::from(counts.common) >= u64::from(threshold_millis) * denom
}

/// `e^(x/1000)` in Q32 fixed point via the Taylor series — integer-only
/// so the flip threshold is identical on every build of every party.
fn exp_q32(x_millis: u32) -> u128 {
    const S: u128 = 1u128 << 32;
    let x = (u128::from(x_millis) << 32) / 1000;
    let mut term = S;
    let mut sum = S;
    let mut k: u128 = 1;
    // Terms vanish by k ≈ 3·x for the capped ε range; 128 is a hard
    // stop for the analyzer, not a precision knob.
    while term > 0 && k < 128 {
        term = term * x / (S * k);
        sum += term;
        k += 1;
    }
    sum
}

/// BLIP flip threshold: a draw `u < blip_threshold(ε)` from a uniform
/// u64 flips the bit, i.e. `p = 1 / (1 + e^ε)` scaled to 2^64. Returns
/// 0 (never flip) when the budget is 0 = disabled.
pub fn blip_threshold(epsilon_millis: u32) -> u64 {
    if epsilon_millis == 0 {
        return 0;
    }
    const S: u128 = 1u128 << 32;
    let e = exp_q32(epsilon_millis);
    ((1u128 << 96) / (S + e)) as u64
}

/// splitmix64 step — the workspace's standard cheap deterministic
/// stream (same constants as the crash-recovery kill scheduler).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Applies the BLIP mechanism in place and returns the number of bits
/// flipped. The stream is keyed by `(params.seed, side, row)` alone —
/// no ambient RNG state — so a crash-resumed party re-derives the exact
/// noise it journaled before dying.
pub fn blip_flip(clk: &mut Clk, params: &ClkParams, side: u8, row: u32) -> u32 {
    let threshold = blip_threshold(params.epsilon_millis);
    if threshold == 0 {
        return 0;
    }
    let mut state = params
        .seed
        ^ (u64::from(side) << 62)
        ^ u64::from(row).wrapping_mul(0x0000_0100_0000_01b3);
    // One warm-up draw decouples nearby (side, row) keys.
    let _ = splitmix64(&mut state);
    let mut flips = 0u32;
    for bit in 0..clk.nbits() {
        if splitmix64(&mut state) < threshold {
            clk.toggle(bit);
            flips += 1;
        }
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ClkParams {
        ClkParams::paper_defaults(42)
    }

    #[test]
    fn paper_defaults_validate() {
        assert_eq!(params().validate(), Ok(()));
        assert_eq!(params(), ClkParams::paper_defaults(42));
        let mut bad = params();
        bad.filter_len = 4;
        assert!(bad.validate().is_err());
        bad = params();
        bad.threshold_millis = 1001;
        assert!(bad.validate().is_err());
        bad = params();
        bad.epsilon_millis = 40_000;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn encoding_is_deterministic_and_nonempty() {
        let a = encode_fields(&params(), &["smith", "john", "1970"]);
        let b = encode_fields(&params(), &["smith", "john", "1970"]);
        assert_eq!(a, b);
        assert!(a.ones() > 0);
        assert_eq!(a.nbits(), 1000);
        let mut packed = Vec::new();
        ClkRef::from(&a).pack_into(&mut packed);
        assert_eq!(packed.len(), 125);
    }

    #[test]
    fn similar_strings_score_above_disjoint_ones() {
        let p = params();
        let a = encode_fields(&p, &["smith"]);
        let b = encode_fields(&p, &["smyth"]);
        let c = encode_fields(&p, &["quarterly"]);
        let ab = DiceCounts::of(&a, &b).expect("same length");
        let ac = DiceCounts::of(&a, &c).expect("same length");
        assert!(dice_millis(&ab) > dice_millis(&ac));
        assert!(dice_match(&DiceCounts::of(&a, &a).expect("same"), 1000));
    }

    #[test]
    fn fields_are_namespaced() {
        let p = params();
        let ab = encode_fields(&p, &["ab", ""]);
        let ba = encode_fields(&p, &["", "ab"]);
        assert_ne!(ab, ba, "field index must key the hash family");
    }

    #[test]
    fn empty_pair_is_exact_match() {
        let c = DiceCounts {
            a_ones: 0,
            b_ones: 0,
            common: 0,
        };
        assert!(dice_match(&c, 1000));
        assert_eq!(dice_millis(&c), 1000);
    }

    #[test]
    fn mismatched_lengths_refuse() {
        let a = Clk::zero(1000);
        let b = Clk::zero(992);
        assert!(DiceCounts::of(&a, &b).is_none());
    }

    #[test]
    fn padding_bits_are_rejected() {
        assert!(Clk::from_bytes(10, &[0xff, 0x03]).is_some());
        assert!(Clk::from_bytes(10, &[0xff, 0x04]).is_none());
        assert!(Clk::from_bytes(10, &[0xff]).is_none());
        assert!(Clk::from_bytes(10, &[0xff, 0x03, 0x00]).is_none());
    }

    #[test]
    fn slab_slots_are_the_filters_pushed() {
        let p = params();
        // Enough filters to spill into a second chunk.
        let clks: Vec<Clk> = (0..CHUNK_FILTERS + 3)
            .map(|i| encode_fields(&p, &[i.to_string()]))
            .collect();
        let mut slab = ClkSlab::new(p.filter_len);
        assert!(slab.is_empty());
        for (i, clk) in clks.iter().enumerate() {
            assert_eq!(slab.push(clk), Some(i));
        }
        assert_eq!(slab.len(), clks.len());
        for (i, clk) in clks.iter().enumerate() {
            let slot = slab.get(i).expect("pushed slot");
            assert_eq!(slot.ones(), clk.ones());
            let (mut from_slab, mut from_clk) = (Vec::new(), Vec::new());
            slot.pack_into(&mut from_slab);
            ClkRef::from(clk).pack_into(&mut from_clk);
            assert_eq!(from_slab, from_clk);
            let tally = DiceCounts::of(slot, clk).expect("same length");
            assert_eq!(tally.common, clk.ones());
        }
        assert!(slab.get(clks.len()).is_none());
        assert_eq!(slab.push(&Clk::zero(992)), None, "foreign length");
        assert_eq!(
            format!("{slab:?}"),
            format!("ClkSlab {{ nbits: 1000, filters: {}, .. }}", clks.len())
        );
    }

    #[test]
    fn blip_threshold_brackets() {
        // ε = 0 is "disabled", not "coin flip".
        assert_eq!(blip_threshold(0), 0);
        // ε → tiny approaches p = 1/2.
        let near_half = blip_threshold(1);
        let half = 1u64 << 63;
        assert!(near_half < half && half - near_half < half / 1000);
        // ε = 5 ⇒ p = 1/(1+e^5) ≈ 0.00669.
        let p5 = blip_threshold(5000) as f64 / (1u64 << 63) as f64 / 2.0;
        assert!((p5 - 0.00669).abs() < 0.0002, "p(ε=5) = {p5}");
        // Monotone: more budget, less noise.
        assert!(blip_threshold(5000) < blip_threshold(1000));
        assert!(blip_threshold(30_000) < blip_threshold(5000));
    }

    #[test]
    fn blip_is_deterministic_and_keyed() {
        let mut p = params();
        p.epsilon_millis = 2000;
        let base = encode_fields(&p, &["smith", "john"]);
        let mut x = base.clone();
        let mut y = base.clone();
        let fx = blip_flip(&mut x, &p, SIDE_A, 7);
        let fy = blip_flip(&mut y, &p, SIDE_A, 7);
        assert_eq!(x, y);
        assert_eq!(fx, fy);
        let mut z = base.clone();
        let fz = blip_flip(&mut z, &p, SIDE_B, 7);
        // Same row, other side: different noise (overwhelmingly).
        assert!(z != x || fz != fx);
        // Flipping twice with the same key undoes itself (XOR noise).
        let mut back = x.clone();
        blip_flip(&mut back, &p, SIDE_A, 7);
        assert_eq!(back, base);
    }

    #[test]
    fn blip_disabled_is_identity() {
        let p = params();
        let base = encode_fields(&p, &["smith"]);
        let mut x = base.clone();
        assert_eq!(blip_flip(&mut x, &p, SIDE_A, 3), 0);
        assert_eq!(x, base);
    }

    #[test]
    fn blip_flip_rate_tracks_epsilon() {
        let mut p = params();
        p.epsilon_millis = 5000;
        p.filter_len = 1 << 16;
        let mut clk = Clk::zero(p.filter_len);
        let flips = blip_flip(&mut clk, &p, SIDE_A, 0);
        // Expected rate 0.669% of 65536 ≈ 438; allow wide slack.
        assert!((150..=900).contains(&flips), "flips = {flips}");
        assert_eq!(clk.ones(), flips);
    }
}
