//! Wire codecs for the CLK exchange.
//!
//! Two payloads ride the existing `PeerChannel` framing (which already
//! provides length prefixes and CRCs; these codecs add the strict
//! shape/invariant checks the crypto payloads get from their own tags):
//!
//! * [`TAG_CLK`] — Alice → Bob: one packed filter plus the DP flip
//!   count applied to it. Fixed width for a given `filter_len`.
//! * [`TAG_DICE`] — Bob → querier: the Dice tallies for one pair plus
//!   the pair's total flip count. Bob's own filter never crosses the
//!   querier leg — tallies reveal strictly less than bits.
//!
//! Both decoders are exact-width: truncation, extension, a foreign tag
//! byte, a set padding bit, or an impossible tally (`common` exceeding
//! either side's population) is a typed error, never a best-effort
//! parse. The tag values (0xC1/0xC2) are disjoint from the crypto
//! payload tags (1–4, 16–18) and the envelope tag (0xE5), so a
//! misrouted frame is caught by the first byte.

use crate::clk::{Clk, ClkRef};
use std::fmt;

/// Alice → Bob: packed CLK bits + DP flip count.
pub const TAG_CLK: u8 = 0xC1;
/// Bob → querier: Dice tallies + combined flip count.
pub const TAG_DICE: u8 = 0xC2;

/// Exact wire width of a [`TAG_DICE`] payload.
pub const DICE_MSG_LEN: usize = 1 + 4 * 4;

/// Decode failure: every variant names what the peer got wrong, so a
/// desync surfaces as a protocol error instead of a garbage decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// First byte was not the expected tag.
    Tag { expected: u8, got: u8 },
    /// Payload truncated or extended.
    Length { expected: usize, got: usize },
    /// A bit past `filter_len` was set in the final packed byte.
    Padding,
    /// Tallies violate `common <= min(a_ones, b_ones) <= filter_len`.
    Counts,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Tag { expected, got } => {
                write!(f, "clk wire: expected tag {expected:#04x}, got {got:#04x}")
            }
            WireError::Length { expected, got } => {
                write!(f, "clk wire: expected {expected} payload bytes, got {got}")
            }
            WireError::Padding => write!(f, "clk wire: padding bits set past filter length"),
            WireError::Counts => write!(f, "clk wire: dice tallies are inconsistent"),
        }
    }
}

impl std::error::Error for WireError {}

/// Exact wire width of a [`TAG_CLK`] payload for `filter_len`-bit filters.
pub fn clk_msg_len(filter_len: u32) -> usize {
    1 + (filter_len as usize).div_ceil(8) + 4
}

/// Encodes one filter: `[TAG_CLK][packed bits][u32 LE flips]`.
pub fn encode_clk<'a>(clk: impl Into<ClkRef<'a>>, flips: u32) -> Vec<u8> {
    let clk = clk.into();
    let mut buf = Vec::with_capacity(clk_msg_len(clk.nbits()));
    buf.push(TAG_CLK);
    clk.pack_into(&mut buf);
    buf.extend_from_slice(&flips.to_le_bytes());
    buf
}

fn read_u32(buf: &[u8], at: usize) -> Result<u32, WireError> {
    let bytes: [u8; 4] = buf
        .get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or(WireError::Length {
            expected: at + 4,
            got: buf.len(),
        })?;
    Ok(u32::from_le_bytes(bytes))
}

/// Decodes a [`TAG_CLK`] payload for the agreed `filter_len`.
pub fn decode_clk(buf: &[u8], filter_len: u32) -> Result<(Clk, u32), WireError> {
    let expected = clk_msg_len(filter_len);
    if buf.len() != expected {
        return Err(WireError::Length {
            expected,
            got: buf.len(),
        });
    }
    let (&tag, rest) = buf.split_first().ok_or(WireError::Length {
        expected,
        got: buf.len(),
    })?;
    if tag != TAG_CLK {
        return Err(WireError::Tag {
            expected: TAG_CLK,
            got: tag,
        });
    }
    let nbytes = (filter_len as usize).div_ceil(8);
    let bits = rest.get(..nbytes).ok_or(WireError::Length {
        expected,
        got: buf.len(),
    })?;
    let clk = Clk::from_bytes(filter_len, bits).ok_or(WireError::Padding)?;
    let flips = read_u32(buf, 1 + nbytes)?;
    Ok((clk, flips))
}

/// One pair's Dice verdict material, as shipped Bob → querier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiceMsg {
    pub a_ones: u32,
    pub b_ones: u32,
    pub common: u32,
    /// Total DP flips applied across both sides' filters for this pair.
    pub flips: u32,
}

/// Encodes the tallies: `[TAG_DICE][a_ones][b_ones][common][flips]`,
/// all u32 LE.
pub fn encode_dice(msg: &DiceMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(DICE_MSG_LEN);
    buf.push(TAG_DICE);
    buf.extend_from_slice(&msg.a_ones.to_le_bytes());
    buf.extend_from_slice(&msg.b_ones.to_le_bytes());
    buf.extend_from_slice(&msg.common.to_le_bytes());
    buf.extend_from_slice(&msg.flips.to_le_bytes());
    buf
}

/// Decodes and sanity-checks a [`TAG_DICE`] payload against the agreed
/// `filter_len`.
pub fn decode_dice(buf: &[u8], filter_len: u32) -> Result<DiceMsg, WireError> {
    if buf.len() != DICE_MSG_LEN {
        return Err(WireError::Length {
            expected: DICE_MSG_LEN,
            got: buf.len(),
        });
    }
    let (&tag, _) = buf.split_first().ok_or(WireError::Length {
        expected: DICE_MSG_LEN,
        got: buf.len(),
    })?;
    if tag != TAG_DICE {
        return Err(WireError::Tag {
            expected: TAG_DICE,
            got: tag,
        });
    }
    let msg = DiceMsg {
        a_ones: read_u32(buf, 1)?,
        b_ones: read_u32(buf, 5)?,
        common: read_u32(buf, 9)?,
        flips: read_u32(buf, 13)?,
    };
    if msg.a_ones > filter_len || msg.b_ones > filter_len {
        return Err(WireError::Counts);
    }
    if msg.common > msg.a_ones.min(msg.b_ones) {
        return Err(WireError::Counts);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clk::{encode_fields, ClkParams};

    #[test]
    fn clk_roundtrips() {
        let p = ClkParams::paper_defaults(9);
        let clk = encode_fields(&p, &["roundtrip"]);
        let wire = encode_clk(&clk, 17);
        assert_eq!(wire.len(), clk_msg_len(p.filter_len));
        let (back, flips) = decode_clk(&wire, p.filter_len).expect("roundtrip");
        assert_eq!(back, clk);
        assert_eq!(flips, 17);
    }

    #[test]
    fn clk_rejects_malformed() {
        let p = ClkParams::paper_defaults(9);
        let clk = encode_fields(&p, &["x"]);
        let wire = encode_clk(&clk, 0);
        // Truncated / extended.
        assert!(matches!(
            decode_clk(&wire[..wire.len() - 1], p.filter_len),
            Err(WireError::Length { .. })
        ));
        let mut long = wire.clone();
        long.push(0);
        assert!(matches!(
            decode_clk(&long, p.filter_len),
            Err(WireError::Length { .. })
        ));
        // Foreign tag.
        let mut bad_tag = wire.clone();
        bad_tag[0] = TAG_DICE;
        assert!(matches!(
            decode_clk(&bad_tag, p.filter_len),
            Err(WireError::Tag { .. })
        ));
        // Set padding bit: 996-bit filters leave 4 dead bits in the
        // final byte, so a flip there must be caught by the codec.
        let mut odd = p;
        odd.filter_len = 996;
        let odd_wire = encode_clk(&encode_fields(&odd, &["x"]), 0);
        let mut bad_pad = odd_wire.clone();
        let last_bits = 1 + odd.filter_bytes() - 1;
        bad_pad[last_bits] |= 0x80;
        assert!(matches!(
            decode_clk(&bad_pad, odd.filter_len),
            Err(WireError::Padding)
        ));
        assert!(decode_clk(&odd_wire, odd.filter_len).is_ok());
        // Length disagreement between the peers' configs.
        assert!(matches!(
            decode_clk(&wire, 992),
            Err(WireError::Length { .. })
        ));
    }

    #[test]
    fn dice_roundtrips_and_rejects() {
        let msg = DiceMsg {
            a_ones: 120,
            b_ones: 140,
            common: 100,
            flips: 3,
        };
        let wire = encode_dice(&msg);
        assert_eq!(wire.len(), DICE_MSG_LEN);
        assert_eq!(decode_dice(&wire, 1000), Ok(msg));

        assert!(matches!(
            decode_dice(&wire[..DICE_MSG_LEN - 2], 1000),
            Err(WireError::Length { .. })
        ));
        let mut bad_tag = wire.clone();
        bad_tag[0] = TAG_CLK;
        assert!(matches!(decode_dice(&bad_tag, 1000), Err(WireError::Tag { .. })));
        // common > min(a, b).
        let impossible = DiceMsg {
            a_ones: 10,
            b_ones: 8,
            common: 9,
            flips: 0,
        };
        assert_eq!(
            decode_dice(&encode_dice(&impossible), 1000),
            Err(WireError::Counts)
        );
        // ones > filter_len.
        assert_eq!(decode_dice(&wire, 100), Err(WireError::Counts));
    }
}
