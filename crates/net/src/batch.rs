//! Coalesced data frames: several `Envelope`s per TCP frame.
//!
//! Every frame costs its `kind|len|checksum` header and a write syscall,
//! which on the ~130-byte CLK messages is most of the wire cost (the
//! benchmark's `net.framing_overhead` row). A sender
//! ([`PeerChannel::pump_window`](crate::peer::PeerChannel::pump_window))
//! that has several envelopes queued at once — a window submitted up
//! front, and every retransmission burst after a silent window or a
//! reconnect — therefore flushes them as one
//! [`K_DATA_BATCH`](crate::frame::K_DATA_BATCH) frame wrapping the same
//! envelope encoding `K_DATA` carries singly:
//!
//! ```text
//! count (u16 LE) | count × ( len (u32 LE) | envelope bytes )
//! ```
//!
//! The receiver unpacks the batch and feeds every entry through the exact
//! dedup/ack path a solo envelope takes, so batching is invisible to the
//! reliability contract, the cost ledger, and the crash-resume machinery —
//! it only changes how many kernel round trips a burst costs.

use crate::NetError;
use pprl_crypto::protocol::transport::{Envelope, ENVELOPE_OVERHEAD};

/// Smallest well-formed batch payload: the entry count, one entry length,
/// and one minimal (payload-free) envelope.
pub const BATCH_MIN_LEN: usize = 2 + 4 + ENVELOPE_OVERHEAD;

/// Most envelopes one batch frame may carry. Far above what any send
/// window queues (the CLI caps `--window` well below this); it exists so
/// a corrupt count field cannot demand a giant allocation.
pub const MAX_BATCH_ENTRIES: usize = 4096;

/// Encodes already-encoded envelopes into one batch payload.
///
/// Callers hold envelopes in encoded form (the bytes are retransmitted
/// verbatim, so they are encoded once at submit time); this just adds the
/// count and per-entry length framing.
pub fn encode_batch(entries: &[&[u8]]) -> Vec<u8> {
    let total: usize = entries.iter().map(|e| 4 + e.len()).sum();
    let mut buf = Vec::with_capacity(2 + total);
    buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for entry in entries {
        buf.extend_from_slice(&(entry.len() as u32).to_le_bytes());
        buf.extend_from_slice(entry);
    }
    buf
}

/// Decodes a batch payload back into its envelopes, in send order.
///
/// Any structural defect — truncated entry, trailing bytes, a count of
/// zero, an entry the envelope codec rejects — fails the whole frame: the
/// frame checksum already passed, so a malformed batch means an incoherent
/// sender, and the caller treats it like envelope corruption (drop the
/// connection, recover by reconnect).
pub fn decode_batch(payload: &[u8]) -> Result<Vec<Envelope>, NetError> {
    let malformed = |why: &str| NetError::Frame(format!("batch frame: {why}"));
    // Length-checked split (split_at panics past the end; split_at_checked
    // is past our MSRV).
    fn split(buf: &[u8], n: usize) -> Option<(&[u8], &[u8])> {
        (buf.len() >= n).then(|| buf.split_at(n))
    }
    let (count_bytes, mut rest) =
        split(payload, 2).ok_or_else(|| malformed("missing entry count"))?;
    let count_bytes: [u8; 2] = count_bytes
        .try_into()
        .map_err(|_| malformed("missing entry count"))?;
    let count = u16::from_le_bytes(count_bytes) as usize;
    if count == 0 {
        return Err(malformed("zero entries"));
    }
    if count > MAX_BATCH_ENTRIES {
        return Err(malformed("entry count exceeds the cap"));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let (len_bytes, after_len) =
            split(rest, 4).ok_or_else(|| malformed("truncated entry length"))?;
        let len_bytes: [u8; 4] = len_bytes
            .try_into()
            .map_err(|_| malformed("truncated entry length"))?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        let (entry, after_entry) =
            split(after_len, len).ok_or_else(|| malformed("truncated entry"))?;
        entries.push(
            Envelope::decode(entry)
                .map_err(|e| malformed(&format!("entry rejected by the envelope codec: {e}")))?,
        );
        rest = after_entry;
    }
    if !rest.is_empty() {
        return Err(malformed("trailing bytes after the last entry"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<u8> {
        Envelope::data(n, n * 10, vec![n as u8; 5 + n as usize]).encode()
    }

    #[test]
    fn batches_roundtrip_in_order() {
        let raw: Vec<Vec<u8>> = (1..=5).map(sample).collect();
        let entries: Vec<&[u8]> = raw.iter().map(|e| e.as_slice()).collect();
        let decoded = decode_batch(&encode_batch(&entries)).unwrap();
        assert_eq!(decoded.len(), 5);
        for (i, env) in decoded.iter().enumerate() {
            assert_eq!(env.pair_id, i as u64 + 1);
            assert_eq!(env.seq, (i as u64 + 1) * 10);
            assert_eq!(env.payload.len(), 5 + i + 1);
        }
    }

    #[test]
    fn a_single_entry_batch_is_legal() {
        let raw = sample(7);
        let decoded = decode_batch(&encode_batch(&[&raw])).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].pair_id, 7);
    }

    #[test]
    fn structural_defects_fail_the_whole_batch() {
        let raw = sample(1);
        let good = encode_batch(&[&raw]);
        // Zero entries.
        assert!(decode_batch(&[0, 0]).is_err());
        // Truncated anywhere.
        for cut in 0..good.len() {
            assert!(decode_batch(&good[..cut]).is_err(), "cut at {cut} decoded");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0xEE);
        assert!(decode_batch(&long).is_err());
        // Count claiming more than present.
        let mut overcount = good.clone();
        overcount[0] = 2;
        assert!(decode_batch(&overcount).is_err());
    }

    #[test]
    fn min_len_matches_the_smallest_real_batch() {
        let raw = Envelope::data(1, 0, Vec::new()).encode();
        assert_eq!(encode_batch(&[&raw]).len(), BATCH_MIN_LEN);
    }
}
