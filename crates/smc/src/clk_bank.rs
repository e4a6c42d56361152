//! One side's CLK filters for one job, each encoded at most once.
//!
//! The pair walk revisits rows: a class of `k` records meets every
//! record of its partner class, so a row's filter is wanted `k` times or
//! more, and gram hashing costs ten times what the Dice tally does. A
//! [`ClkBank`] encodes a row the first time the walk reaches it and
//! answers every later pair from a word slab with the population count
//! and the DP flip count cached beside it.
//!
//! Caching is exact, not approximate, under any ε: a row's filter is a
//! pure function of `(params, side, row, record)` — the BLIP stream is
//! keyed by `(seed, side, row)` and draws from no ambient state — so the
//! cached filter is the filter a fresh encode would produce, in any walk
//! order and across any resume. A bank is derived state: it lives for
//! one job, is never journaled, and a resumed party refills it only for
//! the rows its remaining pairs reach.
//!
//! This module holds the only caller of the per-record encoder outside
//! tests.

use crate::comparator::clk_record_fields;
use crate::SmcError;
use pprl_bloom::{blip_flip, encode_fields, Clk, ClkParams, ClkRef, ClkSlab};
use pprl_data::Record;
use std::fmt;

/// Marks a row the walk has not reached yet in the row → slot map.
const NO_SLOT: u32 = u32::MAX;

/// Encodes one side's CLK for a row: canonicalize, gram, hash, then
/// apply the side/row-keyed DP flips. Returns the filter and its flip
/// count. `side` is [`SIDE_A`](pprl_bloom::SIDE_A) for R-rows,
/// [`SIDE_B`](pprl_bloom::SIDE_B) for S-rows.
fn clk_encode_side(
    params: &ClkParams,
    qids: &[usize],
    rec: &Record,
    side: u8,
    row: u32,
) -> (Clk, u32) {
    let fields = clk_record_fields(qids, rec);
    let mut clk = encode_fields(params, &fields);
    let flips = blip_flip(&mut clk, params, side, row);
    (clk, flips)
}

/// Lazily filled per-side filter cache. Holds only rows the walk
/// reached: one filter's words plus 8 bytes (cardinality, flip count) a
/// row, and 4 bytes of slot map per row index up to the highest reached.
pub struct ClkBank {
    params: ClkParams,
    side: u8,
    /// Row index → slot in `slab` / `flips`; [`NO_SLOT`] until encoded.
    slot_of: Vec<u32>,
    slab: ClkSlab,
    /// DP flips applied to each slot's filter.
    flips: Vec<u32>,
}

// pprl:allow(secret-leak): redacting impl — shape and counts, never bits
impl fmt::Debug for ClkBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClkBank")
            .field("side", &self.side)
            .field("filter_len", &self.params.filter_len)
            .field("encoded_rows", &self.encoded_rows())
            .finish_non_exhaustive()
    }
}

impl ClkBank {
    /// Empty bank for one side's rows under `params`.
    pub fn new(params: ClkParams, side: u8) -> Self {
        ClkBank {
            params,
            side,
            slot_of: Vec::new(),
            slab: ClkSlab::new(params.filter_len),
            flips: Vec::new(),
        }
    }

    /// The flip-stream side tag this bank encodes under.
    pub fn side(&self) -> u8 {
        self.side
    }

    /// Rows encoded so far — each exactly once.
    pub fn encoded_rows(&self) -> usize {
        self.slab.len()
    }

    /// The filter and DP flip count of `row`, whose record is `rec`,
    /// encoding it on first touch. The caller passes the same record for
    /// the same row throughout the job.
    pub fn lookup(
        &mut self,
        qids: &[usize],
        rec: &Record,
        row: u32,
    ) -> Result<(ClkRef<'_>, u32), SmcError> {
        let idx = row as usize;
        if idx >= self.slot_of.len() {
            self.slot_of.resize(idx + 1, NO_SLOT);
        }
        let entry = self
            .slot_of
            .get_mut(idx)
            .ok_or(SmcError::Internal("clk bank slot map shorter than its row"))?;
        if *entry == NO_SLOT {
            let (clk, flips) = clk_encode_side(&self.params, qids, rec, self.side, row);
            let slot = self
                .slab
                .push(&clk)
                .and_then(|slot| u32::try_from(slot).ok())
                .ok_or(SmcError::Internal("clk bank cannot take another filter"))?;
            self.flips.push(flips);
            *entry = slot;
        }
        let slot = *entry as usize;
        match (self.slab.get(slot), self.flips.get(slot)) {
            (Some(clk), Some(&flips)) => Ok((clk, flips)),
            _ => Err(SmcError::Internal("clk bank slot out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_bloom::{encode_clk, DiceCounts, SIDE_A, SIDE_B};
    use pprl_data::synth::{generate, SynthConfig};
    use pprl_data::DataSet;

    fn corpus() -> DataSet {
        generate(&SynthConfig {
            records: 24,
            seed: 1,
        })
    }

    fn params(epsilon_millis: u32) -> ClkParams {
        let mut p = ClkParams::paper_defaults(7);
        p.epsilon_millis = epsilon_millis;
        p
    }

    #[test]
    fn clk_encode_side_is_side_and_row_keyed() {
        let data = corpus();
        let rec = &data.records()[0];
        let qids: Vec<usize> = (0..3).collect();
        let params = params(2000);
        let (a0, _) = clk_encode_side(&params, &qids, rec, SIDE_A, 0);
        let (a0_again, _) = clk_encode_side(&params, &qids, rec, SIDE_A, 0);
        let (a1, _) = clk_encode_side(&params, &qids, rec, SIDE_A, 1);
        assert_eq!(a0, a0_again);
        assert_ne!(a0, a1, "row key must vary the DP noise");
    }

    /// Lookups in a scrambled order, each row several times, on both
    /// sides, with and without flips, return what a fresh encode of that
    /// row returns — wire bytes (filter and flip count) and cardinality —
    /// and encode each row once.
    #[test]
    fn lookups_equal_a_fresh_encode_in_any_order() {
        let data = corpus();
        let qids: Vec<usize> = (0..5).collect();
        let n = data.records().len() as u32;
        for epsilon_millis in [0, 2000] {
            for side in [SIDE_A, SIDE_B] {
                let params = params(epsilon_millis);
                let mut bank = ClkBank::new(params, side);
                // 7 is coprime to 24: three scrambled passes over every row.
                for step in 0..3 * n {
                    let row = (step * 7 + 5) % n;
                    let rec = &data.records()[row as usize];
                    let (fresh, fresh_flips) = clk_encode_side(&params, &qids, rec, side, row);
                    let (cached, flips) = bank.lookup(&qids, rec, row).expect("lookup");
                    assert_eq!(flips, fresh_flips);
                    assert_eq!(cached.ones(), fresh.ones());
                    assert_eq!(encode_clk(cached, flips), encode_clk(&fresh, fresh_flips));
                    let tally = DiceCounts::of(cached, &fresh).expect("same length");
                    assert_eq!(tally.common, fresh.ones());
                    assert_eq!(flips == 0, epsilon_millis == 0);
                }
                assert_eq!(bank.encoded_rows(), n as usize);
            }
        }
    }

    #[test]
    fn debug_shows_counts_only() {
        let data = corpus();
        let qids: Vec<usize> = (0..5).collect();
        let mut bank = ClkBank::new(params(0), SIDE_A);
        bank.lookup(&qids, &data.records()[3], 3).expect("lookup");
        assert_eq!(
            format!("{bank:?}"),
            "ClkBank { side: 0, filter_len: 1000, encoded_rows: 1, .. }"
        );
    }
}
