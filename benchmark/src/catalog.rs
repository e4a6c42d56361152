//! Every metric the benchmark reports: name, unit, direction and, for
//! end-to-end metrics, the regression bound. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression. Zero marks an exact count that must
    /// match bit for bit. `None` for per-layer metrics, which explain a
    /// result and are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The gated end-to-end metrics, reported per workload: the same names,
/// order and bounds as `end_to_end` in `BENCHMARK.json`, and the only
/// bounds there are; `compare` and `selfcheck` judge by them too. A bound
/// is per metric, so the least steady workload sets it: `sanitize-k2`,
/// whose pair count follows the corpus, spreads up to 8% in `job_s`
/// between seeds, and a bound is to be three times the spread. `ok_share`
/// is one minus the share of attempted pairs that failed (a share of zero
/// cannot carry a relative bound, so the failure share is reported this
/// way round, once).
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("job_s", "s", Lower, 0.25),
    gated("job_cpu_s", "s", Lower, 0.25),
    gated("peak_rss_mb", "MiB", Lower, 0.15),
    gated("ok_share", "ratio", Higher, 0.01),
];

/// The other three end-to-end metrics. They are exact functions of the
/// seed, so `compare` wants them bit for bit between two runs at one seed.
/// Across seeds they are neither steady nor never zero (the oracle moves
/// no bytes; recall on a 16-pair budget is zero at most seeds), so in
/// `BENCHMARK.json` they stand with the unbounded `per_layer` metrics.
pub const EXACT: &[MetricDef] = &[
    gated("wire_bytes_per_pair", "B", Lower, 0.0),
    gated("recall", "ratio", Higher, 0.0),
    gated("precision", "ratio", Higher, 0.0),
];

/// Per-layer metrics measured once per traced workload run.
pub const PER_WORKLOAD: &[MetricDef] = &[
    layer("data.synth_s", "s", Lower),
    layer("anon.anonymize_s", "s", Lower),
    layer("anon.records_per_s", "1/s", Higher),
    layer("anon.classes", "count", Higher),
    layer("blocking.run_s", "s", Lower),
    layer("blocking.class_pairs_per_s", "1/s", Higher),
    layer("blocking.unknown_class_pairs", "count", Lower),
    layer("blocking.efficiency", "ratio", Higher),
    layer("smc.start_s", "s", Lower),
    layer("smc.run_s", "s", Lower),
    layer("smc.pairs_per_s", "1/s", Higher),
    layer("smc.pair_us_p50", "us", Lower),
    layer("smc.pair_us_p99", "us", Lower),
    layer("smc.match_yield", "ratio", Higher),
    layer("smc.abandoned", "count", Lower),
    layer("bloom.clk_bits_per_pair", "bit", Lower),
    layer("crypto.encryptions_per_pair", "count", Lower),
    layer("crypto.decryptions_per_pair", "count", Lower),
    layer("crypto.exponentiations_per_pair", "count", Lower),
    layer("crypto.messages_per_pair", "count", Lower),
    layer("net.frames_per_pair", "count", Lower),
    layer("net.wire_bytes_per_pair", "B", Lower),
    layer("net.framing_overhead", "ratio", Lower),
    layer("net.retransmits", "count", Lower),
    layer("net.reconnects", "count", Lower),
    layer("net.batches_sent", "count", Higher),
    layer("net.max_window", "count", Higher),
    layer("journal.bytes_per_pair", "B", Lower),
    layer("journal.resume_s", "s", Lower),
    layer("journal.resume_replayed_share", "ratio", Higher),
    layer("runtime.threads", "count", Higher),
    layer("runtime.speedup", "ratio", Higher),
    layer("core.other_s", "s", Lower),
    layer("core.query_busy_share", "ratio", Lower),
    layer("core.alice_busy_share", "ratio", Lower),
    layer("core.bob_busy_share", "ratio", Lower),
    layer("core.party_overhead_ratio", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Per-layer micro rows: one layer's primitive timed alone, the same
/// whatever the workload.
pub const MICRO: &[MetricDef] = &[
    layer("bloom.encode_us", "us", Lower),
    layer("bloom.dice_ns", "ns", Lower),
    layer("bignum.mont_mul_2048_ns", "ns", Lower),
    layer("bignum.mont_mul_512_ns", "ns", Lower),
    layer("bignum.mod_pow_2048_us", "us", Lower),
    layer("bignum.pow_ct_1024_us", "us", Lower),
    layer("crypto.keygen_1024_s", "s", Lower),
    layer("crypto.encrypt_1024_us", "us", Lower),
    layer("crypto.encrypt_pooled_1024_us", "us", Lower),
    layer("crypto.decrypt_1024_us", "us", Lower),
    layer("crypto.mul_plain_1024_us", "us", Lower),
    layer("crypto.add_1024_us", "us", Lower),
    layer("crypto.encrypt_256_us", "us", Lower),
    layer("crypto.decrypt_256_us", "us", Lower),
    layer("crypto.pool_prefill_s", "s", Lower),
    layer("crypto.alice_msg_ms", "ms", Lower),
    layer("crypto.bob_msg_ms", "ms", Lower),
    layer("crypto.bob_msg_packed_ms", "ms", Lower),
    layer("crypto.querier_reveal_ms", "ms", Lower),
    layer("net.frame_codec_ns", "ns", Lower),
    layer("net.batch_codec_ns", "ns", Lower),
    layer("net.rtt_us_p50", "us", Lower),
    layer("net.rtt_us_p99", "us", Lower),
    layer("journal.append_us", "us", Lower),
    layer("journal.sync_us_p50", "us", Lower),
    layer("journal.recover_mb_per_s", "MiB/s", Higher),
    layer("runtime.par_map_us", "us", Lower),
];

/// Looks a metric up by name across every table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(EXACT)
        .chain(PER_WORKLOAD)
        .chain(MICRO)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END
            .iter()
            .chain(EXACT)
            .chain(PER_WORKLOAD)
            .chain(MICRO)
        {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` is read by a driver that never sees this crate:
    /// the two lists must not drift apart.
    #[test]
    fn manifest_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            manifest
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    // Per-layer entries carry no bound; the catalogue's
                    // zero for an exact count is `compare`'s business.
                    let bound = m.get("bound").and_then(Json::as_f64);
                    (field("name"), field("unit"), field("better"), bound)
                })
                .collect()
        };
        let expected = |defs: &[&[MetricDef]]| -> Vec<_> {
            defs.iter()
                .flat_map(|table| table.iter())
                .map(|m| {
                    let better = if m.better == Lower { "lower" } else { "higher" };
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        better.to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expected(&[END_TO_END]));
        let unbounded: Vec<_> = expected(&[EXACT, PER_WORKLOAD, MICRO])
            .into_iter()
            .map(|(name, unit, better, _)| (name, unit, better, None))
            .collect();
        assert_eq!(listed("per_layer"), unbounded);

        let workloads: Vec<&str> = manifest
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let specs: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }
}
