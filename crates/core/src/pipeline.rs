//! The hybrid linkage pipeline (paper §III overview).

use crate::config::LinkageConfig;
use crate::metrics::LinkageMetrics;
use crate::truth::{count_matches_in_class_pair, GroundTruth};
use crate::LinkageError;
use pprl_anon::{AnonymizedView, Anonymizer};
use pprl_blocking::{BlockingEngine, BlockingOutcome, MatchingRule, PairLabel};
use pprl_crypto::CostLedger;
use pprl_data::DataSet;
use pprl_hierarchy::Vgh;
use pprl_smc::expected::expected_vector;
use pprl_smc::{label_leftovers, SmcReport, SmcRunner, SmcSession, SmcStep};

/// The configured pipeline.
#[derive(Clone, Debug)]
pub struct HybridLinkage {
    config: LinkageConfig,
    /// Worker threads for the blocking scan and the SMC pair batches.
    /// Deliberately *not* part of [`LinkageConfig`]: results are
    /// byte-identical at every thread count, so the journal fingerprint
    /// (which hashes the config) must not change with it — a journal
    /// written sequentially resumes under `--threads 8` and vice versa.
    threads: usize,
}

/// Everything a run produces: the published views, the per-step outcomes,
/// and the evaluation against ground truth.
#[derive(Debug)]
pub struct LinkageOutcome {
    /// First holder's published view.
    pub r_view: AnonymizedView,
    /// Second holder's published view.
    pub s_view: AnonymizedView,
    /// Blocking-step outcome.
    pub blocking: BlockingOutcome,
    /// SMC-step report.
    pub smc: SmcReport,
    /// Strategy labels for the leftover class pairs, aligned with
    /// `smc.leftovers`.
    pub leftover_labels: Vec<PairLabel>,
    /// Quality and cost metrics.
    pub metrics: LinkageMetrics,
    /// Crypto cost ledger (meaningful in Paillier mode).
    pub ledger: CostLedger,
}

impl LinkageOutcome {
    /// The SMC step's graceful-degradation accounting: pairs abandoned
    /// after retry exhaustion, faults survived, retransmissions spent.
    /// All zeros unless the run was configured with a faulty channel.
    pub fn degradation(&self) -> &pprl_smc::DegradationReport {
        &self.smc.degradation
    }

    /// Enumerates the linkage *result*: every record-row pair `(row in R,
    /// row in S)` declared matching — blocking-step matches (expanded from
    /// class pairs) followed by SMC-step matches. Under the default
    /// maximize-precision strategy with an exact backend every yielded
    /// pair is a true match; the approximate Bloom backend can yield
    /// false positives (see `LinkageMetrics::true_positives`).
    pub fn matched_rows(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let from_blocking = self.blocking.matched.iter().flat_map(move |pref| {
            let rc = &self.r_view.classes()[pref.r_class as usize];
            let sc = &self.s_view.classes()[pref.s_class as usize];
            rc.rows
                .iter()
                .flat_map(move |&ri| sc.rows.iter().map(move |&si| (ri, si)))
        });
        from_blocking.chain(self.smc.matched_pairs.iter().copied())
    }
}

/// The front end every driver shares (in-process, journaled, and each
/// party of a networked session): schemas checked, the matching rule
/// resolved, both holders' views published. Blocking and the SMC session
/// start from here.
pub(crate) struct Prepared<'a> {
    r: &'a DataSet,
    s: &'a DataSet,
    pub(crate) rule: MatchingRule,
    pub(crate) r_view: AnonymizedView,
    pub(crate) s_view: AnonymizedView,
}

impl<'a> Prepared<'a> {
    /// Step 1 — each holder anonymizes independently (§III).
    pub(crate) fn new(
        cfg: &LinkageConfig,
        r: &'a DataSet,
        s: &'a DataSet,
    ) -> Result<Self, LinkageError> {
        check_schemas(r, s)?;
        Ok(Prepared {
            r,
            s,
            rule: cfg.rule(r.schema()),
            r_view: Anonymizer::new(cfg.method_r, cfg.k_r).anonymize(r, &cfg.qids)?,
            s_view: Anonymizer::new(cfg.method_s, cfg.k_s).anonymize(s, &cfg.qids)?,
        })
    }

    /// Step 2 — blocking on the published views, chunked across `threads`
    /// workers; byte-identical to the sequential scan.
    pub(crate) fn block(&self, threads: usize) -> Result<BlockingOutcome, LinkageError> {
        Ok(BlockingEngine::new(self.rule.clone()).run_parallel(
            &self.r_view,
            &self.s_view,
            threads,
        )?)
    }

    /// Step 3 — the SMC session over `blocking`'s unknown class pairs:
    /// revived from `checkpoint` when there is one, otherwise fresh
    /// (reusing `warm`'s key pair instead of generating one).
    pub(crate) fn start(
        &self,
        step: SmcStep,
        blocking: &BlockingOutcome,
        warm: Option<&pprl_crypto::Keypair>,
        checkpoint: Option<SmcSession>,
    ) -> Result<SmcRunner<'_>, LinkageError> {
        let (r_view, s_view) = (&self.r_view, &self.s_view);
        let (unknown, total) = (&blocking.unknown[..], blocking.total_pairs);
        Ok(match checkpoint {
            Some(session) => step.resume(
                session, self.r, self.s, r_view, s_view, unknown, &self.rule, total,
            )?,
            None => step.start_warm(
                self.r, self.s, r_view, s_view, unknown, &self.rule, total, warm,
            )?,
        })
    }
}

impl HybridLinkage {
    /// Builds the pipeline from a configuration (sequential by default —
    /// the legacy single-threaded path, bit-for-bit).
    pub fn new(config: LinkageConfig) -> Self {
        HybridLinkage { config, threads: 1 }
    }

    /// Sets the worker-thread count for blocking and SMC (clamped to at
    /// least 1; `1` is the legacy sequential path). Output is identical
    /// at every thread count — only wall-clock time changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configuration.
    pub fn config(&self) -> &LinkageConfig {
        &self.config
    }

    /// Runs the full protocol simulation of `r` against `s`.
    pub fn run(&self, r: &DataSet, s: &DataSet) -> Result<LinkageOutcome, LinkageError> {
        let prepared = Prepared::new(&self.config, r, s)?;
        let blocking = prepared.block(self.threads)?;
        let mut runner = prepared.start(self.smc_step(), &blocking, None, None)?;
        if self.threads > 1 {
            self.prefill_pool(&mut runner, &blocking);
        }
        runner.run_to_completion_parallel(self.threads)?;
        let smc = runner.finish();
        Ok(self.finalize(prepared, blocking, smc))
    }

    /// Sizes and attaches the shared Paillier randomizer pool for a
    /// parallel run: enough `rⁿ mod n²` values for the expected
    /// encryption demand, capped so over-provisioning never costs more
    /// exponentiations than the run performs. A no-op in oracle mode or
    /// over the simulated link (the runner declines the pool).
    pub(crate) fn prefill_pool(&self, runner: &mut SmcRunner<'_>, blocking: &BlockingOutcome) {
        let cfg = &self.config;
        let seed = match cfg.mode {
            pprl_smc::SmcMode::Paillier { seed, .. }
            | pprl_smc::SmcMode::PaillierBatched { seed, .. } => seed,
            pprl_smc::SmcMode::Oracle | pprl_smc::SmcMode::Bloom { .. } => return,
        };
        let unknown_total: u64 = blocking.unknown.iter().map(|p| p.pairs).sum();
        let budget = cfg
            .allowance
            .budget_pairs(blocking.total_pairs)
            .min(unknown_total.saturating_add(blocking.suppressed_pairs));
        // ~2 encryptions per attribute per pair in the batched protocol.
        let per_pair = (cfg.qids.len() as u64).saturating_mul(2).max(1);
        let count = budget.saturating_mul(per_pair).min(4096) as usize;
        runner.prefill_randomizers(count, self.threads, seed ^ 0x7261_6e64_706f_6f6c);
    }

    /// The SMC step exactly as [`run`](Self::run) configures it (shared
    /// with the journaled runner, which drives it pair by pair).
    pub(crate) fn smc_step(&self) -> SmcStep {
        let cfg = &self.config;
        SmcStep {
            heuristic: cfg.heuristic,
            allowance: cfg.allowance,
            strategy: cfg.strategy,
            mode: cfg.mode,
            channel: cfg.channel,
            deadline: cfg.deadline,
        }
    }

    /// Steps 4–5 of the protocol (leftover labeling, ground-truth scoring)
    /// and outcome assembly — shared by [`run`](Self::run) and the
    /// journaled runner so both paths score identically.
    pub(crate) fn finalize(
        &self,
        prepared: Prepared<'_>,
        blocking: BlockingOutcome,
        smc: SmcReport,
    ) -> LinkageOutcome {
        let Prepared {
            r,
            s,
            rule,
            r_view,
            s_view,
        } = prepared;
        let rule = &rule;
        let cfg = &self.config;
        let schema = r.schema();

        // Step 4 — leftover labeling (§V-B).
        let vghs: Vec<&Vgh> = cfg.qids.iter().map(|&q| schema.attribute(q).vgh()).collect();
        let avg_ed = |pref: &pprl_blocking::ClassPairRef| -> f64 {
            let a = &r_view.classes()[pref.r_class as usize].sequence;
            let b = &s_view.classes()[pref.s_class as usize].sequence;
            let eds = expected_vector(&vghs, &rule.distances, a, b);
            eds.iter().sum::<f64>() / eds.len().max(1) as f64
        };
        let leftover_scores: Vec<f64> =
            smc.leftovers.iter().map(|l| avg_ed(&l.class_pair)).collect();
        let examined_scores: Vec<f64> =
            smc.examined.iter().map(|e| avg_ed(&e.class_pair)).collect();
        let leftover_labels = label_leftovers(
            cfg.strategy,
            &smc.leftovers,
            &leftover_scores,
            &smc.examined,
            &examined_scores,
        );

        // Step 5 — evaluate against ground truth.
        let truth = GroundTruth::compute(r, s, &cfg.qids, rule);
        let metrics = self.score(
            r, s, rule, &r_view, &s_view, &blocking, &smc, &leftover_labels, &truth,
        );

        let ledger = smc.ledger.clone();
        LinkageOutcome {
            r_view,
            s_view,
            blocking,
            smc,
            leftover_labels,
            metrics,
            ledger,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn score(
        &self,
        r: &DataSet,
        s: &DataSet,
        rule: &MatchingRule,
        r_view: &AnonymizedView,
        s_view: &AnonymizedView,
        blocking: &BlockingOutcome,
        smc: &SmcReport,
        leftover_labels: &[PairLabel],
        truth: &GroundTruth,
    ) -> LinkageMetrics {
        let cfg = &self.config;
        let smc_matched = smc.matched_pairs.len() as u64;
        // Exact backends decide by the matching rule itself, so every SMC
        // match is a true positive by construction (the paper's 100 %
        // precision guarantee). An approximate backend (Dice over CLK
        // filters) can declare false positives; score its matches against
        // the rule so the reported precision is honest.
        let smc_tp = if cfg.mode.is_exact() {
            smc_matched
        } else {
            smc.matched_pairs
                .iter()
                .filter(|&&(ri, si)| {
                    pprl_blocking::records_match(
                        r.schema(),
                        &cfg.qids,
                        rule,
                        &r.records()[ri as usize],
                        &s.records()[si as usize],
                    )
                })
                .count() as u64
        };

        // Pairs the transport abandoned and the strategy declared matching
        // (maximize-recall only; maximize-precision abandons to non-match,
        // so degradation can never cost precision).
        let mut degraded_declared = 0u64;
        let mut degraded_tp = 0u64;
        for &(ri, si) in &smc.degradation.declared {
            degraded_declared += 1;
            if pprl_blocking::records_match(
                r.schema(),
                &cfg.qids,
                rule,
                &r.records()[ri as usize],
                &s.records()[si as usize],
            ) {
                degraded_tp += 1;
            }
        }

        // Leftovers the strategy declared matching (strategies 2 and 3).
        let mut leftover_declared = 0u64;
        let mut leftover_tp = 0u64;

        // Suppressed-record pairs the budget never reached carry no
        // generalization features; under maximize-recall they are declared
        // matching like every other leftover.
        let leftover_suppressed = smc.suppressed_total - smc.suppressed_examined;
        if leftover_suppressed > 0
            && matches!(cfg.strategy, pprl_smc::LabelingStrategy::MaximizeRecall)
        {
            leftover_declared += leftover_suppressed;
            let total = count_suppressed_matches(r, s, &cfg.qids, rule, r_view, s_view);
            leftover_tp += total - smc.suppressed_matched;
        }
        for (leftover, label) in smc.leftovers.iter().zip(leftover_labels) {
            if *label == PairLabel::Match {
                let remaining = leftover.class_pair.pairs - leftover.skip;
                leftover_declared += remaining;
                leftover_tp += count_matches_in_class_pair(
                    r,
                    s,
                    &cfg.qids,
                    rule,
                    &r_view.classes()[leftover.class_pair.r_class as usize].rows,
                    &s_view.classes()[leftover.class_pair.s_class as usize].rows,
                    leftover.skip,
                );
            }
        }

        LinkageMetrics {
            total_pairs: blocking.total_pairs,
            true_matches: truth.total_matches(),
            declared_matches: blocking.matched_pairs
                + smc_matched
                + leftover_declared
                + degraded_declared,
            true_positives: blocking.matched_pairs + smc_tp + leftover_tp + degraded_tp,
            blocking_efficiency: blocking.efficiency(),
            blocking_matched: blocking.matched_pairs,
            smc_matched,
            smc_invocations: smc.invocations,
            smc_budget: smc.budget,
            leftover_declared,
            smc_abandoned: smc.degradation.abandoned.retry_exhausted,
            deadline_abandoned: smc.degradation.abandoned.deadline_expired,
        }
    }
}

/// True matches inside the suppressed region:
/// `(suppressed_R × all_S) ∪ (covered_R × suppressed_S)`.
fn count_suppressed_matches(
    r: &DataSet,
    s: &DataSet,
    qids: &[usize],
    rule: &MatchingRule,
    r_view: &AnonymizedView,
    s_view: &AnonymizedView,
) -> u64 {
    use pprl_blocking::records_match;
    let schema = r.schema();
    let mut r_sup = vec![false; r.len()];
    for &row in r_view.suppressed() {
        r_sup[row as usize] = true;
    }
    let mut count = 0u64;
    for &ri in r_view.suppressed() {
        for srec in s.records() {
            if records_match(schema, qids, rule, &r.records()[ri as usize], srec) {
                count += 1;
            }
        }
    }
    for &si in s_view.suppressed() {
        for (ri, rrec) in r.records().iter().enumerate() {
            if r_sup[ri] {
                continue;
            }
            if records_match(schema, qids, rule, rrec, &s.records()[si as usize]) {
                count += 1;
            }
        }
    }
    count
}

fn check_schemas(r: &DataSet, s: &DataSet) -> Result<(), LinkageError> {
    let (a, b) = (r.schema(), s.schema());
    if a.arity() != b.arity() {
        return Err(LinkageError::SchemaMismatch);
    }
    for i in 0..a.arity() {
        let (x, y) = (a.attribute(i), b.attribute(i));
        if x.name() != y.name() || x.kind() != y.kind() {
            return Err(LinkageError::SchemaMismatch);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SyntheticScenario;
    use pprl_smc::{LabelingStrategy, SmcAllowance};

    fn scenario(n: usize, seed: u64) -> (DataSet, DataSet) {
        SyntheticScenario::builder()
            .records_per_set(n)
            .seed(seed)
            .build()
            .data_sets()
    }

    #[test]
    fn paper_defaults_run_end_to_end() {
        let (d1, d2) = scenario(300, 91);
        let outcome = HybridLinkage::new(LinkageConfig::paper_defaults())
            .run(&d1, &d2)
            .unwrap();
        // 100 % precision is structural under maximize-precision.
        assert_eq!(outcome.metrics.precision(), 1.0);
        assert!(outcome.metrics.true_matches > 0, "d3 guarantees matches");
        assert!(outcome.metrics.recall() > 0.0);
        assert!(outcome.metrics.blocking_efficiency > 0.5);
        assert!(outcome.metrics.smc_invocations <= outcome.metrics.smc_budget);
    }

    #[test]
    fn unlimited_allowance_reaches_full_recall() {
        let (d1, d2) = scenario(200, 93);
        let cfg = LinkageConfig::paper_defaults().with_allowance(SmcAllowance::Unlimited);
        let outcome = HybridLinkage::new(cfg).run(&d1, &d2).unwrap();
        assert_eq!(outcome.metrics.recall(), 1.0);
        assert_eq!(outcome.metrics.precision(), 1.0);
    }

    #[test]
    fn zero_allowance_still_perfectly_precise() {
        let (d1, d2) = scenario(200, 95);
        let cfg = LinkageConfig::paper_defaults().with_allowance(SmcAllowance::Pairs(0));
        let outcome = HybridLinkage::new(cfg).run(&d1, &d2).unwrap();
        assert_eq!(outcome.metrics.precision(), 1.0);
        // Blocking alone still matches the provable pairs.
        assert_eq!(
            outcome.metrics.true_positives,
            outcome.metrics.blocking_matched
        );
    }

    #[test]
    fn recall_is_monotone_in_allowance() {
        let (d1, d2) = scenario(250, 97);
        let recall_at = |pairs: u64| {
            let cfg =
                LinkageConfig::paper_defaults().with_allowance(SmcAllowance::Pairs(pairs));
            HybridLinkage::new(cfg).run(&d1, &d2).unwrap().metrics.recall()
        };
        let (r0, r1, r2) = (recall_at(0), recall_at(2_000), recall_at(200_000));
        assert!(r0 <= r1 + 1e-12, "recall({r0}) <= recall({r1})");
        assert!(r1 <= r2 + 1e-12, "recall({r1}) <= recall({r2})");
    }

    #[test]
    fn maximize_recall_strategy_reaches_full_recall() {
        let (d1, d2) = scenario(150, 99);
        let cfg = LinkageConfig::paper_defaults()
            .with_allowance(SmcAllowance::Pairs(100))
            .with_strategy(LabelingStrategy::MaximizeRecall);
        let outcome = HybridLinkage::new(cfg).run(&d1, &d2).unwrap();
        assert_eq!(outcome.metrics.recall(), 1.0, "strategy 2 finds all matches");
        assert!(
            outcome.metrics.precision() < 1.0,
            "…at the price of precision (paper §V-B)"
        );
    }

    #[test]
    fn matched_rows_enumerates_exactly_the_true_positives() {
        use pprl_blocking::records_match;
        let (d1, d2) = scenario(150, 103);
        let cfg = LinkageConfig::paper_defaults()
            .with_k(4)
            .with_allowance(SmcAllowance::Unlimited);
        let out = HybridLinkage::new(cfg.clone()).run(&d1, &d2).unwrap();
        let rows: Vec<(u32, u32)> = out.matched_rows().collect();
        assert_eq!(rows.len() as u64, out.metrics.true_positives);
        // Every enumerated pair really matches.
        let schema = d1.schema();
        let rule = cfg.rule(schema);
        for &(ri, si) in rows.iter().take(200) {
            assert!(records_match(
                schema,
                &cfg.qids,
                &rule,
                &d1.records()[ri as usize],
                &d2.records()[si as usize]
            ));
        }
        // No duplicates.
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rows.len());
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let (d1, d2) = scenario(200, 105);
        let cfg = LinkageConfig::paper_defaults();
        let base = HybridLinkage::new(cfg.clone()).run(&d1, &d2).unwrap();
        let base_rows: Vec<(u32, u32)> = base.matched_rows().collect();
        for threads in [2usize, 4, 8] {
            let out = HybridLinkage::new(cfg.clone())
                .with_threads(threads)
                .run(&d1, &d2)
                .unwrap();
            assert_eq!(out.metrics, base.metrics, "threads={threads}");
            assert_eq!(
                out.leftover_labels, base.leftover_labels,
                "threads={threads}"
            );
            let rows: Vec<(u32, u32)> = out.matched_rows().collect();
            assert_eq!(rows, base_rows, "threads={threads}");
        }
    }

    #[test]
    fn parallel_paillier_pipeline_matches_sequential_ledger() {
        // Real crypto end to end: four workers sharing a pre-filled
        // randomizer pool must reproduce the sequential metrics, match
        // set, AND cost ledger — the pool moves *when* exponentiations
        // happen, never how many the protocol accounts for.
        let (d1, d2) = scenario(80, 107);
        let mut cfg =
            LinkageConfig::paper_defaults().with_allowance(SmcAllowance::Pairs(40));
        cfg.mode = pprl_smc::SmcMode::PaillierBatched {
            modulus_bits: 256,
            seed: 9,
            pack: false,
        };
        let base = HybridLinkage::new(cfg.clone()).run(&d1, &d2).unwrap();
        let par = HybridLinkage::new(cfg)
            .with_threads(4)
            .run(&d1, &d2)
            .unwrap();
        assert_eq!(par.metrics, base.metrics);
        assert_eq!(par.ledger, base.ledger, "pool must stay off-ledger");
        assert_eq!(
            par.matched_rows().collect::<Vec<_>>(),
            base.matched_rows().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mismatched_schemas_rejected() {
        let (d1, _) = scenario(60, 101);
        let other = pprl_data::DataSet::new(
            "other",
            pprl_data::Schema::new(
                vec![pprl_hierarchy::AdultAttribute::Age.vgh()],
                vec!["a".into()],
            ),
            vec![],
        )
        .unwrap();
        let err = HybridLinkage::new(LinkageConfig::paper_defaults())
            .run(&d1, &other)
            .unwrap_err();
        assert!(matches!(err, LinkageError::SchemaMismatch));
    }
}
