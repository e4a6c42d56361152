//! The traced pass's job: the same linkage as `HybridLinkage::run` (or
//! `journal_run::run_journaled`) assembled from the public stage functions,
//! with a span around each call into a layer. The program itself carries
//! no spans; tracing it from inside is a later issue.

use crate::trace::Tracer;
use crate::workloads::{digest_rows, journal_options, Driver, Spec};
use pprl_anon::{AnonymizedView, Anonymizer};
use pprl_blocking::{BlockingEngine, BlockingOutcome, MatchingRule};
use pprl_core::journal_run::{
    K_BLOCKING_CHUNK, K_BLOCKING_DONE, K_CONFIG, K_DONE, K_SMC_CHECKPOINT, K_SMC_OUTCOME,
};
use pprl_core::{GroundTruth, LinkageConfig};
use pprl_data::DataSet;
use pprl_journal::JournalWriter;
use pprl_smc::expected::expected_vector;
use pprl_smc::{
    label_leftovers, AbandonReason, PairDecision, PairEvent, SmcReport, SmcRunner, SmcStep,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// What the staged job measured beyond its spans.
pub struct StagedOutput {
    pub tracer: Tracer,
    /// Microseconds per compared pair, one sample per timed chunk of the
    /// pair walk (a chunk is a single pair whenever a pair takes 20 us or
    /// more).
    pub pair_us: Vec<f64>,
    pub r_classes: usize,
    pub s_classes: usize,
    pub unknown_class_pairs: usize,
    pub blocking_efficiency: f64,
    pub compared: u64,
    pub smc_matched: u64,
    pub abandoned: u64,
    pub digest: u64,
}

/// A chunk of the pair walk shorter than this is doubled, so timing it
/// costs the walk under 1%.
const MIN_CHUNK: Duration = Duration::from_micros(20);

fn smc_step(config: &LinkageConfig) -> SmcStep {
    SmcStep {
        heuristic: config.heuristic,
        allowance: config.allowance,
        strategy: config.strategy,
        mode: config.mode,
        channel: config.channel,
        deadline: config.deadline,
    }
}

fn encode_outcome(event: &PairEvent) -> [u8; 9] {
    let code = match event.decision {
        PairDecision::NonMatch => 0,
        PairDecision::Matched => 1,
        PairDecision::Abandoned(AbandonReason::RetryExhausted) => 2,
        PairDecision::Abandoned(AbandonReason::DeadlineExpired) => 3,
    };
    let mut payload = [0u8; 9];
    payload[..4].copy_from_slice(&event.ri.to_le_bytes());
    payload[4..8].copy_from_slice(&event.si.to_le_bytes());
    payload[8] = code;
    payload
}

/// Runs one staged, traced job of `spec` (in-process and journaled
/// workloads only).
pub fn staged_job(
    spec: &Spec,
    config: &LinkageConfig,
    r: &DataSet,
    s: &DataSet,
    scratch: &Path,
) -> Result<StagedOutput, String> {
    let threads = spec.threads();
    let journaled = spec.driver == Driver::Journaled;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut tracer = Tracer::new();
    let mut pair_us = Vec::new();

    let parts = tracer.span("core.job", |t| -> Result<_, String> {
        let rule = config.rule(r.schema());
        let mut writer = match journaled {
            true => Some(t.span("journal.create", |_| -> Result<_, String> {
                let opts = journal_options();
                let mut w = JournalWriter::create_with(
                    &scratch.join("staged.journal"),
                    0x5354_4147,
                    opts.durable,
                )
                .map_err(|e| err(&e))?;
                w.append(K_CONFIG, format!("{config:?}").as_bytes())
                    .map_err(|e| err(&e))?;
                Ok(w)
            })?),
            false => None,
        };

        let r_view = t
            .span("anon.anonymize_r", |_| {
                Anonymizer::new(config.method_r, config.k_r).anonymize(r, &config.qids)
            })
            .map_err(|e| err(&e))?;
        let s_view = t
            .span("anon.anonymize_s", |_| {
                Anonymizer::new(config.method_s, config.k_s).anonymize(s, &config.qids)
            })
            .map_err(|e| err(&e))?;

        let engine = BlockingEngine::new(rule.clone());
        let blocking = t.span("blocking.run", |t| -> Result<BlockingOutcome, String> {
            let Some(w) = writer.as_mut() else {
                return engine
                    .run_parallel(&r_view, &s_view, threads)
                    .map_err(|e| err(&e));
            };
            // The journaled driver scans in resumable chunks and records
            // each chunk's tallies.
            let per = journal_options().chunk_r_classes;
            let indexes: Vec<u32> = (0..engine.chunk_count(&r_view, per)).collect();
            let chunks = pprl_runtime::par_map(&indexes, threads, |_, &i| {
                engine.run_chunk(&r_view, &s_view, i, per)
            });
            let chunks: Vec<_> = chunks
                .into_iter()
                .collect::<Result<_, _>>()
                .map_err(|e| err(&e))?;
            t.span("journal.blocking_frames", |_| -> Result<(), String> {
                for chunk in &chunks {
                    let (m, n, u) = chunk.tallies();
                    let mut payload = Vec::with_capacity(28);
                    payload.extend_from_slice(&chunk.chunk_index.to_le_bytes());
                    for tally in [m, n, u] {
                        payload.extend_from_slice(&tally.to_le_bytes());
                    }
                    w.append(K_BLOCKING_CHUNK, &payload).map_err(|e| err(&e))?;
                }
                Ok(())
            })?;
            let outcome = engine
                .assemble(&r_view, &s_view, chunks)
                .map_err(|e| err(&e))?;
            let mut payload = Vec::with_capacity(40);
            for total in [
                outcome.total_pairs,
                outcome.matched_pairs,
                outcome.nonmatched_pairs,
                outcome.unknown_pairs,
                outcome.suppressed_pairs,
            ] {
                payload.extend_from_slice(&total.to_le_bytes());
            }
            w.append(K_BLOCKING_DONE, &payload).map_err(|e| err(&e))?;
            Ok(outcome)
        })?;

        let step = smc_step(config);
        let mut runner = t
            .span("smc.start", |_| {
                step.start(
                    r,
                    s,
                    &r_view,
                    &s_view,
                    &blocking.unknown,
                    &rule,
                    blocking.total_pairs,
                )
            })
            .map_err(|e| err(&e))?;

        t.span("smc.run", |t| match writer.as_mut() {
            None => walk_timed(&mut runner, &mut pair_us),
            Some(w) => walk_journaled(t, &mut runner, w, config, &blocking, threads, &mut pair_us),
        })?;
        let smc = t.span("smc.finish", |_| runner.finish());
        if let Some(w) = writer.as_mut() {
            t.span("journal.seal", |_| {
                w.append(K_DONE, &[]).and_then(|()| w.sync())
            })
            .map_err(|e| err(&e))?;
        }

        // What `HybridLinkage::run` still does after the SMC step:
        // leftover labelling (section V-B) and scoring against ground truth.
        t.span("core.label_leftovers", |_| {
            let schema = r.schema();
            let vghs: Vec<_> = config
                .qids
                .iter()
                .map(|&q| schema.attribute(q).vgh())
                .collect();
            let avg_ed = |pair: &pprl_blocking::ClassPairRef| -> f64 {
                let a = &r_view.classes()[pair.r_class as usize].sequence;
                let b = &s_view.classes()[pair.s_class as usize].sequence;
                let eds = expected_vector(&vghs, &rule.distances, a, b);
                eds.iter().sum::<f64>() / eds.len().max(1) as f64
            };
            let leftover: Vec<f64> = smc
                .leftovers
                .iter()
                .map(|l| avg_ed(&l.class_pair))
                .collect();
            let examined: Vec<f64> = smc.examined.iter().map(|e| avg_ed(&e.class_pair)).collect();
            std::hint::black_box(label_leftovers(
                config.strategy,
                &smc.leftovers,
                &leftover,
                &smc.examined,
                &examined,
            ));
        });
        t.span("core.ground_truth", |_| {
            std::hint::black_box(GroundTruth::compute(r, s, &config.qids, &rule));
            std::hint::black_box(score_smc_matches(config, &rule, r, s, &smc));
        });
        Ok((r_view, s_view, blocking, smc))
    });
    let (r_view, s_view, blocking, smc) = parts?;

    Ok(StagedOutput {
        pair_us,
        r_classes: r_view.classes().len(),
        s_classes: s_view.classes().len(),
        unknown_class_pairs: blocking.unknown.len(),
        blocking_efficiency: blocking.efficiency(),
        compared: smc.invocations,
        smc_matched: smc.matched_pairs.len() as u64,
        abandoned: smc.degradation.pairs_abandoned(),
        digest: digest_of(&r_view, &s_view, &blocking, &smc),
        tracer,
    })
}

/// The sequential pair walk, timed in chunks that start at one pair and
/// double while a chunk is shorter than [`MIN_CHUNK`].
fn walk_timed(runner: &mut SmcRunner<'_>, pair_us: &mut Vec<f64>) -> Result<(), String> {
    let mut chunk = 1u64;
    loop {
        let started = Instant::now();
        let done = runner.step_pairs(chunk).map_err(|e| e.to_string())?;
        let took = started.elapsed();
        if done == 0 {
            return Ok(());
        }
        pair_us.push(took.as_secs_f64() * 1e6 / done as f64);
        if took < MIN_CHUNK && chunk < 4096 {
            chunk *= 2;
        }
    }
}

/// The journaled driver's SMC loop: compare a batch (in parallel when the
/// session allows), append one outcome frame per pair, checkpoint and
/// fsync every `checkpoint_every` outcomes.
fn walk_journaled(
    t: &mut Tracer,
    runner: &mut SmcRunner<'_>,
    writer: &mut JournalWriter,
    config: &LinkageConfig,
    blocking: &BlockingOutcome,
    threads: usize,
    pair_us: &mut Vec<f64>,
) -> Result<(), String> {
    let every = journal_options().checkpoint_every;
    let threads = if runner.parallelizable() { threads } else { 1 };
    if threads > 1 {
        t.span("crypto.pool_prefill", |_| {
            // Sized as `HybridLinkage` sizes it: about two encryptions per
            // attribute per pair, capped at 4096 entries.
            let unknown: u64 = blocking.unknown.iter().map(|p| p.pairs).sum();
            let budget = config
                .allowance
                .budget_pairs(blocking.total_pairs)
                .min(unknown.saturating_add(blocking.suppressed_pairs));
            let per_pair = (config.qids.len() as u64 * 2).max(1);
            let count = budget.saturating_mul(per_pair).min(4096) as usize;
            let seed = match config.mode {
                pprl_smc::SmcMode::PaillierBatched { seed, .. } => seed,
                _ => 0,
            };
            runner.prefill_randomizers(count, threads, seed ^ 0x7261_6e64_706f_6f6c);
        });
    }
    let mut since_checkpoint = 0u64;
    loop {
        let started = Instant::now();
        let events = t
            .span("smc.compare_batch", |_| {
                runner.step_pair_events_parallel(every, threads)
            })
            .map_err(|e| e.to_string())?;
        if events.is_empty() {
            return Ok(());
        }
        pair_us.push(started.elapsed().as_secs_f64() * 1e6 / events.len() as f64);
        t.span("journal.commit_batch", |_| -> Result<(), String> {
            for event in &events {
                writer
                    .append(K_SMC_OUTCOME, &encode_outcome(event))
                    .map_err(|e| e.to_string())?;
                since_checkpoint += 1;
                if since_checkpoint >= every {
                    let session = runner.checkpoint();
                    writer
                        .append(K_SMC_CHECKPOINT, &pprl_smc::encode_session(&session))
                        .and_then(|()| writer.sync())
                        .map_err(|e| e.to_string())?;
                    since_checkpoint = 0;
                }
            }
            Ok(())
        })?;
    }
}

/// An approximate backend's SMC matches are scored against the rule, as
/// `HybridLinkage` does; exact backends are true positives by construction.
fn score_smc_matches(
    config: &LinkageConfig,
    rule: &MatchingRule,
    r: &DataSet,
    s: &DataSet,
    smc: &SmcReport,
) -> u64 {
    if config.mode.is_exact() {
        return smc.matched_pairs.len() as u64;
    }
    smc.matched_pairs
        .iter()
        .filter(|&&(ri, si)| {
            pprl_blocking::records_match(
                r.schema(),
                &config.qids,
                rule,
                &r.records()[ri as usize],
                &s.records()[si as usize],
            )
        })
        .count() as u64
}

/// The same digest `workloads::matched_digest` takes of a
/// `LinkageOutcome`, from the staged parts.
fn digest_of(
    r_view: &AnonymizedView,
    s_view: &AnonymizedView,
    blocking: &BlockingOutcome,
    smc: &SmcReport,
) -> u64 {
    let mut rows: Vec<(u32, u32)> = Vec::new();
    for pair in &blocking.matched {
        let rc = &r_view.classes()[pair.r_class as usize];
        let sc = &s_view.classes()[pair.s_class as usize];
        for &ri in &rc.rows {
            rows.extend(sc.rows.iter().map(|&si| (ri, si)));
        }
    }
    rows.extend(smc.matched_pairs.iter().copied());
    digest_rows(rows)
}
