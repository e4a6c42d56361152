//! Crash-safe linkage runs on top of the durable run journal.
//!
//! [`run_journaled`] executes the same protocol as [`HybridLinkage::run`]
//! while recording its progress — config fingerprint, per-chunk blocking
//! tallies, every per-pair SMC outcome, periodic [`SmcSession`]
//! checkpoints — as checksummed frames in a `pprl-journal` file.
//! [`resume`] rebuilds a killed run from that file: the cheap,
//! deterministic phases (anonymization, blocking) are recomputed and
//! *verified* against the journaled tallies (catching input drift), the
//! expensive SMC phase is restored from the latest checkpoint and replayed
//! from the outcome frames — no completed comparison is ever re-executed —
//! and execution continues live from the exact pair the crash interrupted.
//!
//! Durability contract (see `DESIGN.md` §"Failure model"): each outcome is
//! appended with a single flushed `write(2)`, so a SIGKILL at any byte
//! offset loses at most the one frame that was mid-write; torn tails are
//! detected by checksum and truncated on resume. A resumed run therefore
//! re-executes at most one comparison, and its final match set and metrics
//! are identical to an uninterrupted run (asserted by the kill-recovery
//! harness in `crates/cli/tests/crash_recovery.rs`).

use crate::pipeline::Prepared;
use crate::{HybridLinkage, LinkageError, LinkageOutcome};
use pprl_blocking::{BlockingChunk, BlockingEngine};
use pprl_data::{DataSet, Value};
use pprl_journal::{Fnv1a64, Frame, JournalWriter};
use pprl_smc::{AbandonReason, PairDecision, PairEvent, SmcSession};
use std::path::Path;

/// Frame kind: informational config snapshot (`Debug` text of the
/// [`crate::LinkageConfig`]); the binding check is the header fingerprint.
pub const K_CONFIG: u8 = 1;
/// Frame kind: one blocking chunk's `(index, M, N, U)` record-pair tallies.
pub const K_BLOCKING_CHUNK: u8 = 2;
/// Frame kind: blocking-phase totals (total/M/N/U/suppressed pairs).
pub const K_BLOCKING_DONE: u8 = 3;
/// Frame kind: one per-pair SMC outcome (`ri`, `si`, decision code).
pub const K_SMC_OUTCOME: u8 = 4;
/// Frame kind: a serialized [`SmcSession`] checkpoint
/// (`pprl_smc::codec` binary payload).
pub const K_SMC_CHECKPOINT: u8 = 5;
/// Frame kind: the run completed; the journal is a full transcript.
pub const K_DONE: u8 = 6;

/// Tuning knobs for a journaled run.
#[derive(Clone, Copy, Debug)]
pub struct JournalOptions {
    /// Append a session checkpoint every this many SMC outcomes
    /// (`0` = only the implicit recovery-by-replay, no checkpoints).
    pub checkpoint_every: u64,
    /// Artificial delay per live SMC outcome, in milliseconds. Test-only
    /// knob: it widens the window the kill-recovery harness shoots at.
    pub pace_ms: u64,
    /// R classes per blocking chunk (fingerprinted: a journal written
    /// with one chunk width cannot be resumed with another).
    pub chunk_r_classes: usize,
    /// Fsync the journal on creation (file + parent directory) and at
    /// every checkpoint frame, surviving machine crashes, not just
    /// process kills. `false` keeps kill-only tests and benchmarks fast.
    /// Not fingerprinted: durability is a deployment choice, not a
    /// protocol one.
    pub durable: bool,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            checkpoint_every: 64,
            pace_ms: 0,
            chunk_r_classes: 8,
            durable: true,
        }
    }
}

/// A [`LinkageOutcome`] plus the journal's account of how it was reached.
#[derive(Debug)]
pub struct JournaledOutcome {
    /// The linkage result — identical to what [`HybridLinkage::run`]
    /// produces for the same inputs, crash or no crash.
    pub outcome: LinkageOutcome,
    /// Whether this run resumed an existing journal.
    pub resumed: bool,
    /// Comparisons restored wholesale from the latest checkpoint.
    pub restored_pairs: u64,
    /// Comparisons re-applied from outcome frames (no crypto re-executed).
    pub replayed_pairs: u64,
    /// Comparisons actually performed by this process.
    pub live_pairs: u64,
}

/// Runs the pipeline from scratch, journaling progress to `path`
/// (truncating any file already there).
pub fn run_journaled(
    pipeline: &HybridLinkage,
    r: &DataSet,
    s: &DataSet,
    path: &Path,
    opts: &JournalOptions,
) -> Result<JournaledOutcome, LinkageError> {
    let fp = fingerprint(pipeline, r, s, opts);
    let mut writer = JournalWriter::create_with(path, fp, opts.durable)?;
    let cfg_text = format!("{:?}", pipeline.config());
    writer.append(K_CONFIG, cfg_text.as_bytes())?;
    execute(pipeline, r, s, writer, &[], false, opts)
}

/// Resumes a journaled run from `path`: verifies the fingerprint, truncates
/// a torn tail, skips completed work, and finishes the job.
pub fn resume(
    pipeline: &HybridLinkage,
    r: &DataSet,
    s: &DataSet,
    path: &Path,
    opts: &JournalOptions,
) -> Result<JournaledOutcome, LinkageError> {
    let fp = fingerprint(pipeline, r, s, opts);
    let (recovered, writer) = JournalWriter::resume_with(path, fp, opts.durable)?;
    execute(pipeline, r, s, writer, &recovered.frames, true, opts)
}

/// Journal frames parsed into phase-level progress.
struct Progress {
    /// `chunk_index → (M, N, U)` tallies already journaled.
    chunk_tallies: Vec<Option<(u64, u64, u64)>>,
    /// Journaled blocking totals, if the phase completed.
    blocking_done: Option<[u64; 5]>,
    /// Every journaled per-pair outcome, in append order.
    outcomes: Vec<PairEvent>,
    /// The latest session checkpoint.
    checkpoint: Option<SmcSession>,
    /// Whether the journal records a completed run.
    done: bool,
}

fn parse_progress(frames: &[Frame], n_chunks: u32) -> Result<Progress, LinkageError> {
    let mut progress = Progress {
        chunk_tallies: vec![None; n_chunks as usize],
        blocking_done: None,
        outcomes: Vec::new(),
        checkpoint: None,
        done: false,
    };
    for frame in frames {
        match frame.kind {
            K_CONFIG => {}
            K_BLOCKING_CHUNK => {
                let p = &frame.payload;
                if p.len() != 28 {
                    return Err(LinkageError::Journal(format!(
                        "blocking-chunk frame has {} bytes, expected 28",
                        p.len()
                    )));
                }
                let index = u32::from_le_bytes(p[0..4].try_into().unwrap());
                let tallies = (
                    u64::from_le_bytes(p[4..12].try_into().unwrap()),
                    u64::from_le_bytes(p[12..20].try_into().unwrap()),
                    u64::from_le_bytes(p[20..28].try_into().unwrap()),
                );
                match progress.chunk_tallies.get_mut(index as usize) {
                    Some(slot) => *slot = Some(tallies),
                    None => {
                        return Err(LinkageError::Journal(format!(
                            "journaled blocking chunk {index} out of range ({n_chunks} chunks)"
                        )))
                    }
                }
            }
            K_BLOCKING_DONE => {
                let p = &frame.payload;
                if p.len() != 40 {
                    return Err(LinkageError::Journal(format!(
                        "blocking-done frame has {} bytes, expected 40",
                        p.len()
                    )));
                }
                let mut totals = [0u64; 5];
                for (i, t) in totals.iter_mut().enumerate() {
                    *t = u64::from_le_bytes(p[i * 8..i * 8 + 8].try_into().unwrap());
                }
                progress.blocking_done = Some(totals);
            }
            K_SMC_OUTCOME => progress.outcomes.push(decode_outcome(&frame.payload)?),
            K_SMC_CHECKPOINT => {
                let session: SmcSession = pprl_smc::decode_session(&frame.payload)
                    .map_err(|e| LinkageError::Journal(format!("bad checkpoint frame: {e}")))?;
                progress.checkpoint = Some(session);
            }
            K_DONE => progress.done = true,
            other => {
                return Err(LinkageError::Journal(format!(
                    "unknown frame kind {other} (journal written by a newer version?)"
                )))
            }
        }
    }
    Ok(progress)
}

fn execute(
    pipeline: &HybridLinkage,
    r: &DataSet,
    s: &DataSet,
    mut writer: JournalWriter,
    prior: &[Frame],
    resumed: bool,
    opts: &JournalOptions,
) -> Result<JournaledOutcome, LinkageError> {
    // Steps 1–2 are cheap and deterministic: recompute rather than store,
    // and use the journaled tallies purely as a drift check.
    let prepared = Prepared::new(pipeline.config(), r, s)?;
    let (r_view, s_view) = (&prepared.r_view, &prepared.s_view);

    let engine = BlockingEngine::new(prepared.rule.clone());
    let per = opts.chunk_r_classes.max(1);
    let n_chunks = engine.chunk_count(r_view, per);
    let progress = parse_progress(prior, n_chunks)?;

    // Chunks are computed across the configured workers but verified and
    // journaled in index order, so the frame sequence is byte-identical
    // to a sequential run.
    let indexes: Vec<u32> = (0..n_chunks).collect();
    let computed = pprl_runtime::par_map(&indexes, pipeline.threads(), |_, &index| {
        engine.run_chunk(r_view, s_view, index, per)
    });
    let mut chunks: Vec<BlockingChunk> = Vec::with_capacity(n_chunks as usize);
    for (index, result) in (0..n_chunks).zip(computed) {
        let chunk = result?;
        match progress.chunk_tallies[index as usize] {
            Some(journaled) if journaled != chunk.tallies() => {
                return Err(LinkageError::Journal(format!(
                    "blocking chunk {index} tallies {:?} disagree with journaled {:?}: \
                     the inputs changed since the journal was written",
                    chunk.tallies(),
                    journaled
                )));
            }
            Some(_) => {}
            None => writer.append(K_BLOCKING_CHUNK, &encode_chunk(&chunk))?,
        }
        chunks.push(chunk);
    }
    let blocking = engine.assemble(r_view, s_view, chunks)?;
    let totals = [
        blocking.total_pairs,
        blocking.matched_pairs,
        blocking.nonmatched_pairs,
        blocking.unknown_pairs,
        blocking.suppressed_pairs,
    ];
    match progress.blocking_done {
        Some(journaled) if journaled != totals => {
            return Err(LinkageError::Journal(format!(
                "blocking totals {totals:?} disagree with journaled {journaled:?}"
            )));
        }
        Some(_) => {}
        None => {
            let mut payload = Vec::with_capacity(40);
            for t in totals {
                payload.extend_from_slice(&t.to_le_bytes());
            }
            writer.append(K_BLOCKING_DONE, &payload)?;
        }
    }

    // Step 3 — SMC, restored from the newest checkpoint, replayed from the
    // outcome frames past it, then continued live.
    let restored = progress.checkpoint.as_ref().map_or(0, |c| c.invocations);
    let mut runner = prepared.start(pipeline.smc_step(), &blocking, None, progress.checkpoint)?;
    for event in progress.outcomes.iter().skip(restored as usize) {
        runner.replay_pair_event(event)?;
    }
    let replayed = runner.replayed_pairs();

    let mut live = 0u64;
    let mut since_checkpoint = 0u64;
    let threads = pipeline.threads();
    // One pair at a time journals each outcome as it is decided: a crash
    // re-executes at most one comparison. On several workers the batch is
    // the checkpoint cadence instead: each batch's checkpoint then lands
    // after exactly the same outcome count as the sequential walk's,
    // keeping the journal byte-identical at any thread count — and a
    // crash re-executes at most one *batch*.
    let mut batch = 1;
    if threads > 1 && runner.parallelizable() {
        pipeline.prefill_pool(&mut runner, &blocking);
        batch = match opts.checkpoint_every {
            0 => 256,
            every => every,
        };
    }
    loop {
        let events = runner.step_pair_events_parallel(batch, threads)?;
        if events.is_empty() {
            break;
        }
        for event in &events {
            journal_outcome(
                &mut writer,
                &mut runner,
                event,
                opts,
                &mut live,
                &mut since_checkpoint,
            )?;
        }
    }
    let smc = runner.finish();
    if !progress.done {
        writer.append(K_DONE, &[])?;
    }
    writer.sync()?;

    Ok(JournaledOutcome {
        outcome: pipeline.finalize(prepared, blocking, smc),
        resumed,
        restored_pairs: restored,
        replayed_pairs: replayed,
        live_pairs: live,
    })
}

/// Appends one SMC outcome frame plus its periodic checkpoint and test
/// pacing — the shared per-event tail of the sequential and batched
/// journaling loops.
fn journal_outcome(
    writer: &mut JournalWriter,
    runner: &mut pprl_smc::SmcRunner<'_>,
    event: &PairEvent,
    opts: &JournalOptions,
    live: &mut u64,
    since_checkpoint: &mut u64,
) -> Result<(), LinkageError> {
    writer.append(K_SMC_OUTCOME, &encode_outcome(event))?;
    *live += 1;
    *since_checkpoint += 1;
    if opts.checkpoint_every > 0 && *since_checkpoint >= opts.checkpoint_every {
        let session = runner.checkpoint();
        writer.append(K_SMC_CHECKPOINT, &pprl_smc::encode_session(&session))?;
        // A checkpoint that is not on stable storage is not a checkpoint.
        writer.sync()?;
        *since_checkpoint = 0;
    }
    if opts.pace_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(opts.pace_ms));
    }
    Ok(())
}

fn encode_chunk(chunk: &BlockingChunk) -> Vec<u8> {
    let (m, n, u) = chunk.tallies();
    let mut payload = Vec::with_capacity(28);
    payload.extend_from_slice(&chunk.chunk_index.to_le_bytes());
    payload.extend_from_slice(&m.to_le_bytes());
    payload.extend_from_slice(&n.to_le_bytes());
    payload.extend_from_slice(&u.to_le_bytes());
    payload
}

/// Encodes one pair outcome (shared with the party journals).
pub(crate) fn encode_outcome(event: &PairEvent) -> Vec<u8> {
    let code: u8 = match event.decision {
        PairDecision::NonMatch => 0,
        PairDecision::Matched => 1,
        PairDecision::Abandoned(AbandonReason::RetryExhausted) => 2,
        PairDecision::Abandoned(AbandonReason::DeadlineExpired) => 3,
    };
    let mut payload = Vec::with_capacity(9);
    payload.extend_from_slice(&event.ri.to_le_bytes());
    payload.extend_from_slice(&event.si.to_le_bytes());
    payload.push(code);
    payload
}

/// Decodes one pair outcome (shared with the party journals).
pub(crate) fn decode_outcome(payload: &[u8]) -> Result<PairEvent, LinkageError> {
    if payload.len() != 9 {
        return Err(LinkageError::Journal(format!(
            "outcome frame has {} bytes, expected 9",
            payload.len()
        )));
    }
    let decision = match payload[8] {
        0 => PairDecision::NonMatch,
        1 => PairDecision::Matched,
        2 => PairDecision::Abandoned(AbandonReason::RetryExhausted),
        3 => PairDecision::Abandoned(AbandonReason::DeadlineExpired),
        code => {
            return Err(LinkageError::Journal(format!(
                "outcome frame has unknown decision code {code}"
            )))
        }
    };
    Ok(PairEvent {
        ri: u32::from_le_bytes(payload[0..4].try_into().unwrap()),
        si: u32::from_le_bytes(payload[4..8].try_into().unwrap()),
        decision,
    })
}

/// Job fingerprint: configuration (via its `Debug` form — stable within a
/// build, which is the resumption boundary that matters), the chunk plan
/// width, and the full content of both datasets. A journal resumes only
/// against the byte-identical job that wrote it. Networked parties
/// exchange the same fingerprint in their handshake (`party_run`), so a
/// shared-scenario deployment fails fast if one party's inputs drifted.
pub(crate) fn fingerprint(
    pipeline: &HybridLinkage,
    r: &DataSet,
    s: &DataSet,
    opts: &JournalOptions,
) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(format!("{:?}", pipeline.config()).as_bytes());
    h.update_u64(opts.chunk_r_classes.max(1) as u64);
    for data in [r, s] {
        h.update(data.name().as_bytes());
        h.update_u64(data.len() as u64);
        for record in data.records() {
            h.update_u64(record.id());
            h.update_u64(record.class() as u64);
            for value in record.values() {
                match value {
                    Value::Cat(p) => {
                        h.update_u64(0);
                        h.update_u64(*p as u64);
                    }
                    Value::Num(x) => {
                        h.update_u64(1);
                        h.update_u64(x.to_bits());
                    }
                }
            }
        }
    }
    h.finish()
}
