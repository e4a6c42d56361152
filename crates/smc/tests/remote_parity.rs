//! Drives the `Remote` placement of the data holders without a socket.
//!
//! `RemoteParty` is the querying party's only view of a networked
//! session, and outside this file it is implemented once, over TCP
//! (`pprl_core::party_run`). Here the two holders are two
//! [`HolderBackend`]s behind that same hook — exactly what the two holder
//! processes run — replicating the pair walk on a second runner. For each
//! wire protocol the remote session must label every pair as the
//! in-process session does (and, for the exact backends, as the Oracle
//! does), and the three parties' ledgers must sum to the in-process
//! ledger that meters the deployment.

use pprl_anon::{AnonymizationMethod, AnonymizedView, Anonymizer, KAnonymityRequirement};
use pprl_blocking::{BlockingEngine, ClassPairRef, MatchingRule};
use pprl_crypto::protocol::transport::ENVELOPE_OVERHEAD;
use pprl_crypto::CostLedger;
use pprl_data::synth::{generate, SynthConfig};
use pprl_data::DataSet;
use pprl_smc::holder::key_from_message;
use pprl_smc::{
    ChannelConfig, DeadlineBudget, HolderBackend, HolderSide, LabelingStrategy, RemoteParty,
    SelectionHeuristic, SmcAllowance, SmcError, SmcMode, SmcReport, SmcRunner, SmcStep,
};
use std::sync::{Arc, Mutex};

const QIDS: [usize; 5] = [0, 1, 2, 3, 4];

struct Fixture {
    a: DataSet,
    b: DataSet,
    va: AnonymizedView,
    vb: AnonymizedView,
    unknown: Vec<ClassPairRef>,
    rule: MatchingRule,
    total: u64,
}

impl Fixture {
    fn new(n: usize) -> Fixture {
        let a = generate(&SynthConfig {
            records: n,
            seed: 71,
        });
        // The same draw on both sides: every record has its twin, so the
        // closest class pairs — the ones the budget reaches — hold matches.
        let b = generate(&SynthConfig {
            records: n,
            seed: 71,
        });
        let anon = Anonymizer::new(AnonymizationMethod::MaxEntropy, KAnonymityRequirement(8));
        let va = anon.anonymize(&a, &QIDS).unwrap();
        let vb = anon.anonymize(&b, &QIDS).unwrap();
        let rule = MatchingRule::uniform(a.schema(), &QIDS, 0.05);
        let out = BlockingEngine::new(rule.clone()).run(&va, &vb).unwrap();
        Fixture {
            total: out.total_pairs,
            unknown: out.unknown,
            a,
            b,
            va,
            vb,
            rule,
        }
    }

    fn start(&self, step: &SmcStep) -> SmcRunner<'_> {
        let Fixture { a, b, va, vb, .. } = self;
        step.start(a, b, va, vb, &self.unknown, &self.rule, self.total)
            .unwrap_or_else(|e| panic!("session start: {e}"))
    }
}

/// Alice and Bob as the holder processes run them, minus the sockets:
/// one walk, both holders, and the ledger the two would ship home.
struct FakeHolders {
    mode: SmcMode,
    walk: SmcRunner<'static>,
    /// Opened by the key broadcast (Paillier) or up front (CLK).
    holders: Option<(HolderBackend, HolderBackend)>,
    shipped: Arc<Mutex<CostLedger>>,
    next_pair_id: u64,
}

impl RemoteParty for FakeHolders {
    fn broadcast_key(
        &mut self,
        key_message: &[u8],
        ledger: &mut CostLedger,
    ) -> Result<(), SmcError> {
        let mut shipped = self.shipped.lock().unwrap();
        let mode = self.mode;
        let mut open = |side| {
            ledger.record_message(key_message.len()); // the querier's send
            shipped.record_message(ENVELOPE_OVERHEAD); // the holder's ack
            HolderBackend::open(mode, side, || key_from_message(key_message))
        };
        self.holders = Some((open(HolderSide::Alice)?, open(HolderSide::Bob)?));
        Ok(())
    }

    fn bob_message(
        &mut self,
        pair_id: u64,
        ledger: &mut CostLedger,
    ) -> Result<Option<Vec<u8>>, SmcError> {
        self.next_pair_id += 1;
        assert_eq!(
            pair_id, self.next_pair_id,
            "pair ids count non-trivial pairs"
        );
        let (alice, bob) = self
            .holders
            .as_mut()
            .ok_or(SmcError::Internal("a pair before the key broadcast"))?;
        let pair = alice
            .next(&mut self.walk)?
            .ok_or(SmcError::Internal("the holders' walk ended first"))?;
        let ctx = self.walk.compare_ctx();
        let mut shipped = self.shipped.lock().unwrap();
        let from_alice = alice.message(&ctx, &pair, None, &mut shipped)?;
        let from_bob = bob.message(&ctx, &pair, Some(&from_alice), &mut shipped)?;
        shipped.record_message(ENVELOPE_OVERHEAD); // Bob's ack of Alice's message
        ledger.record_message(ENVELOPE_OVERHEAD); // the querier's ack of Bob's
        Ok(Some(from_bob))
    }
}

fn run_remote(f: &'static Fixture, step: &SmcStep) -> SmcReport {
    let shipped = Arc::new(Mutex::new(CostLedger::new()));
    let no_key = || Err(SmcError::Internal("the CLK exchange has no key"));
    let holders = matches!(step.mode, SmcMode::Bloom { .. }).then(|| {
        (
            HolderBackend::open(step.mode, HolderSide::Alice, no_key).unwrap(),
            HolderBackend::open(step.mode, HolderSide::Bob, no_key).unwrap(),
        )
    });
    // The walk is mode-independent; the oracle spares a second keygen.
    let walk = f.start(&SmcStep {
        mode: SmcMode::Oracle,
        ..*step
    });
    let mut runner = f.start(step);
    runner
        .connect_remote(Box::new(FakeHolders {
            mode: step.mode,
            walk,
            holders,
            shipped: Arc::clone(&shipped),
            next_pair_id: 0,
        }))
        .unwrap_or_else(|e| panic!("connect: {e}"));
    assert!(
        !runner.parallelizable(),
        "a remote session is one conversation"
    );
    runner
        .run_to_completion_parallel(1)
        .unwrap_or_else(|e| panic!("remote run: {e}"));
    runner.absorb_remote_costs(&shipped.lock().unwrap());
    runner.finish()
}

#[test]
fn remote_holders_label_and_meter_like_the_in_process_session() {
    let f: &'static Fixture = Box::leak(Box::new(Fixture::new(80)));
    let step = |mode, channel| SmcStep {
        heuristic: SelectionHeuristic::MinAvgFirst,
        allowance: SmcAllowance::Pairs(30),
        strategy: LabelingStrategy::MaximizePrecision,
        mode,
        channel,
        deadline: DeadlineBudget::None,
    };
    let here = |mode, channel| {
        let mut runner = f.start(&step(mode, channel));
        runner.run_to_completion_parallel(1).unwrap();
        runner.finish()
    };
    let oracle = here(SmcMode::Oracle, None);
    assert!(!oracle.matched_pairs.is_empty(), "the fixture has matches");

    for pack in [false, true] {
        let mode = SmcMode::PaillierBatched {
            modulus_bits: 256,
            seed: 5,
            pack,
        };
        let remote = run_remote(f, &step(mode, None));
        let unlinked = here(mode, None);
        let linked = here(mode, Some(ChannelConfig::reliable()));
        assert_eq!(remote.matched_pairs, oracle.matched_pairs, "pack={pack}");
        assert_eq!(unlinked.matched_pairs, oracle.matched_pairs, "pack={pack}");
        assert_eq!(remote.invocations, oracle.invocations);
        // Two messages a pair, handed over; the link adds the key
        // broadcast and every ack, which is what three processes record.
        assert_eq!(unlinked.ledger.messages, 2 * unlinked.invocations);
        assert_eq!(linked.ledger.messages, 2 * unlinked.ledger.messages + 4);
        assert_eq!(remote.ledger, linked.ledger, "pack={pack}");
    }

    let params = pprl_bloom::ClkParams::paper_defaults(7);
    let mode = SmcMode::Bloom { params };
    let (remote, local) = (run_remote(f, &step(mode, None)), here(mode, None));
    assert_eq!(remote.matched_pairs, local.matched_pairs);
    assert_eq!(remote.ledger, local.ledger);
    assert_eq!(
        remote.comparator, local.comparator,
        "bits and flips tally alike"
    );
}
