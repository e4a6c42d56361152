//! Reconnect-with-resume through a real severed socket: a `PeerChannel`
//! pair talks through an in-process [`ChaosProxy`], the link is partitioned
//! mid-stream, healed, and the session must finish with ledger parity —
//! every pair acked exactly once on-ledger, retransmits and reconnects
//! visible only in the off-ledger `NetStats`.

use pprl_crypto::protocol::RetryPolicy;
use pprl_crypto::CostLedger;
use pprl_net::{Backend, ChaosConfig, ChaosProxy, Hello, PeerChannel, ReconnectPolicy, Role, SessionMux};
use std::sync::Arc;
use std::time::Duration;

const FP: u64 = 4242;
const PAIRS: u64 = 12;

fn policy() -> ReconnectPolicy {
    ReconnectPolicy {
        retry: RetryPolicy {
            base_delay_ms: 5,
            max_delay_ms: 50,
            ..RetryPolicy::default()
        },
        deadline: Duration::from_secs(20),
    }
}

#[test]
fn partition_mid_stream_heals_with_ledger_parity() {
    let timeout = Some(Duration::from_millis(150));
    let mux = Arc::new(SessionMux::bind("127.0.0.1:0", timeout).unwrap());
    let proxy =
        Arc::new(ChaosProxy::start("127.0.0.1:0", mux.local_addr(), ChaosConfig::clean(11)).unwrap());
    let chaos_addr = proxy.local_addr();

    let mux2 = Arc::clone(&mux);
    let receiver = std::thread::spawn(move || {
        let mut bob = PeerChannel::accept_lazy(
            mux2,
            Hello::new(Role::Bob, Backend::Paillier, FP),
            Role::Alice,
            timeout,
            policy(),
        );
        bob.ensure_connected().unwrap();
        let mut ledger = CostLedger::new();
        let mut payloads = Vec::new();
        for _ in 0..PAIRS {
            // recv_data rides out the partition internally: the severed
            // connection surfaces as a reconnect via the mux, not an error.
            let incoming = bob.recv_data().unwrap();
            payloads.push((incoming.pair_id, incoming.payload.clone()));
            bob.ack_on_ledger(&incoming, &mut ledger);
        }
        let remote = bob.recv_ledger().unwrap();
        (bob, ledger, payloads, remote)
    });

    let mut alice = PeerChannel::connect(
        chaos_addr,
        Hello::new(Role::Alice, Backend::Paillier, FP),
        Role::Bob,
        timeout,
        policy(),
    )
    .unwrap();

    for pair_id in 1..=PAIRS {
        if pair_id == PAIRS / 2 {
            // Go dark mid-session; heal from a timer so the sender's
            // retry loop (not test choreography) finds the healed link.
            proxy.set_partition(true);
            let heal = Arc::clone(&proxy);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(400));
                heal.set_partition(false);
            });
        }
        alice
            .send_data(pair_id, &[pair_id as u8; 48])
            .unwrap_or_else(|e| panic!("pair {pair_id} never delivered: {e}"));
    }
    let mut sent = CostLedger::new();
    sent.encryptions = 7;
    sent.record_message(256);
    alice.send_ledger(&sent).unwrap();

    let (bob, ledger, payloads, remote) = receiver.join().unwrap();

    // Every pair arrived, in order, byte-exact, and was ledgered once.
    let expect: Vec<(u64, Vec<u8>)> = (1..=PAIRS).map(|id| (id, vec![id as u8; 48])).collect();
    assert_eq!(payloads, expect);
    assert_eq!(ledger.messages, PAIRS, "each ack hit the ledger exactly once");
    assert_eq!(bob.watermark(), PAIRS);
    assert_eq!(remote, sent, "the cost summary crossed the healed link intact");

    // The fault was real and it stayed off the ledger.
    assert!(
        alice.stats.reconnects >= 1,
        "the partition forced at least one reconnect (stats: {})",
        alice.stats
    );
    assert!(proxy.stats().partitions >= 1, "the proxy severed the link");
}
