//! Micro rows: one layer's primitive timed alone, through public functions,
//! inputs and results through `black_box`. They explain the end-to-end rows
//! (which layer's cost a job is made of); they are never gated.

use crate::stats::{median, percentile};
use pprl_bignum::{random_below, BigUint, Montgomery};
use pprl_crypto::protocol::pack::bob_record_message_packed;
use pprl_crypto::protocol::transport::Envelope;
use pprl_crypto::protocol::{alice_record_message, bob_record_message, querier_reveal_record};
use pprl_crypto::{CostLedger, Keypair, RandomizerPool};
use pprl_journal::JournalWriter;
use pprl_net::{encode_frame, FrameDecoder, FramedStream, NetStats};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Mean seconds per call of `f`, measured for at least `budget` after one
/// untimed call.
fn per_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / calls as f64;
        }
        if elapsed < budget / 10 {
            batch *= 2;
        }
    }
}

/// The rows measured so far, and the measuring time each gets.
struct Rows {
    budget: Duration,
    out: Vec<(&'static str, f64)>,
}

impl Rows {
    fn push(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Times `f` and records seconds per call times `scale` (1e6 for a
    /// row in microseconds).
    fn time(&mut self, name: &'static str, scale: f64, f: impl FnMut()) {
        let secs = per_call_s(self.budget, f);
        self.push(name, secs * scale);
    }
}

/// Every micro row as `(metric name, value in the catalogue's unit)`.
/// `budget` is the measuring time per row: 200 ms, less under `--smoke`.
pub fn run(budget: Duration, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let mut rows = Rows {
        budget,
        out: Vec::new(),
    };
    bloom_rows(&mut rows);
    crypto_rows(&mut rows)?;
    net_rows(&mut rows)?;
    journal_rows(scratch, &mut rows)?;
    let items: Vec<u64> = (0..1000).collect();
    let threads = crate::host::available_parallelism().min(4);
    rows.time("runtime.par_map_us", 1e6, || {
        black_box(pprl_runtime::par_map(
            black_box(&items),
            threads,
            |_, &x| x + 1,
        ));
    });
    Ok(rows.out)
}

fn bloom_rows(rows: &mut Rows) {
    let params = pprl_bloom::ClkParams::paper_defaults(crate::workloads::BACKEND_SEED);
    let (data, _) = pprl_core::SyntheticScenario::builder()
        .records_per_set(128)
        .seed(1)
        .build()
        .data_sets();
    let qids = [0usize, 1, 2, 3, 4];
    let records = data.records();
    let mut next = 0usize;
    rows.time("bloom.encode_us", 1e6, || {
        let fields = pprl_smc::clk_record_fields(&qids, black_box(&records[next % records.len()]));
        black_box(pprl_bloom::encode_fields(&params, &fields));
        next += 1;
    });

    let clks: Vec<_> = records
        .iter()
        .map(|rec| pprl_bloom::encode_fields(&params, &pprl_smc::clk_record_fields(&qids, rec)))
        .collect();
    let mut next = 0usize;
    rows.time("bloom.dice_ns", 1e9, || {
        let a = &clks[next % clks.len()];
        let b = &clks[(next * 7 + 1) % clks.len()];
        let counts = pprl_bloom::DiceCounts::of(black_box(a), black_box(b)).expect("same length");
        black_box(pprl_bloom::dice_match(&counts, params.threshold_millis));
        next += 1;
    });
}

fn crypto_rows(rows: &mut Rows) -> Result<(), String> {
    let err = |e: pprl_crypto::CryptoError| e.to_string();
    let mut rng = StdRng::seed_from_u64(0x006d_6963_726f);

    // Key generation is seconds per call: time whole calls, keep the last
    // key for every 1024-bit row below.
    let mut keygen = Vec::new();
    let started = Instant::now();
    let keys = loop {
        let t0 = Instant::now();
        let keys = Keypair::generate(&mut rng, 1024);
        keygen.push(t0.elapsed().as_secs_f64());
        if started.elapsed() >= rows.budget {
            break keys;
        }
    };
    rows.push("crypto.keygen_1024_s", median(&keygen));
    let (pk, sk) = (keys.public(), keys.private());

    // bignum, at the operand sizes Paillier gives it.
    let n2 = pk.n_squared();
    let mont = Montgomery::new(n2).map_err(|e| e.to_string())?;
    let (a, b) = (random_below(&mut rng, n2), random_below(&mut rng, n2));
    let (am, bm) = (mont.to_mont(&a), mont.to_mont(&b));
    rows.time("bignum.mont_mul_2048_ns", 1e9, || {
        black_box(mont.mont_mul(black_box(&am), black_box(&bm)));
    });
    rows.time("bignum.mod_pow_2048_us", 1e6, || {
        black_box(mont.pow(black_box(&a), black_box(pk.n())));
    });
    // The decrypt path: a constant-time ladder mod p^2 with exponent p-1.
    let p = pprl_bignum::prime::gen_prime(&mut rng, 512);
    let p2 = p.mul(&p);
    let mont_p2 = Montgomery::new(&p2).map_err(|e| e.to_string())?;
    let base = random_below(&mut rng, &p2);
    let exp = &p - &BigUint::one();
    rows.time("bignum.pow_ct_1024_us", 1e6, || {
        black_box(mont_p2.pow_ct(black_box(&base), black_box(&exp)));
    });

    // Paillier primitives at 1024 bits.
    let m = BigUint::from_u64(123_456_789);
    rows.time("crypto.encrypt_1024_us", 1e6, || {
        black_box(pk.encrypt(black_box(&m), &mut rng).expect("m < n"));
    });
    let c1 = pk.encrypt(&m, &mut rng).map_err(err)?;
    let c2 = pk.encrypt(&BigUint::from_u64(42), &mut rng).map_err(err)?;
    rows.time("crypto.decrypt_1024_us", 1e6, || {
        black_box(sk.decrypt(black_box(&c1)).expect("valid ciphertext"));
    });
    let scalar = rng.next_u64() >> 16;
    rows.time("crypto.mul_plain_1024_us", 1e6, || {
        black_box(pk.mul_plain_u64(black_box(&c1), black_box(scalar)));
    });
    rows.time("crypto.add_1024_us", 1e6, || {
        black_box(pk.add(black_box(&c1), black_box(&c2)));
    });

    // The randomizer pool: what filling 256 entries costs, and what an
    // encryption costs once its r^n is precomputed. 256 samples: a pooled
    // encryption consumes an entry.
    const POOL: usize = 256;
    let t0 = Instant::now();
    let pool = RandomizerPool::prefill(pk, POOL, 1, 7);
    rows.push("crypto.pool_prefill_s", t0.elapsed().as_secs_f64());
    let mut pooled = pk.clone();
    pooled.attach_pool(pool).map_err(err)?;
    let t0 = Instant::now();
    for _ in 0..POOL {
        black_box(pooled.encrypt(black_box(&m), &mut rng).expect("m < n"));
    }
    rows.push(
        "crypto.encrypt_pooled_1024_us",
        t0.elapsed().as_secs_f64() * 1e6 / POOL as f64,
    );

    // One record pair's three protocol roles, five attributes.
    let a_vals = [37u64, 4, 9, 2, 11];
    let b_vals = [39u64, 4, 9, 2, 11];
    let thresholds = [16u64, 0, 0, 0, 0];
    let mut ledger = CostLedger::new();
    rows.time("crypto.alice_msg_ms", 1e3, || {
        black_box(
            alice_record_message(pk, black_box(&a_vals), &mut rng, &mut ledger).expect("alice"),
        );
    });
    let alice_msg = alice_record_message(pk, &a_vals, &mut rng, &mut ledger).map_err(err)?;
    rows.time("crypto.bob_msg_ms", 1e3, || {
        black_box(
            bob_record_message(
                pk,
                black_box(&alice_msg),
                &b_vals,
                &thresholds,
                &mut rng,
                &mut ledger,
            )
            .expect("bob"),
        );
    });
    rows.time("crypto.bob_msg_packed_ms", 1e3, || {
        black_box(
            bob_record_message_packed(
                pk,
                black_box(&alice_msg),
                &b_vals,
                &thresholds,
                &mut rng,
                &mut ledger,
            )
            .expect("bob packed"),
        );
    });
    let bob_msg = bob_record_message(pk, &alice_msg, &b_vals, &thresholds, &mut rng, &mut ledger)
        .map_err(err)?;
    rows.time("crypto.querier_reveal_ms", 1e3, || {
        black_box(querier_reveal_record(sk, black_box(&bob_msg), &mut ledger).expect("reveal"));
    });

    // The 256-bit toy size of the journaled workload and the BENCH_pr* history.
    let small = Keypair::generate(&mut rng, 256);
    let (pk, sk) = (small.public(), small.private());
    let n2 = pk.n_squared();
    let mont = Montgomery::new(n2).map_err(|e| e.to_string())?;
    let (am, bm) = (
        mont.to_mont(&random_below(&mut rng, n2)),
        mont.to_mont(&random_below(&mut rng, n2)),
    );
    rows.time("bignum.mont_mul_512_ns", 1e9, || {
        black_box(mont.mont_mul(black_box(&am), black_box(&bm)));
    });
    rows.time("crypto.encrypt_256_us", 1e6, || {
        black_box(pk.encrypt(black_box(&m), &mut rng).expect("m < n"));
    });
    let c = pk.encrypt(&m, &mut rng).map_err(err)?;
    rows.time("crypto.decrypt_256_us", 1e6, || {
        black_box(sk.decrypt(black_box(&c)).expect("valid ciphertext"));
    });
    Ok(())
}

fn net_rows(rows: &mut Rows) -> Result<(), String> {
    let payload = vec![0xA5u8; 1024];
    let mut decoder = FrameDecoder::new();
    rows.time("net.frame_codec_ns", 1e9, || {
        let frame = encode_frame(pprl_net::frame::K_DATA, black_box(&payload));
        decoder.push(&frame);
        black_box(decoder.next_frame().expect("well-formed frame"));
    });

    // The coalescing path. No workload sends a batch frame: every party
    // pumps its window after each submission, so a flush on a clean link
    // carries one envelope (`net.batches_sent` is 0 at every window). A
    // 32-envelope burst of CLK-sized messages, encoded and decoded.
    let envelopes: Vec<Vec<u8>> = (1..=32)
        .map(|pair| Envelope::data(pair, pair, vec![0xA5u8; 128]).encode())
        .collect();
    let burst: Vec<&[u8]> = envelopes.iter().map(Vec::as_slice).collect();
    rows.time("net.batch_codec_ns", 1e9, || {
        let batch = pprl_net::encode_batch(black_box(&burst));
        black_box(pprl_net::decode_batch(&batch).expect("well-formed batch"));
    });

    // Loopback ping-pong over `FramedStream`: what one lockstep round trip
    // costs before any protocol work.
    let io = |e: std::io::Error| e.to_string();
    let net = |e: pprl_net::NetError| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let timeout = Some(Duration::from_secs(5));
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut stream = FramedStream::new(stream, timeout).map_err(|e| e.to_string())?;
        let mut stats = NetStats::default();
        // Echo until the client hangs up.
        while let Ok((kind, payload)) = stream.recv(&mut stats) {
            if stream.send(kind, &payload, &mut stats).is_err() {
                break;
            }
        }
        Ok(())
    });
    let mut client =
        FramedStream::new(TcpStream::connect(addr).map_err(io)?, timeout).map_err(net)?;
    let mut stats = NetStats::default();
    let ping = [0u8; 64];
    let mut rtt_us = Vec::new();
    let started = Instant::now();
    while rtt_us.len() < 2000 || started.elapsed() < rows.budget {
        let t0 = Instant::now();
        client
            .send(pprl_net::frame::K_DATA, &ping, &mut stats)
            .map_err(net)?;
        black_box(client.recv(&mut stats).map_err(net)?);
        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())??;
    // The first tenth warms the socket buffers and the scheduler.
    let steady = &rtt_us[rtt_us.len() / 10..];
    rows.push("net.rtt_us_p50", median(steady));
    rows.push("net.rtt_us_p99", percentile(steady, 99.0));
    Ok(())
}

fn journal_rows(scratch: &Path, rows: &mut Rows) -> Result<(), String> {
    let err = |e: pprl_journal::JournalError| e.to_string();
    let path = scratch.join("micro.journal");
    let mut writer = JournalWriter::create_with(&path, 0x6d63_726f, true).map_err(err)?;
    let outcome = [7u8; 9];
    rows.time("journal.append_us", 1e6, || {
        writer
            .append(pprl_core::journal_run::K_SMC_OUTCOME, black_box(&outcome))
            .expect("append");
    });

    // A checkpoint's fsync, each preceded by a frame so there is data to
    // flush.
    let mut sync_us = Vec::new();
    let started = Instant::now();
    while sync_us.len() < 20 || started.elapsed() < rows.budget {
        writer
            .append(pprl_core::journal_run::K_SMC_OUTCOME, &outcome)
            .map_err(err)?;
        let t0 = Instant::now();
        writer.sync().map_err(err)?;
        sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    rows.push("journal.sync_us_p50", median(&sync_us));
    drop(writer);

    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let secs = per_call_s(rows.budget, || {
        black_box(pprl_journal::recover(black_box(&path)).expect("recover"));
    });
    rows.push(
        "journal.recover_mb_per_s",
        bytes as f64 / (1024.0 * 1024.0) / secs,
    );
    Ok(())
}
