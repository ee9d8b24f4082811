//! End-to-end tests of the network serving layer: the prepared-statement
//! handshake, pinned-epoch answers, batch applies, error paths, the
//! connection scheduler under more connections than workers, readers
//! racing a writer on the wire, and graceful shutdown with a ledger flush.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use nyaya::serve::{serve, Client, ClientError, Server, ServerConfig};
use nyaya::{KbBackend, KnowledgeBase};

const ONTOLOGY: &str = "
    t1: manager(X) -> employee(X).
    t2: employee(X) -> person(X).
    manager(ada).
    employee(grace).
";

/// Serve `kb` on an ephemeral port with `workers` scheduler threads.
fn spawn(kb: impl Into<Arc<KnowledgeBase>>, workers: usize) -> (Server, String) {
    let backend = Arc::new(KbBackend::new(kb.into()));
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", backend, config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn shut_down(server: Server) {
    server.handle().shutdown();
    server.join();
}

#[test]
fn prepared_handshake_answers_applies_and_time_travels() {
    let kb = KnowledgeBase::from_program_text(ONTOLOGY).unwrap();
    let (server, addr) = spawn(kb, 2);
    let mut client = Client::connect(&addr).expect("connect");

    client.ping().expect("ping");

    // Compile once server-side; the handle survives any number of writes.
    let handle = client.prepare("q(A) :- person(A).").expect("prepare");
    let at_zero = client.answer(handle, None).expect("answer");
    assert_eq!(at_zero.epoch, 0);
    assert!(at_zero.complete);
    assert_eq!(
        at_zero.tuples,
        vec![vec!["ada".to_owned()], vec!["grace".to_owned()]]
    );

    // A write batch publishes a new epoch; the same handle sees it.
    let applied = client
        .apply(&[], &["manager(kurt)".to_owned()])
        .expect("apply");
    assert_eq!(applied.epoch, 1);
    assert_eq!(applied.inserted, 1);
    let at_one = client.answer(handle, None).expect("answer after apply");
    assert_eq!(at_one.epoch, 1);
    assert_eq!(at_one.tuples.len(), 3);

    // Time travel: the published epoch is reachable without a ledger…
    let pinned = client.answer(handle, Some(1)).expect("answer at 1");
    assert_eq!(pinned.tuples, at_one.tuples);
    // …and the one-shot path agrees with the prepared path.
    let one_shot = client
        .query("q(A) :- person(A).", None)
        .expect("one-shot query");
    assert_eq!(one_shot.tuples, at_one.tuples);

    let explain = client.explain(handle).expect("explain");
    assert!(explain.contains("strategy:"), "{explain}");

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"net_requests\":"), "{stats}");
    assert!(stats.contains("\"cache_answer_hits\":"), "{stats}");

    shut_down(server);
}

#[test]
fn errors_come_back_as_messages_and_the_connection_survives() {
    let kb = KnowledgeBase::from_program_text(ONTOLOGY).unwrap();
    let (server, addr) = spawn(kb, 1);
    let mut client = Client::connect(&addr).expect("connect");

    match client.query("this is not datalog", None) {
        Err(ClientError::Server(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.answer(999, None) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("999"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // The failed requests did not wedge the connection.
    client.ping().expect("ping after errors");
    let ok = client.query("q(A) :- person(A).", None).expect("query");
    assert_eq!(ok.tuples.len(), 2);

    shut_down(server);
}

#[test]
fn few_workers_schedule_many_concurrent_connections() {
    let kb = KnowledgeBase::from_program_text(ONTOLOGY).unwrap();
    let (server, addr) = spawn(kb, 2);

    // 8 connections over 2 workers: the scheduler must requeue quiet
    // connections instead of camping, or this deadlocks/starves.
    let done = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let handle = client.prepare("q(A) :- person(A).").expect("prepare");
                for _ in 0..25 {
                    let answer = client.answer(handle, None).expect("answer");
                    assert_eq!(answer.tuples.len(), 2);
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    assert_eq!(done.load(Ordering::SeqCst), 8);

    shut_down(server);
}

#[test]
fn readers_racing_a_wire_writer_see_consistent_monotone_epochs() {
    const QUERY: &str = "q(A) :- person(A).";
    let kb = Arc::new(KnowledgeBase::from_program_text(ONTOLOGY).unwrap());
    let (server, addr) = spawn(Arc::clone(&kb), 2);

    // Two connections re-ask one prepared handle while a third applies 20
    // batches, each of which invalidates the cached answer. The writer pins
    // the snapshot every batch published (it is the only writer, so the
    // live snapshot after `apply` returns is that epoch's).
    let writing = AtomicBool::new(true);
    let (seen, snapshots) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&addr).expect("connect");
                    let handle = client.prepare(QUERY).expect("prepare");
                    let mut seen: Vec<(u64, Vec<Vec<String>>)> = Vec::new();
                    let mut after_writer = 0;
                    while after_writer < 2 {
                        if !writing.load(Ordering::SeqCst) {
                            after_writer += 1;
                        }
                        let answer = client.answer(handle, None).expect("answer");
                        if let Some((last, _)) = seen.last() {
                            assert!(answer.epoch >= *last, "epoch went backwards");
                        }
                        seen.push((answer.epoch, answer.tuples));
                    }
                    seen
                })
            })
            .collect();
        let mut writer = Client::connect(&addr).expect("connect");
        let mut snapshots = vec![kb.snapshot()];
        for i in 0..20 {
            let applied = writer
                .apply(&[], &[format!("manager(m{i})")])
                .expect("apply");
            snapshots.push(kb.snapshot());
            assert_eq!(snapshots[applied.epoch as usize].epoch(), applied.epoch);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        writing.store(false, Ordering::SeqCst);
        let seen: Vec<_> = readers
            .into_iter()
            .map(|reader| reader.join().expect("reader"))
            .collect();
        (seen, snapshots)
    });

    // Before anything runs in-process: the server counted every frame (one
    // PREPARE and the ANSWERs per reader, 20 APPLYs, this STATS) and the
    // re-asks within an epoch were cache hits.
    let frames = seen.iter().map(|s| 1 + s.len()).sum::<usize>() + 20 + 1;
    let stats = Client::connect(&addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert!(
        stats.contains(&format!("\"net_requests\":{frames},")),
        "{frames} frames sent: {stats}"
    );
    assert!(!stats.contains("\"cache_answer_hits\":0,"), "{stats}");

    // Every answer is the in-process answer on the snapshot it names.
    let prepared = kb.prepare_text(QUERY).unwrap();
    for (epoch, tuples) in seen.iter().flatten() {
        let expected = kb
            .execute_at(&prepared, &snapshots[*epoch as usize])
            .unwrap();
        let expected: Vec<Vec<String>> = expected
            .tuples
            .iter()
            .map(|tuple| tuple.iter().map(ToString::to_string).collect())
            .collect();
        assert_eq!(tuples, &expected, "epoch {epoch}");
    }
    assert_eq!(seen[0].last().unwrap().1.len(), 22);

    shut_down(server);
}

#[test]
fn pipelined_frames_survive_scheduler_rotations() {
    use nyaya::serve::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME};

    let kb = KnowledgeBase::from_program_text(ONTOLOGY).unwrap();
    let (server, addr) = spawn(kb, 1);

    // A second connection keeps the scheduler rotating (the worker must
    // requeue between bursts rather than camp), while the raw client
    // pipelines bursts of frames without reading responses in between.
    // Every byte the server read ahead of its parse must survive the
    // rotation: 30 requests in, exactly 30 responses out, in order.
    let mut background = Client::connect(&addr).expect("connect background");
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect raw");
    for burst in 0..10u32 {
        for _ in 0..3 {
            write_frame(&mut stream, &Request::Ping.encode()).expect("write");
        }
        background.ping().expect("background ping");
        for _ in 0..3 {
            let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("read")
                .expect("open");
            assert!(
                matches!(Response::parse(&payload), Ok(Response::Pong)),
                "burst {burst}"
            );
        }
    }

    shut_down(server);
}

#[test]
fn client_shutdown_drains_and_flushes_the_ledger() {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "nyaya-serving-test-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);

    let kb = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .unwrap()
        .durable(&dir)
        .build()
        .unwrap();
    let (server, addr) = spawn(kb, 2);

    let mut client = Client::connect(&addr).expect("connect");
    client
        .apply(&[], &["manager(edsger)".to_owned()])
        .expect("apply");
    // The SHUTDOWN verb (not a local handle) must drain and flush.
    client.shutdown_server().expect("shutdown request");
    server.join();

    // A fresh knowledge base over the same directory recovers the write
    // that went through the wire.
    let reopened = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .unwrap()
        .durable(&dir)
        .build()
        .unwrap();
    let query = reopened.prepare_text("q(A) :- person(A).").unwrap();
    let tuples = reopened.execute(&query).unwrap().tuples;
    assert_eq!(tuples.len(), 3, "{tuples:?}");
    assert!(reopened.stats().durable);

    let _ = fs::remove_dir_all(&dir);
}
