//! End-to-end client → protocol → server → service enforcement.
//!
//! The contract under test: a remote session speaking frames over the
//! loopback transport must be **indistinguishable** from an in-process
//! [`sieve::core::Session`] — row-identical results on every backend,
//! the same typed error taxonomy, and the same fail-closed posture. On
//! top of that, the server's own perimeter must hold: requests whose
//! embedded querier disagrees with the connection's authenticated
//! identity are refused, unauthenticated requests never reach the
//! service, and malformed frames kill the connection instead of being
//! half-parsed.

use sieve::client::{ClientError, RemoteConnection};
use sieve::core::backend::{for_each_backend, FaultConfig, FaultInjectingBackend};
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::DataType;
use sieve::minidb::{Database, DbProfile, Row, TableSchema, Value};
use sieve::protocol::frame::{read_frame, write_frame};
use sieve::protocol::{
    ClientMessage, ErrorCode, ProtocolError, ServerMessage, PROTOCOL_VERSION,
};
use sieve::server::{loopback, SieveServer, TokenAuthenticator};
use std::io::Write;
use std::sync::Arc;

const REL: &str = "wifi_dataset";
const QUERIERS: [i64; 4] = [500, 501, 502, 503];
const QUERY: &str = "SELECT * FROM wifi_dataset";

fn policy(owner: i64, querier: i64, purpose: &str, ap: i64) -> Policy {
    Policy::new(
        owner,
        REL,
        QuerierSpec::User(querier),
        purpose,
        vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(ap)),
        )],
    )
}

fn loaded_db() -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..2000i64 {
        db.insert(
            REL,
            vec![
                Value::Int(i),
                Value::Int(i % 80),
                Value::Int(1000 + i % 10),
                Value::Time(((i * 53) % 86400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();
    db
}

/// Querier 500+k reads owners 0..20 at AP 1001+k.
fn register_corpus(add: &mut dyn FnMut(Policy)) {
    for (k, &querier) in QUERIERS.iter().enumerate() {
        for owner in 0..20i64 {
            add(policy(owner, querier, "Analytics", 1001 + k as i64));
        }
    }
}

/// Token table covering the corpus queriers: "token-<id>" → id.
fn authenticator() -> TokenAuthenticator {
    let mut auth = TokenAuthenticator::new();
    for &q in &QUERIERS {
        auth.insert(format!("token-{q}"), q);
    }
    auth
}

fn sorted_rows(res: sieve::minidb::QueryResult) -> Vec<Row> {
    let mut rows = res.rows;
    rows.sort();
    rows
}

fn qm(querier: i64) -> QueryMetadata {
    QueryMetadata::new(querier, "Analytics")
}

// ---------------------------------------------------------------------
// Row identity against the in-process oracle
// ---------------------------------------------------------------------

/// Remote sessions over loopback return exactly the rows the in-process
/// session API returns, on every backend, from many concurrent
/// connections, for both the one-shot and the prepared path.
#[test]
fn remote_sessions_row_identical_to_in_process_oracle() {
    for_each_backend(&loaded_db(), &SieveOptions::default(), |name, service| {
        register_corpus(&mut |p| {
            service.add_policy(p).unwrap();
        });

        // In-process oracle rows, per querier, before the storm.
        let oracles: Vec<(i64, Vec<Row>)> = QUERIERS
            .iter()
            .map(|&u| {
                let rows =
                    sorted_rows(service.session(qm(u)).execute_sql(QUERY).unwrap());
                assert!(!rows.is_empty(), "{name}: oracle empty for querier {u}");
                (u, rows)
            })
            .collect();

        let server = SieveServer::new(service.clone(), authenticator());
        let (listener, connector) = loopback();
        let handle = server.serve(listener);

        std::thread::scope(|scope| {
            for round in 0..2 {
                for (u, expect) in &oracles {
                    let (u, expect) = (*u, expect.clone());
                    let connector = connector.clone();
                    scope.spawn(move || {
                        let conn = RemoteConnection::establish(
                            connector.connect().unwrap(),
                            &format!("token-{u}"),
                        )
                        .unwrap();
                        assert_eq!(conn.querier(), u);
                        let session = conn.session(qm(u));
                        // One-shot path.
                        for _ in 0..3 {
                            let rows =
                                sorted_rows(session.execute_sql(QUERY).unwrap());
                            assert_eq!(rows, expect, "round {round} querier {u}");
                        }
                        // Prepared path: pin once, execute repeatedly.
                        let prepared = session.prepare_sql(QUERY).unwrap();
                        for _ in 0..3 {
                            let rows = sorted_rows(prepared.execute().unwrap());
                            assert_eq!(rows, expect, "prepared querier {u}");
                        }
                        prepared.close().unwrap();
                        conn.close().unwrap();
                    });
                }
            }
        });

        drop(connector);
        handle.join();
        let stats = server.stats();
        assert_eq!(
            stats.identity_rejections.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    });
}

/// Under a seeded fault schedule (drops, evictions, transients) the
/// remote path keeps the in-process contract: every `Ok` is
/// row-identical to the no-fault oracle, every `Err` is a typed wire
/// error — never a protocol error, never raw rows.
#[test]
fn remote_results_row_identical_under_fault_injection() {
    let service = SieveService::with_backend(
        FaultInjectingBackend::new(loaded_db(), FaultConfig::seeded(42, 0.3)),
        SieveOptions::default(),
    )
    .unwrap();
    register_corpus(&mut |p| {
        service.add_policy(p).unwrap();
    });

    // Oracle with injection off.
    service.backend().set_enabled(false);
    let oracles: Vec<(i64, Vec<Row>)> = QUERIERS
        .iter()
        .map(|&u| (u, sorted_rows(service.session(qm(u)).execute_sql(QUERY).unwrap())))
        .collect();
    service.backend().set_enabled(true);

    let server = SieveServer::new(service, authenticator());
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    let oks = Arc::new(std::sync::atomic::AtomicU64::new(0));
    std::thread::scope(|scope| {
        for (u, expect) in &oracles {
            let (u, expect) = (*u, expect.clone());
            let connector = connector.clone();
            let oks = Arc::clone(&oks);
            scope.spawn(move || {
                let conn = RemoteConnection::establish(
                    connector.connect().unwrap(),
                    &format!("token-{u}"),
                )
                .unwrap();
                let session = conn.session(qm(u));
                for _ in 0..12 {
                    match session.execute_sql(QUERY) {
                        Ok(res) => {
                            assert_eq!(sorted_rows(res), expect, "querier {u}");
                            oks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        // Fail closed is allowed; it must arrive as a
                        // *typed* remote error, not a protocol break.
                        Err(ClientError::Remote(e)) => {
                            assert!(
                                matches!(
                                    e.code,
                                    ErrorCode::BackendConnectionLost
                                        | ErrorCode::BackendTimeout
                                        | ErrorCode::BackendUnknownStatement
                                        | ErrorCode::BackendTransient
                                        | ErrorCode::BackendFatal
                                        | ErrorCode::RetriesExhausted
                                ),
                                "unexpected wire error {e}"
                            );
                        }
                        Err(ClientError::Protocol(e)) => {
                            panic!("protocol error under faults: {e}")
                        }
                    }
                }
                conn.close().unwrap();
            });
        }
    });
    assert!(
        oks.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "retry loop absorbed nothing — no query ever succeeded"
    );
    drop(connector);
    handle.join();
}

/// A prepared remote statement stays correct across a policy change: the
/// server-side plan re-prepares transparently and the next execute
/// returns the post-change oracle rows.
#[test]
fn remote_prepared_follows_policy_changes() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&mut |p| {
        service.add_policy(p).unwrap();
    });
    let server = SieveServer::new(service.clone(), authenticator());
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();
    let session = conn.session(qm(500));
    let prepared = session.prepare_sql(QUERY).unwrap();
    let before = sorted_rows(prepared.execute().unwrap());

    // Widen querier 500's visibility: owner 5's rows all sit at AP 1005
    // (i ≡ 5 mod 80 ⇒ ap = 1005), invisible under the corpus's AP-1001
    // grant, so this policy strictly grows the row set.
    service.add_policy(policy(5, 500, "Analytics", 1005)).unwrap();
    let expect = sorted_rows(service.session(qm(500)).execute_sql(QUERY).unwrap());
    assert_ne!(before, expect, "policy change must alter visibility");

    let after = sorted_rows(prepared.execute().unwrap());
    assert_eq!(after, expect, "stale remote plan must re-prepare");

    prepared.close().unwrap();
    conn.close().unwrap();
    drop(connector);
    handle.join();
}

// ---------------------------------------------------------------------
// Perimeter: identity, auth, protocol violations
// ---------------------------------------------------------------------

/// The bypass attempt this server exists to stop: authenticate as one
/// querier, embed another querier's identity in the request metadata.
/// The server must refuse with `IdentityMismatch` — the request never
/// reaches the service — and the connection stays usable for honest
/// requests.
#[test]
fn embedded_querier_mismatch_is_rejected_fail_closed() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&mut |p| {
        service.add_policy(p).unwrap();
    });
    let expect_own =
        sorted_rows(service.session(qm(500)).execute_sql(QUERY).unwrap());
    let server = SieveServer::new(service, authenticator());
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();

    // Execute under a foreign identity: refused, typed.
    let foreign = conn.session(qm(501));
    match foreign.execute_sql(QUERY) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::IdentityMismatch),
        other => panic!("expected IdentityMismatch, got {other:?}"),
    }
    // Prepare under a foreign identity: same refusal.
    match foreign.prepare_sql(QUERY) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::IdentityMismatch),
        Err(other) => panic!("expected IdentityMismatch, got {other}"),
        Ok(_) => panic!("foreign prepare must be refused"),
    }

    // The connection survives and honest requests still work.
    let own = conn.session(qm(500));
    assert_eq!(sorted_rows(own.execute_sql(QUERY).unwrap()), expect_own);

    conn.close().unwrap();
    drop(connector);
    let stats = server.stats();
    handle.join();
    assert_eq!(
        stats.identity_rejections.load(std::sync::atomic::Ordering::Relaxed),
        2
    );
}

/// A bad token is refused with `AuthFailed` and the connection closes.
#[test]
fn unknown_token_rejected() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    let server = SieveServer::new(service, authenticator());
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    match RemoteConnection::establish(connector.connect().unwrap(), "not-a-token") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::AuthFailed),
        other => panic!("expected AuthFailed, got {:?}", other.is_ok()),
    }
    drop(connector);
    handle.join();
}

/// Raw-frame checks: requests before auth are refused and close the
/// connection; a version mismatch is refused at Hello; garbage frames
/// produce a Protocol error then EOF. (Driven below the client library,
/// which cannot be coaxed into sending these.)
#[test]
fn protocol_perimeter_holds_on_raw_frames() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    let server = SieveServer::new(service, authenticator());
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    // Execute before Auth → NotAuthenticated, then the server hangs up.
    {
        let mut conn = connector.connect().unwrap();
        write_frame(&mut conn, &ClientMessage::Hello { version: PROTOCOL_VERSION }.encode())
            .unwrap();
        let ack = ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap();
        assert!(matches!(ack, ServerMessage::HelloAck { .. }));
        write_frame(
            &mut conn,
            &ClientMessage::Execute { metadata: qm(500), sql: QUERY.to_string() }.encode(),
        )
        .unwrap();
        match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::NotAuthenticated),
            other => panic!("expected NotAuthenticated, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut conn),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    // Version mismatch → Protocol error, close.
    {
        let mut conn = connector.connect().unwrap();
        write_frame(&mut conn, &ClientMessage::Hello { version: 99 }.encode()).unwrap();
        match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
            other => panic!("expected Protocol error, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut conn),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    // Garbage payload → Protocol error, close.
    {
        let mut conn = connector.connect().unwrap();
        write_frame(&mut conn, &[0xFF, 0xFE, 0xFD]).unwrap();
        match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
            other => panic!("expected Protocol error, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut conn),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    // A frame that is not even a frame: raw bytes shorter than a length
    // prefix, then hang up. The server must just drop the connection.
    {
        let mut conn = connector.connect().unwrap();
        conn.write_all(&[1, 2]).unwrap();
    }

    drop(connector);
    handle.join();
}

/// Executing or closing a statement handle the server never issued is a
/// typed refusal, not a panic or a silent no-op.
#[test]
fn unknown_statement_handle_rejected() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&mut |p| {
        service.add_policy(p).unwrap();
    });
    let server = SieveServer::new(service, authenticator());
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    let mut conn = connector.connect().unwrap();
    write_frame(&mut conn, &ClientMessage::Hello { version: PROTOCOL_VERSION }.encode())
        .unwrap();
    read_frame(&mut conn).unwrap();
    write_frame(&mut conn, &ClientMessage::Auth { token: "token-500".into() }.encode())
        .unwrap();
    read_frame(&mut conn).unwrap();
    write_frame(&mut conn, &ClientMessage::ExecutePrepared { statement: 9999 }.encode())
        .unwrap();
    match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
        ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::UnknownStatementHandle),
        other => panic!("expected UnknownStatementHandle, got {other:?}"),
    }
    write_frame(&mut conn, &ClientMessage::ClosePrepared { statement: 9999 }.encode())
        .unwrap();
    match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
        ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::UnknownStatementHandle),
        other => panic!("expected UnknownStatementHandle, got {other:?}"),
    }
    drop(conn);
    drop(connector);
    handle.join();
}
