//! Shared set-up: the TIPPERS campus behind a loopback `SieveServer`,
//! one token per device, and the guards the workload needs warm.

use crate::gen::{self, Plan, Universe, Workload};
use minidb::{DbProfile, SelectQuery};
use sieve_bench::harness::{build_campus, queriers_with_policies, EnvConfig};
use sieve_client::{ClientError, ClientResult, RemoteConnection};
use sieve_core::policy::{QueryMetadata, UserId};
use sieve_core::SieveService;
use sieve_protocol::ProtocolError;
use sieve_server::{
    loopback, LoopbackConnector, ServerHandle, ServerStats, SieveServer, TokenAuthenticator,
};
use sieve_workload::profiles::UserProfile;
use sieve_workload::query_gen::generate_query;
use sieve_workload::tippers::TippersDataset;
use sieve_workload::WIFI_TABLE;
use std::sync::Arc;
use std::time::Duration;

/// Campus size: the full-scale settings of the experiment harness.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Dataset scale factor (`0.05` gives about 200k `wifi_dataset` rows).
    pub scale: f64,
    /// Observation days.
    pub days: u32,
}

impl Scale {
    /// The benchmark's campus: 1,821 devices, 6,962 policies.
    pub const FULL: Scale = Scale {
        scale: 0.05,
        days: 90,
    };
}

/// The token a device authenticates with.
fn token(device: UserId) -> String {
    format!("device-{device}")
}

/// A running system under test plus the run's generated inputs.
pub struct Env {
    /// The enforcement service (shared with the server).
    pub service: SieveService,
    /// Campus devices and date range (query generation).
    pub dataset: TippersDataset,
    /// The run's requests.
    pub plan: Plan,
    /// SQL text per pool entry (`None` for entries no session uses).
    sql: Vec<Option<String>>,
    connector: LoopbackConnector,
    /// The server's request counters.
    pub server_stats: Arc<ServerStats>,
    server: Option<ServerHandle>,
}

impl Env {
    /// Build the campus, start the server and warm the plan's guards.
    pub fn build(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> Env {
        let campus = build_campus(
            DbProfile::MySqlLike,
            &EnvConfig {
                scale: scale.scale,
                days: scale.days,
                timeout: Duration::from_secs(30),
            },
        );
        let analytics_ranked: Vec<UserId> = queriers_with_policies(&campus, "Analytics", 0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let dataset = campus.dataset;
        let service = campus.sieve.into_service();
        let universe = Universe {
            devices: dataset.devices.iter().map(|d| d.id).collect(),
            owners: dataset
                .devices
                .iter()
                .filter(|d| d.profile != UserProfile::Visitor)
                .map(|d| d.id)
                .collect(),
            analytics_ranked,
            days: dataset.date_range(),
        };
        let plan = gen::plan(workload, seed, seconds, &universe);
        let mut sql = vec![None; plan.pool.len()];
        for r in plan.used_requests() {
            let req = &plan.pool[r];
            let q = generate_query(&dataset, req.class, req.sel, req.variant);
            sql[r] = Some(minidb::sql::render_query(&q));
        }
        let auth = universe
            .devices
            .iter()
            .fold(TokenAuthenticator::new(), |auth, &d| auth.with(token(d), d));
        let server = SieveServer::new(service.clone(), auth);
        let server_stats = server.stats();
        let (listener, connector) = loopback();
        let handle = server.serve(listener);
        let warm: Vec<(QueryMetadata, SelectQuery)> = plan
            .warm
            .iter()
            .map(|&k| (plan_qm(&plan, k), SelectQuery::star_from(WIFI_TABLE)))
            .collect();
        service
            .prepare_batch(&warm)
            .expect("warm the plan's guards");
        Env {
            service,
            dataset,
            plan,
            sql,
            connector,
            server_stats,
            server: Some(handle),
        }
    }

    /// Dial the server and authenticate as `querier` (connect, `Hello`,
    /// `Auth`).
    pub fn connect(&self, querier: UserId) -> ClientResult<RemoteConnection> {
        let conn = self
            .connector
            .connect()
            .map_err(|e| ClientError::Protocol(ProtocolError::from(e)))?;
        RemoteConnection::establish(conn, &token(querier))
    }

    /// Query metadata of key `k`.
    pub fn qm(&self, k: usize) -> QueryMetadata {
        plan_qm(&self.plan, k)
    }

    /// SQL of pool entry `r` (which some session uses).
    pub fn sql(&self, r: usize) -> &str {
        self.sql[r]
            .as_deref()
            .expect("SQL is rendered for every used request")
    }

    /// Stop the server and wait for its threads. Every client connection
    /// must already be closed.
    pub fn shutdown(mut self) {
        let handle = self.server.take();
        drop(self.connector);
        if let Some(h) = handle {
            h.join();
        }
    }
}

fn plan_qm(plan: &Plan, k: usize) -> QueryMetadata {
    let key = &plan.keys[k];
    QueryMetadata::new(key.querier, key.purpose)
}
