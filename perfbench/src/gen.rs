//! Request generation. Everything a run sends — which querier asks which
//! query, in what order, and which consent grants the writer issues — is
//! generated here before the window opens: the workload fixes which
//! template instances each querier asks and how popular each key is, and
//! the run seed draws the order of the sessions and the grants. The
//! system under test only ever sees the generated requests.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sieve_core::cache::GUARD_CACHE_CAP;
use sieve_core::policy::UserId;
use sieve_workload::policy_gen::PURPOSES;
use sieve_workload::query_gen::{QueryClass, Selectivity};
use std::time::Duration;

/// Remote `execute` calls per session (after its `prepare_sql`).
pub const EXECUTES_PER_SESSION: usize = 4;
/// Queriers of `selective-warm` (all Analytics, all guards warm).
pub const SELECTIVE_QUERIERS: usize = 64;
/// Queriers of `analytics-scan`.
pub const ANALYTICS_QUERIERS: usize = 12;
/// Consent grants per second issued by the `consent-churn` writer.
pub const WRITES_PER_SECOND: u64 = 64;
/// Days of data one consent grant shares.
pub const GRANT_DAYS: i32 = 7;
/// Exponent of the Zipf-like key popularity on `consent-churn`.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Which template instances each key asks, and how popular each
/// `consent-churn` key is, are properties of the workload, not of the
/// run: fixing them keeps the cost of what a window can ask the same
/// across seeds, while the run seed still draws the order of every
/// session and every grant.
const WORKLOAD_SEED: u64 = 0x5eed_0fc0_5e47;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 closed-loop clients, 64 warm Analytics queriers, Q1/Q2-low.
    SelectiveWarm,
    /// 1 closed-loop reader over every (device, purpose) key with a
    /// Zipf-like skew, plus an open-loop `add_policy` writer.
    ConsentChurn,
    /// 2 closed-loop clients, 12 warm queriers, Q1/Q2/Q3-mid.
    AnalyticsScan,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SelectiveWarm,
        Workload::ConsentChurn,
        Workload::AnalyticsScan,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SelectiveWarm => "selective-warm",
            Workload::ConsentChurn => "consent-churn",
            Workload::AnalyticsScan => "analytics-scan",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Full set-ups per untraced run (`setup_s` is their median). One
    /// `consent-churn` set-up generates 4,096 guards, about 10 s of work,
    /// which is steady on its own; the others take about half a second.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::ConsentChurn => 1,
            Workload::SelectiveWarm | Workload::AnalyticsScan => 3,
        }
    }

    /// Closed-loop reader clients (one load thread each).
    pub fn readers(self) -> usize {
        match self {
            Workload::ConsentChurn => 1,
            Workload::SelectiveWarm | Workload::AnalyticsScan => 2,
        }
    }

    /// Sessions generated per reader per second of window: several times
    /// what a reader completes on a 2-core host, so a sequence wraps only
    /// once the system gets that much faster. (`consent-churn` has the
    /// smallest margin because the oracle answers every generated key.)
    fn sessions_per_second(self) -> usize {
        match self {
            Workload::SelectiveWarm => 1000,
            Workload::ConsentChurn => 120,
            Workload::AnalyticsScan => 16,
        }
    }
}

/// A guard-cache key as the benchmark addresses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// Querier (a device id; also the identity its token authenticates).
    pub querier: UserId,
    /// Query purpose.
    pub purpose: &'static str,
}

/// One distinct query request: a Q-template instance asked by one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Plan::keys`].
    pub key: usize,
    /// Query template.
    pub class: QueryClass,
    /// Selectivity class.
    pub sel: Selectivity,
    /// Seed of the template instance (`query_gen::generate_query`).
    pub variant: u64,
}

/// One consent grant of the `consent-churn` writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    /// Scheduled send time, from the window start.
    pub due: Duration,
    /// Index into [`Plan::keys`]: the grantee querier and purpose.
    pub key: usize,
    /// The device whose data the grant shares.
    pub owner: UserId,
    /// First day (`Value::Date` number) of the [`GRANT_DAYS`] shared.
    pub first_day: i32,
}

/// The devices a plan draws from (taken from the built campus).
#[derive(Debug, Clone)]
pub struct Universe {
    /// Every device, in directory order.
    pub devices: Vec<UserId>,
    /// Non-visitor devices: the owners grants are written for.
    pub owners: Vec<UserId>,
    /// Non-visitor devices, most relevant Analytics policies first.
    pub analytics_ranked: Vec<UserId>,
    /// First and last day of the observed data.
    pub days: (i32, i32),
}

/// Everything one run sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Keys the plan's requests and grants address.
    pub keys: Vec<Key>,
    /// Distinct requests (the oracle computes one answer per used entry).
    pub pool: Vec<Request>,
    /// Per reader: one pool index per session, in send order.
    pub clients: Vec<Vec<usize>>,
    /// Consent grants in schedule order (empty unless `consent-churn`).
    pub writes: Vec<Write>,
    /// Keys whose guards are generated before the window.
    pub warm: Vec<usize>,
}

impl Plan {
    /// The readers' sessions interleaved round-robin: the order a single
    /// thread replays them in (the traced run).
    pub fn interleaved(&self) -> Vec<usize> {
        let longest = self.clients.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| self.clients.iter().filter_map(move |c| c.get(i).copied()))
            .collect()
    }

    /// Pool entries some session uses, ascending.
    pub fn used_requests(&self) -> Vec<usize> {
        let mut used = vec![false; self.pool.len()];
        for &r in self.clients.iter().flatten() {
            used[r] = true;
        }
        (0..self.pool.len()).filter(|&r| used[r]).collect()
    }
}

/// Zipf-like sampler over ranks `0..n`: `P(r) ∝ 1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw `count` ranks, stratified in blocks of [`STRATA`]: each block
    /// takes one draw from each `1/STRATA` slice of the distribution, in
    /// shuffled order. Any run of whole blocks then holds head and tail
    /// keys in their expected shares, so the cost of a window's prefix
    /// varies little between seeds.
    pub fn draws(&self, rng: &mut StdRng, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count + STRATA);
        while out.len() < count {
            let mut block: Vec<usize> = (0..STRATA)
                .map(|j| self.rank((j as f64 + unit(rng)) / STRATA as f64))
                .collect();
            shuffle(&mut block, rng);
            out.extend(block);
        }
        out.truncate(count);
        out
    }

    fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Draws per stratified block of [`Zipf::draws`].
const STRATA: usize = 64;

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Generate the plan of `workload` for a window of `seconds`.
pub fn plan(workload: Workload, seed: u64, seconds: u64, universe: &Universe) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9));
    let sessions = workload.sessions_per_second() * seconds.max(1) as usize;
    match workload {
        Workload::SelectiveWarm => fixed_queriers(
            &mut rng,
            &universe.analytics_ranked[..SELECTIVE_QUERIERS.min(universe.analytics_ranked.len())],
            &[QueryClass::Q1, QueryClass::Q2],
            Selectivity::Low,
            4,
            workload.readers(),
            sessions,
        ),
        Workload::AnalyticsScan => fixed_queriers(
            &mut rng,
            &universe.analytics_ranked[..ANALYTICS_QUERIERS.min(universe.analytics_ranked.len())],
            &[QueryClass::Q1, QueryClass::Q2, QueryClass::Q3],
            Selectivity::Mid,
            2,
            workload.readers(),
            sessions,
        ),
        Workload::ConsentChurn => churn(&mut rng, universe, seconds, sessions),
    }
}

/// A fixed querier set asking for purpose Analytics, with `variants`
/// template instances per (querier, class) pair. The sequence is drawn in
/// blocks: each block asks every pair once, in a fresh seeded order and
/// with the block's instance, and the readers take the block's sessions
/// in turn. A window therefore holds every querier, class and instance in
/// equal shares whatever the seed, which keeps a short window's cost
/// steady.
fn fixed_queriers(
    rng: &mut StdRng,
    queriers: &[UserId],
    classes: &[QueryClass],
    sel: Selectivity,
    variants: usize,
    readers: usize,
    sessions: usize,
) -> Plan {
    let keys: Vec<Key> = queriers
        .iter()
        .map(|&querier| Key {
            querier,
            purpose: "Analytics",
        })
        .collect();
    let pairs: Vec<(usize, QueryClass)> = classes
        .iter()
        .flat_map(|&class| (0..keys.len()).map(move |key| (key, class)))
        .collect();
    let mut instances = StdRng::seed_from_u64(WORKLOAD_SEED);
    let pool: Vec<Request> = pairs
        .iter()
        .flat_map(|&(key, class)| (0..variants).map(move |_| (key, class)))
        .map(|(key, class)| Request {
            key,
            class,
            sel,
            variant: instances.next_u64(),
        })
        .collect();
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut sequence = Vec::with_capacity(readers * sessions);
    for block in 0.. {
        if sequence.len() >= readers * sessions {
            break;
        }
        shuffle(&mut order, rng);
        sequence.extend(order.iter().map(|&pair| pair * variants + block % variants));
    }
    let clients = (0..readers)
        .map(|c| {
            sequence
                .iter()
                .skip(c)
                .step_by(readers)
                .take(sessions)
                .copied()
                .collect()
        })
        .collect();
    Plan {
        warm: (0..keys.len()).collect(),
        keys,
        pool,
        clients,
        writes: Vec::new(),
    }
}

/// Every (device, purpose) key, drawn with a Zipf-like skew by reader and
/// writer alike; the guard cache is filled with the hottest
/// [`GUARD_CACHE_CAP`] keys before the window.
fn churn(rng: &mut StdRng, universe: &Universe, seconds: u64, sessions: usize) -> Plan {
    let mut keys: Vec<Key> = universe
        .devices
        .iter()
        .flat_map(|&querier| {
            PURPOSES
                .iter()
                .map(move |&purpose| Key { querier, purpose })
        })
        .collect();
    let mut workload = StdRng::seed_from_u64(WORKLOAD_SEED);
    shuffle(&mut keys, &mut workload);
    let classes = [QueryClass::Q1, QueryClass::Q2];
    let pool: Vec<Request> = (0..keys.len())
        .flat_map(|key| classes.map(|class| (key, class)))
        .map(|(key, class)| Request {
            key,
            class,
            sel: Selectivity::Low,
            variant: workload.next_u64(),
        })
        .collect();
    let zipf = Zipf::new(keys.len(), ZIPF_EXPONENT);
    let reader: Vec<usize> = zipf
        .draws(rng, sessions)
        .into_iter()
        .enumerate()
        .map(|(i, key)| classes.len() * key + i % classes.len())
        .collect();
    let n_writes = WRITES_PER_SECOND as usize * seconds.max(1) as usize;
    let writes = zipf
        .draws(rng, n_writes)
        .into_iter()
        .enumerate()
        .map(|(i, key)| Write {
            due: Duration::from_secs_f64(i as f64 / WRITES_PER_SECOND as f64),
            key,
            owner: universe.owners[rng.gen_range(0..universe.owners.len())],
            first_day: rng.gen_range(
                universe.days.0..=(universe.days.1 - GRANT_DAYS + 1).max(universe.days.0),
            ),
        })
        .collect();
    Plan {
        warm: (0..GUARD_CACHE_CAP.min(keys.len())).collect(),
        keys,
        pool,
        clients: vec![reader],
        writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            devices: (0..300).collect(),
            owners: (0..100).collect(),
            analytics_ranked: (0..100).rev().collect(),
            days: (18_000, 18_089),
        }
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let u = universe();
        for w in Workload::ALL {
            let a = plan(w, 7, 2, &u);
            assert_eq!(a, plan(w, 7, 2, &u), "{}", w.name());
            assert_ne!(a, plan(w, 8, 2, &u), "{}", w.name());
            assert_eq!(a.clients.len(), w.readers());
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, ZIPF_EXPONENT);
        let draw = |seed| z.draws(&mut StdRng::seed_from_u64(seed), 5000);
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < 1000));
        let head = a.iter().filter(|&&r| r < 10).count();
        let tail = a.iter().filter(|&&r| r >= 990).count();
        assert!(head > 10 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn every_block_holds_the_head_in_its_share() {
        let z = Zipf::new(1000, ZIPF_EXPONENT);
        let draws = z.draws(&mut StdRng::seed_from_u64(5), 40 * STRATA);
        let head: Vec<usize> = draws
            .chunks(STRATA)
            .map(|block| block.iter().filter(|&&r| r < 10).count())
            .collect();
        let (lo, hi) = (head.iter().min().unwrap(), head.iter().max().unwrap());
        assert!(hi - lo <= 1, "head draws per block vary: {head:?}");
    }

    #[test]
    fn churn_covers_every_device_purpose_key() {
        let p = plan(Workload::ConsentChurn, 1, 1, &universe());
        assert_eq!(p.keys.len(), 300 * PURPOSES.len());
        assert_eq!(p.warm.len(), GUARD_CACHE_CAP.min(p.keys.len()));
        assert_eq!(p.writes.len() as u64, WRITES_PER_SECOND);
        assert!(p.writes.windows(2).all(|w| w[0].due < w[1].due));
    }

    #[test]
    fn interleaving_alternates_clients() {
        let p = plan(Workload::SelectiveWarm, 1, 1, &universe());
        let seq = p.interleaved();
        assert_eq!(seq.len(), p.clients[0].len() + p.clients[1].len());
        assert_eq!(
            &seq[..4],
            &[
                p.clients[0][0],
                p.clients[1][0],
                p.clients[0][1],
                p.clients[1][1]
            ]
        );
    }
}
