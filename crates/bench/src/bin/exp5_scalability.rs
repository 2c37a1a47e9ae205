//! Experiment 5 (paper Section 7.2): scalability on the Mall dataset —
//! regenerates **Figure 6**.
//!
//! On the PostgreSQL-like profile, shop queriers with the largest policy
//! sets run `SELECT *` under growing cumulative policy subsets; the
//! figure reports SIEVE's speedup over the baseline. The paper measures
//! the speedup growing linearly from 1.6× at 100 policies to 5.6× at
//! 1,200 policies.
//!
//! Scale the corpus with `SIEVE_MALL_SCALE` (default 0.4; 1.0 ≈ paper's
//! 2,651 customers / ~19K policies, which reaches the ~550 policies per
//! shop the paper reports; 2.0 reaches the 1,200-policy x-axis end).

use minidb::{Database, DbProfile, SelectQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sieve_bench::harness::{emit, time_enforcement, EnvConfig};
use sieve_bench::table::{mean, ms, render};
use sieve_core::baselines::Baseline;
use sieve_core::filter::relevant_policies;
use sieve_core::middleware::Enforcement;
use sieve_core::policy::{Policy, QueryMetadata};
use sieve_core::{SieveOptions, SieveService};
use sieve_workload::mall::{generate as generate_mall, MallConfig, MallDataset};
use sieve_workload::MALL_TABLE;
use std::fmt::Write as _;

fn main() {
    let env = EnvConfig::from_env();
    let mall_scale: f64 = std::env::var("SIEVE_MALL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Experiment 5: scalability on Mall, PostgreSQL-like (Figure 6; mall_scale={mall_scale}) ===\n"
    );

    let mut db = Database::new(DbProfile::PostgresLike);
    let ds = generate_mall(
        &mut db,
        &MallConfig {
            seed: 11,
            scale: mall_scale,
            shops: 35,
            days: 60,
        },
    )
    .expect("mall generation");
    let _ = writeln!(
        out,
        "mall: {} customers, {} events, {} policies ({} per shop avg)",
        ds.customers.len(),
        ds.events,
        ds.policies.len(),
        ds.policies.len() / 35
    );

    // Shop queriers ranked by relevant-policy count.
    let purpose_any = |shop: i64| {
        // Shops query for whichever purpose their grants use most; use the
        // dominant group purposes by trying each and keeping the max.
        let q = MallDataset::shop_querier(shop);
        ["Promotions", "Sales", "Lightning"]
            .into_iter()
            .map(|p| {
                let qm = QueryMetadata::new(q, p);
                (
                    relevant_policies(ds.policies.iter(), MALL_TABLE, &qm, &ds.groups).len(),
                    p,
                )
            })
            .max()
            .unwrap()
    };
    let mut shops: Vec<(usize, &str, i64)> = ds
        .shops
        .iter()
        .map(|&s| {
            let (n, p) = purpose_any(s);
            (n, p, s)
        })
        .collect();
    shops.sort_by_key(|s| std::cmp::Reverse(s.0));
    let top: Vec<(usize, &str, i64)> = shops.into_iter().take(5).collect();
    let max_avail = top.iter().map(|(n, _, _)| *n).min().unwrap_or(0);
    let _ = writeln!(
        out,
        "top shop queriers: {:?} (min available {max_avail})",
        top.iter().map(|(n, _, s)| format!("shop{s}({n})")).collect::<Vec<_>>()
    );

    let step = (max_avail / 12).max(10);
    let sizes: Vec<usize> = (1..=12)
        .map(|i| (i * step).min(max_avail))
        .filter(|&s| s >= 10)
        .collect();

    let query = SelectQuery::star_from(MALL_TABLE);
    let mut rows_out = Vec::new();
    for &size in &sizes {
        let mut base_cost = Vec::new();
        let mut sieve_cost = Vec::new();
        for &(_, purpose, shop) in &top {
            let querier = MallDataset::shop_querier(shop);
            let qm = QueryMetadata::new(querier, purpose);
            let relevant: Vec<&Policy> =
                relevant_policies(ds.policies.iter(), MALL_TABLE, &qm, &ds.groups);
            let mut rng = StdRng::seed_from_u64(13 * shop as u64 + size as u64);
            let mut pool: Vec<Policy> = relevant.iter().map(|p| (*p).clone()).collect();
            for i in 0..size.min(pool.len()) {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let subset = &pool[..size.min(pool.len())];
            for (enforcement, sink) in [
                (Enforcement::Baseline(Baseline::P), &mut base_cost),
                (Enforcement::Sieve, &mut sieve_cost),
            ] {
                let sieve = SieveService::new(
                    db.clone(),
                    SieveOptions {
                        timeout: Some(env.timeout),
                        ..Default::default()
                    },
                )
                .unwrap();
                sieve.with_groups_mut(|g| *g = ds.groups.clone());
                sieve.add_policies(subset.iter().cloned()).unwrap();
                let t = time_enforcement(&sieve, enforcement, &query, &qm, 2);
                if let Some(v) = t.sim_kcost {
                    sink.push(v);
                }
            }
        }
        let speedup = match (mean(&base_cost), mean(&sieve_cost)) {
            (Some(b), Some(s)) if s > 0.0 => format!("{:.1}x", b / s),
            _ => "-".into(),
        };
        rows_out.push(vec![
            size.to_string(),
            ms(mean(&base_cost)),
            ms(mean(&sieve_cost)),
            speedup,
        ]);
    }

    let _ = writeln!(
        out,
        "{}",
        render(
            &["policies", "Baseline(P)_kcost", "SIEVE(P)_kcost", "speedup"],
            &rows_out
        )
    );
    let _ = writeln!(
        out,
        "(paper: speedup grows ~linearly, 1.6x @100 → 5.6x @1200 policies)"
    );
    emit("exp5_scalability", &out);
}
