//! `sieve_analyze` — static soundness audit over the scenario stores.
//!
//! Runs the symbolic no-widening verifier ([`sieve_core::analyze`])
//! against every enforcement point of both built-in scenarios:
//!
//! * **TIPPERS campus** (`wifi_dataset`): every non-visitor querier with
//!   at least one relevant policy, for each workload purpose, gets its
//!   guarded expression generated and checked against its allowed
//!   policy set.
//! * **Mall** (`wifi_connectivity`): every shop querier, for each mall
//!   purpose with relevant grants.
//!
//! Each scenario also runs the policy-store lints (dead policies,
//! subsumed grants) and the guard-shape lints (tautological guards,
//! unconfirmed NULL safety). Output is a deterministic JSON report per
//! scenario (`results/ANALYZE_tippers.json`, `results/ANALYZE_mall.json`)
//! plus a human summary (`results/sieve_analyze.txt`).
//!
//! Exit status is the CI contract: **nonzero iff any check is
//! `Refuted`** — a refutation means a generated rewrite would leak a
//! concrete row, and the build must fail. `Unknown` verdicts are
//! findings (reported, counted), never passes and never build failures.
//!
//! `--quick` caps the querier sweep per (scenario, purpose) so the audit
//! fits a CI step; the full run sweeps every eligible querier.

use minidb::{Database, DbProfile};
use sieve_bench::harness::{build_campus, emit, queriers_with_policies, write_json, EnvConfig};
use sieve_core::analyze::{self, AnalysisReport, CheckRecord, Finding, FindingKind, Verdict};
use sieve_core::filter::relevant_policies;
use sieve_core::policy::{Policy, PolicyId, QueryMetadata};
use sieve_core::{SieveOptions, SieveService};
use sieve_workload::mall::{generate as generate_mall, MallConfig, MallDataset};
use sieve_workload::policy_gen::PURPOSES;
use sieve_workload::{MALL_TABLE, WIFI_TABLE};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Cap on reported subsumption pairs per scenario (the scan itself says
/// when it truncates).
const MAX_OVERLAP_FINDINGS: usize = 32;

struct Config {
    quick: bool,
    env: EnvConfig,
    /// Max queriers audited per (scenario, purpose); `usize::MAX` = all.
    max_queriers: usize,
}

impl Config {
    fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let mut env = EnvConfig::from_env();
        if quick {
            env.scale = 0.01;
            env.days = 30;
        }
        Config {
            quick,
            env,
            max_queriers: if quick { 8 } else { usize::MAX },
        }
    }
}

/// Verify one enforcement point and fold the outcome into the report.
fn check_point(
    report: &mut AnalysisReport,
    sieve: &SieveService,
    all_policies: &[Policy],
    by_id: &HashMap<PolicyId, &Policy>,
    relation: &str,
    qm: &QueryMetadata,
) {
    let ge = match sieve.guarded_expression(qm, relation) {
        Ok(ge) => ge,
        Err(e) => {
            // Generation refusing is itself a fail-closed outcome; record
            // it as an undecided check so the audit surfaces it.
            report.checks.push(CheckRecord {
                relation: relation.to_string(),
                querier: qm.querier,
                purpose: qm.purpose.clone(),
                guards: 0,
                policies: 0,
                verdict: Verdict::Unknown {
                    reason: format!("guard generation failed: {e}"),
                },
            });
            return;
        }
    };
    let relevant: Vec<&Policy> = {
        let groups = sieve.groups();
        relevant_policies(all_policies.iter(), relation, qm, &groups)
    };
    let verdict = analyze::verify_guarded_expression(&ge, by_id, &relevant);
    match &verdict {
        Verdict::Refuted { witness } => report.findings.push(Finding {
            kind: FindingKind::Widening,
            relation: relation.to_string(),
            policies: ge.guards.iter().flat_map(|g| g.policies.iter().copied()).collect(),
            detail: format!(
                "querier {} purpose {}: witness {}",
                qm.querier,
                qm.purpose,
                analyze::render_witness(witness)
            ),
        }),
        Verdict::Unknown { reason } => report.findings.push(Finding {
            kind: FindingKind::UnknownVerdict,
            relation: relation.to_string(),
            policies: Vec::new(),
            detail: format!("querier {} purpose {}: {reason}", qm.querier, qm.purpose),
        }),
        Verdict::Proven => {}
    }
    report.findings.extend(analyze::lint_guarded_expression(&ge, by_id));
    report.checks.push(CheckRecord {
        relation: relation.to_string(),
        querier: qm.querier,
        purpose: qm.purpose.clone(),
        guards: ge.guards.len(),
        policies: relevant.len(),
        verdict,
    });
}

/// Audit the TIPPERS campus scenario.
fn audit_tippers(cfg: &Config) -> AnalysisReport {
    let campus = build_campus(DbProfile::MySqlLike, &cfg.env);
    let policies = campus.policies.clone();
    let refs: Vec<&Policy> = policies.iter().collect();
    let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();

    let mut report = AnalysisReport::new("tippers");
    report
        .findings
        .extend(analyze::lint_policies(&refs, WIFI_TABLE, MAX_OVERLAP_FINDINGS));

    for purpose in PURPOSES {
        let queriers = queriers_with_policies(&campus, purpose, 1);
        for (querier, _) in queriers.into_iter().take(cfg.max_queriers) {
            let qm = QueryMetadata::new(querier, purpose);
            check_point(
                &mut report,
                &campus.sieve,
                &policies,
                &by_id,
                WIFI_TABLE,
                &qm,
            );
        }
    }
    report.sort();
    report
}

/// Audit the Mall scenario.
fn audit_mall(cfg: &Config) -> AnalysisReport {
    let mut db = Database::new(DbProfile::MySqlLike);
    let ds = generate_mall(
        &mut db,
        &MallConfig {
            seed: 11,
            scale: if cfg.quick { 0.05 } else { 0.2 },
            shops: if cfg.quick { 12 } else { 35 },
            days: if cfg.quick { 20 } else { 60 },
        },
    )
    .expect("mall generation");
    let sieve = SieveService::new(
        db,
        SieveOptions {
            timeout: Some(cfg.env.timeout),
            ..Default::default()
        },
    )
    .expect("sieve init");
    sieve.with_groups_mut(|g| *g = ds.groups.clone());
    sieve
        .add_policies(ds.policies.iter().cloned())
        .expect("register policies");
    let policies = sieve.policies();
    let refs: Vec<&Policy> = policies.iter().collect();
    let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();

    let mut report = AnalysisReport::new("mall");
    report
        .findings
        .extend(analyze::lint_policies(&refs, MALL_TABLE, MAX_OVERLAP_FINDINGS));

    for purpose in ["Promotions", "Sales", "Lightning"] {
        let mut eligible: Vec<i64> = ds
            .shops
            .iter()
            .map(|&s| MallDataset::shop_querier(s))
            .filter(|&q| {
                let qm = QueryMetadata::new(q, purpose);
                let groups = sieve.groups();
                !relevant_policies(policies.iter(), MALL_TABLE, &qm, &groups).is_empty()
            })
            .collect();
        eligible.sort_unstable();
        for querier in eligible.into_iter().take(cfg.max_queriers) {
            let qm = QueryMetadata::new(querier, purpose);
            check_point(&mut report, &sieve, &policies, &by_id, MALL_TABLE, &qm);
        }
    }
    report.sort();
    report
}

fn scenario_summary(out: &mut String, r: &AnalysisReport) {
    let _ = writeln!(
        out,
        "[{}] checks: {} ({} proven, {} refuted, {} unknown), findings: {}",
        r.scenario,
        r.checks.len(),
        r.proven(),
        r.refuted(),
        r.unknown(),
        r.findings.len()
    );
    for c in r.checks.iter().filter(|c| c.verdict.is_refuted()) {
        let _ = writeln!(
            out,
            "  REFUTED: querier {} purpose {} on {}: {}",
            c.querier, c.purpose, c.relation, c.verdict
        );
    }
    let mut by_kind: Vec<(&str, usize)> = Vec::new();
    for f in &r.findings {
        let tag = f.kind.tag();
        match by_kind.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((tag, 1)),
        }
    }
    for (tag, n) in by_kind {
        let _ = writeln!(out, "  finding {tag}: {n}");
    }
}

fn main() {
    let cfg = Config::from_args();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== sieve_analyze: static soundness audit (quick={}, scale={}, days={}) ===\n",
        cfg.quick, cfg.env.scale, cfg.env.days
    );

    let tippers = audit_tippers(&cfg);
    let mall = audit_mall(&cfg);

    for r in [&tippers, &mall] {
        write_json(&format!("ANALYZE_{}", r.scenario), &r.to_json());
        scenario_summary(&mut out, r);
    }

    let refuted = tippers.refuted() + mall.refuted();
    let _ = writeln!(
        out,
        "\n{}",
        if refuted == 0 {
            "AUDIT PASS: every no-widening check proven or reported unknown; no refutations."
                .to_string()
        } else {
            format!("AUDIT FAIL: {refuted} refuted check(s) — a rewrite admits rows outside its allowed policies.")
        }
    );
    emit("sieve_analyze", &out);

    if refuted > 0 {
        std::process::exit(1);
    }
}
