//! Cross-service runs, plus the spec layer's public pure functions: every
//! test here drives only the public surface of [`super`].

use super::*;
use crate::adversary::NoAdversary;
use crate::monitor::{first_divergence, MonitorConfig};
use drams_faas::des::{SimTime, MILLIS, SECONDS};
use drams_faas::fault::{FaultPlan, Site};
use drams_faas::model::{CloudId, FederationSpec, TenantId};
use drams_policy::policy::PolicySet;
use rand::RngCore;

fn base_config() -> MonitorConfig {
    MonitorConfig {
        total_requests: 40,
        request_rate_per_sec: 100.0,
        ..MonitorConfig::default()
    }
}

#[test]
fn named_streams_are_deterministic_and_distinct() {
    let mut a = stream_rng(7, "workload");
    let mut b = stream_rng(7, "workload");
    let mut c = stream_rng(7, "churn");
    let mut d = stream_rng(8, "workload");
    let a_seq: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
    let b_seq: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
    assert_eq!(a_seq, b_seq, "same seed + name = same stream");
    assert_ne!(a_seq[0], c.next_u64(), "names separate streams");
    assert_ne!(a_seq[0], d.next_u64(), "seeds separate streams");
}

#[test]
fn cross_stream_draws_do_not_perturb_each_other() {
    // Interleaving draws from one stream must not change another's
    // sequence — the property the per-component split buys.
    let mut workload = stream_rng(7, "workload");
    let mut churn = stream_rng(7, "churn");
    let mut interleaved = Vec::new();
    for _ in 0..8 {
        interleaved.push(workload.next_u64());
        let _ = churn.next_u64(); // extra churn draws
        let _ = churn.next_u64();
    }
    let mut isolated_stream = stream_rng(7, "workload");
    let isolated: Vec<u64> = (0..8).map(|_| isolated_stream.next_u64()).collect();
    assert_eq!(interleaved, isolated);
}

#[test]
fn canonical_scenario_matches_run_monitor() {
    let config = base_config();
    let (a, ta) = crate::monitor::run_monitor(&config, &mut NoAdversary);
    let (b, tb) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
    assert_eq!(a.requests_completed, b.requests_completed);
    assert_eq!(a.entries_logged, b.entries_logged);
    assert_eq!(a.groups_completed, b.groups_completed);
    assert_eq!(a.alerts.len(), b.alerts.len());
    assert_eq!(a.e2e_latency.mean(), b.e2e_latency.mean());
    assert_eq!(ta, tb);
}

#[test]
fn per_cloud_placement_serves_all_requests_clean() {
    let spec = ScenarioSpec {
        placement: PdpPlacement::PerCloud,
        ..ScenarioSpec::canonical(&base_config())
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(report.requests_completed, 40);
    assert_eq!(report.groups_completed, 40);
    assert_eq!(report.entries_logged, 160);
    assert_eq!(truth.total_attacks(), 0);
    assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
}

#[test]
fn per_cloud_pdps_cut_decision_latency() {
    let config = base_config();
    let (central, _) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
    let spec = ScenarioSpec {
        placement: PdpPlacement::PerCloud,
        ..ScenarioSpec::canonical(&config)
    };
    let (local, _) = run_scenario(&spec, &mut NoAdversary);
    assert!(
        local.e2e_latency.mean() < central.e2e_latency.mean(),
        "local {} vs central {}",
        local.e2e_latency.mean(),
        central.e2e_latency.mean()
    );
}

#[test]
fn policy_churn_is_not_flagged_as_attack() {
    let mut config = base_config();
    config.total_requests = 80;
    let stricter = PolicySet::builder(
        "strict-root",
        drams_policy::combining::CombiningAlg::DenyUnlessPermit,
    )
    .policy(
        drams_policy::policy::Policy::builder(
            "doctors-only",
            drams_policy::combining::CombiningAlg::PermitOverrides,
        )
        .rule(
            drams_policy::rule::Rule::builder("doctors", drams_policy::decision::Effect::Permit)
                .target(drams_policy::target::Target::expr(
                    drams_policy::expr::Expr::equal(
                        drams_policy::expr::Expr::attr(drams_policy::attr::AttributeId::new(
                            drams_policy::attr::Category::Subject,
                            "role",
                        )),
                        drams_policy::expr::Expr::lit("doctor"),
                    ),
                ))
                .build(),
        )
        .build(),
    )
    .build();
    let spec = ScenarioSpec {
        script: vec![
            ScriptedAction::PublishPolicy {
                at: 200 * MILLIS,
                policy: stricter,
            },
            ScriptedAction::RollbackPolicy {
                at: 500 * MILLIS,
                version: 0,
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(report.requests_completed, 80);
    assert_eq!(report.groups_completed, 80);
    assert_eq!(report.policy_activations, 3, "initial + publish + rollback");
    assert_eq!(truth.total_attacks(), 0);
    assert!(
        report.alerts.is_empty(),
        "legitimate churn must not alert: {:?}",
        report.alerts
    );
}

#[test]
fn tenant_churn_keeps_the_run_clean() {
    let mut config = base_config();
    config.total_requests = 80;
    let spec = ScenarioSpec {
        script: vec![
            ScriptedAction::TenantJoin {
                at: 150 * MILLIS,
                cloud: CloudId(0),
                services: 2,
            },
            ScriptedAction::TenantLeave {
                at: 450 * MILLIS,
                tenant: TenantId(2),
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(report.requests_completed, 80);
    assert_eq!(report.groups_completed, 80);
    assert_eq!(truth.total_attacks(), 0);
    assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
}

#[test]
fn stalled_li_raises_missing_log_alerts() {
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        script: vec![ScriptedAction::StallLi {
            at: 0,
            until: 30 * SECONDS, // far beyond the drain deadline
            tenant: TenantId(1),
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0, "a fault is not an attack");
    assert!(
        report
            .alerts
            .iter()
            .any(|a| matches!(a.kind, crate::alert::AlertKind::MissingLog { .. })),
        "a stalled LI must surface as missing observations: {:?}",
        report.alerts
    );
    assert!(report.groups_completed < 60);
}

#[test]
fn short_pdp_silence_is_masked_by_retries() {
    // A sub-second outage sits well inside the PEP's retry budget:
    // every request completes on a retransmission and nothing alerts.
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        script: vec![ScriptedAction::SilencePdp {
            at: 0,
            until: 150 * MILLIS,
            cloud: CloudId(0),
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0);
    assert_eq!(report.requests_completed, 60);
    assert_eq!(report.requests_dropped, 0);
    assert!(report.retries_total > 0, "the outage must cost retries");
    assert_eq!(report.e2e_latency.report().retries, report.retries_total);
    assert!(
        report.e2e_latency.report().attempts[1] > 0,
        "some requests must have completed on their second attempt"
    );
    assert!(
        report.alerts.is_empty(),
        "a retried-through fault must not alert: {:?}",
        report.alerts
    );
}

#[test]
fn persistent_pdp_silence_abandons_requests_and_times_out() {
    // An outage longer than the whole retry budget: the PEP gives up
    // after MAX_ATTEMPTS and the on-chain sweep surfaces the stuck
    // groups as MissingLog.
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        script: vec![ScriptedAction::SilencePdp {
            at: 0,
            until: 60 * SECONDS,
            cloud: CloudId(0),
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, _) = run_scenario(&spec, &mut NoAdversary);
    assert!(report.requests_dropped > 0);
    assert_eq!(
        report.requests_completed + report.requests_dropped,
        60,
        "every request either completes or is abandoned after its budget"
    );
    assert!(report.retries_total > 0);
    assert!(!report.alerts.is_empty());
    assert!(report
        .alerts
        .iter()
        .all(|a| matches!(a.kind, crate::alert::AlertKind::MissingLog { .. })));
}

#[test]
fn phased_load_changes_arrival_density() {
    let mut config = base_config();
    config.total_requests = 200;
    config.request_rate_per_sec = 50.0;
    let burst = ScenarioSpec {
        phases: vec![
            Phase {
                start: 0,
                rate_per_sec: 50.0,
            },
            Phase {
                start: 500 * MILLIS,
                rate_per_sec: 1000.0,
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let (bursty, _) = run_scenario(&burst, &mut NoAdversary);
    let (flat, _) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
    assert_eq!(bursty.requests_completed, 200);
    assert!(
        bursty.finished_at < flat.finished_at,
        "the burst phase must finish the budget sooner: {} vs {}",
        bursty.finished_at,
        flat.finished_at
    );
}

#[test]
fn scheduling_an_out_of_window_action_does_not_perturb_the_run() {
    // Cross-component determinism at scenario level: a scripted
    // action that never fires (far beyond the horizon) must leave
    // every draw of every other component untouched.
    let mut config = base_config();
    config.horizon = 30 * SECONDS;
    let canonical = ScenarioSpec::canonical(&config);
    let spec = ScenarioSpec {
        script: vec![ScriptedAction::TenantJoin {
            at: config.horizon + SECONDS,
            cloud: CloudId(0),
            services: 1,
        }],
        ..canonical.clone()
    };
    let (a, ta) = run_scenario(&canonical, &mut NoAdversary);
    let (b, tb) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(a.requests_completed, b.requests_completed);
    assert_eq!(a.e2e_latency.mean(), b.e2e_latency.mean());
    assert_eq!(a.log_commit_latency.mean(), b.log_commit_latency.mean());
    assert_eq!(a.txs_committed, b.txs_committed);
    assert_eq!(ta, tb);
}

#[test]
fn leave_during_join_settle_does_not_resurrect_the_tenant() {
    // A tenant that departs between its join and the end of the join
    // settle window must not re-enter the workload rotation when the
    // pending activation fires.
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        script: vec![
            ScriptedAction::TenantJoin {
                at: 100 * MILLIS,
                cloud: CloudId(0),
                services: 1,
            },
            // Default federation has tenants 1..=4, so the joiner is
            // TenantId(5); it leaves at the same instant it joins —
            // before the churn-jittered activation can land.
            ScriptedAction::TenantLeave {
                at: 100 * MILLIS,
                tenant: TenantId(5),
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(report.requests_completed, 60);
    assert_eq!(truth.total_attacks(), 0);
    assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
}

#[test]
fn run_winds_down_when_every_tenant_departs_for_good() {
    let mut config = base_config();
    config.total_requests = 1_000_000; // never exhausted
    let leave_all: Vec<ScriptedAction> = config
        .federation
        .tenants
        .iter()
        .map(|t| ScriptedAction::TenantLeave {
            at: 300 * MILLIS,
            tenant: t.id,
        })
        .collect();
    let spec = ScenarioSpec {
        script: leave_all,
        ..ScenarioSpec::canonical(&config)
    };
    let (report, _) = run_scenario(&spec, &mut NoAdversary);
    assert!(report.requests_issued > 0);
    assert!(
        report.finished_at < 30 * SECONDS,
        "an emptied federation must drain, not grind to the {}s horizon              (finished at {})",
        config.horizon / SECONDS,
        report.finished_at
    );
}

#[test]
fn crash_restarts_are_byte_identical_to_the_uninterrupted_run() {
    let mut config = base_config();
    config.total_requests = 60;
    let (clean, clean_truth) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
    for target in [
        CrashTarget::ChainNode,
        CrashTarget::Li(TenantId(1)),
        CrashTarget::Li(TenantId::INFRASTRUCTURE),
        CrashTarget::Analyser,
        CrashTarget::Pdp(CloudId(0)),
    ] {
        let spec = ScenarioSpec {
            script: vec![ScriptedAction::CrashRestart {
                at: 250 * MILLIS,
                target,
            }],
            ..ScenarioSpec::canonical(&config)
        };
        let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(crashed.crash_restarts, 1, "{target:?}");
        assert_eq!(
            first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
            None,
            "{target:?}: recovery must lose and repeat nothing"
        );
    }
}

#[test]
fn li_crash_during_a_stall_loses_queued_entries_and_alerts() {
    // Entries delivered to a *stalled* LI queue in process memory
    // and are never WAL-acknowledged; a crash during the stall
    // loses them, and the monitor must surface that as MissingLog
    // alerts rather than silently resurrecting the data.
    let mut config = base_config();
    config.total_requests = 60;
    config.group_timeout = 2 * SECONDS;
    let spec = ScenarioSpec {
        script: vec![
            ScriptedAction::StallLi {
                at: 0,
                until: 600 * MILLIS,
                tenant: TenantId(1),
            },
            ScriptedAction::CrashRestart {
                at: 300 * MILLIS, // mid-stall, with entries queued
                target: CrashTarget::Li(TenantId(1)),
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0, "a fault is not an attack");
    assert_eq!(report.crash_restarts, 1);
    assert!(
        report
            .alerts
            .iter()
            .any(|a| matches!(a.kind, crate::alert::AlertKind::MissingLog { .. })),
        "lost stalled entries must surface as MissingLog: {:?}",
        report.alerts
    );
    assert!(report.groups_completed < report.requests_completed);
}

#[test]
fn chain_crash_with_pending_mempool_recovers_the_backlog() {
    // Crash the node right before a mine tick: whatever the LIs
    // submitted since the last block sits in the mempool and must
    // come back from the journal, or groups would be lost for good.
    let mut config = base_config();
    config.total_requests = 80;
    config.request_rate_per_sec = 400.0; // dense traffic between blocks
    let spec = ScenarioSpec {
        script: vec![ScriptedAction::CrashRestart {
            at: 499 * MILLIS, // one tick before the 500 ms block
            target: CrashTarget::ChainNode,
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0);
    assert_eq!(report.requests_completed, 80);
    assert_eq!(report.groups_completed, 80, "no group may be lost");
    assert_eq!(report.entries_logged, 320);
    assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
}

#[test]
fn lossy_link_is_masked_by_retries_without_false_alerts() {
    // A 20%-drop window across every link: retransmissions push all
    // requests through, the sweep runs widened across the window,
    // and an honest run stays alert-free.
    use drams_faas::fault::LinkFault;
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        faults: FaultPlan {
            links: vec![LinkFault {
                drop_permille: 200,
                active_from: 0,
                active_until: 2 * SECONDS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        },
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0);
    assert_eq!(report.requests_completed, 60, "retries mask the loss");
    assert_eq!(report.requests_dropped, 0);
    assert!(report.faults.dropped > 0, "the plan must actually bite");
    assert!(report.retries_total > 0);
    assert_eq!(report.timeout_retunes, 2, "one widen + one restore");
    assert_eq!(report.groups_completed, 60);
    assert!(
        report.alerts.is_empty(),
        "faults are not attacks: {:?}",
        report.alerts
    );
}

#[test]
fn partition_spills_li_backlog_and_replays_on_heal() {
    // Cloud 0 loses the infrastructure for a second: its PEPs retry
    // their way through, its LIs spill to the WAL and replay on
    // heal; nothing is lost, nothing alerts.
    use drams_faas::fault::PartitionWindow;
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        faults: FaultPlan {
            links: Vec::new(),
            partitions: vec![PartitionWindow {
                a: Site::Cloud(CloudId(0)),
                b: Site::Infra,
                from: 200 * MILLIS,
                until: 1200 * MILLIS,
            }],
        },
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0);
    assert_eq!(report.requests_completed, 60);
    assert!(report.faults.partition_blocked > 0);
    assert!(report.li_spilled > 0, "cloud-0 LIs must have spilled");
    assert!(report.li_replayed > 0, "the spill must replay on heal");
    assert!(report.spill_recovery.report().count > 0);
    assert_eq!(report.groups_completed, 60, "no observation may be lost");
    assert!(
        report.alerts.is_empty(),
        "a healed partition must not alert: {:?}",
        report.alerts
    );
}

#[test]
fn pdp_outage_fails_over_to_a_healthy_cloud() {
    // Per-cloud placement: cloud 0's PDP goes dark, the breaker
    // trips after three timeouts and *new* interceptions complete on
    // cloud 1's PDP instead; the few in-flight stragglers retry
    // slot-sticky and land once the outage (shorter than the group
    // timeout) ends, so nothing alerts.
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        placement: PdpPlacement::PerCloud,
        script: vec![ScriptedAction::SilencePdp {
            at: 0,
            until: 1500 * MILLIS,
            cloud: CloudId(0),
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0);
    assert_eq!(report.requests_completed, 60, "failover serves them all");
    assert_eq!(report.requests_dropped, 0);
    assert!(report.breaker_trips > 0, "the breaker must have tripped");
    assert!(report.failovers > 0, "requests must have failed over");
    assert!(report.failover_e2e.report().count > 0);
    assert_eq!(report.failover_e2e.report().count as u64, report.failovers);
    assert!(
        report.alerts.is_empty(),
        "failover keeps the pipeline observable: {:?}",
        report.alerts
    );
}

#[test]
fn pdp_crash_under_duplicating_faults_stays_twin_identical() {
    // The journaled decision cache is what makes a crashed PDP
    // idempotent: under a duplicating/reordering fault plan, the
    // crashed run must match the uninterrupted one byte for byte
    // (a lost cache would re-decide a retransmission, stamp a new
    // `decided_at` and trip the digest cross-check).
    use drams_faas::fault::LinkFault;
    let mut config = base_config();
    config.total_requests = 60;
    let faults = FaultPlan {
        links: vec![LinkFault {
            duplicate_permille: 300,
            reorder_permille: 200,
            reorder_spread: 5 * MILLIS,
            active_from: 0,
            active_until: 1500 * MILLIS,
            ..LinkFault::default()
        }],
        partitions: Vec::new(),
    };
    let clean_spec = ScenarioSpec {
        faults: faults.clone(),
        ..ScenarioSpec::canonical(&config)
    };
    let crashed_spec = ScenarioSpec {
        script: vec![ScriptedAction::CrashRestart {
            at: 250 * MILLIS,
            target: CrashTarget::Pdp(CloudId(0)),
        }],
        ..clean_spec.clone()
    };
    let (clean, clean_truth) = run_scenario(&clean_spec, &mut NoAdversary);
    let (crashed, crashed_truth) = run_scenario(&crashed_spec, &mut NoAdversary);
    assert!(clean.faults.duplicated > 0, "the plan must actually bite");
    assert_eq!(crashed.crash_restarts, 1);
    assert_eq!(
        first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
        None,
        "recovery must lose and repeat nothing"
    );
}

#[test]
fn attacks_are_still_detected_under_faults() {
    // The robustness bar from the threat matrix: a log-dropping
    // adversary mounted *during* a lossy window must still be
    // detected once the degraded-mode timeout restores.
    use drams_faas::fault::LinkFault;
    let mut config = base_config();
    config.total_requests = 60;
    let spec = ScenarioSpec {
        faults: FaultPlan {
            links: vec![LinkFault {
                drop_permille: 150,
                active_from: 0,
                active_until: 1500 * MILLIS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        },
        ..ScenarioSpec::canonical(&config)
    };
    struct EveryNthLogDropper {
        seen: u64,
    }
    impl crate::adversary::Adversary for EveryNthLogDropper {
        fn drop_log(&mut self, _entry: &crate::logent::LogEntry, now: SimTime) -> bool {
            if now >= 1500 * MILLIS {
                return false; // attack only inside the fault window
            }
            self.seen += 1;
            self.seen % 9 == 0
        }
    }
    let mut adversary = EveryNthLogDropper { seen: 0 };
    let (report, truth) = run_scenario(&spec, &mut adversary);
    assert!(!truth.dropped_logs.is_empty(), "the attack must have fired");
    for (corr, point) in &truth.dropped_logs {
        assert!(
            report.alerts.iter().any(|a| {
                a.correlation == *corr
                    && matches!(&a.kind,
                        crate::alert::AlertKind::MissingLog { point: p } if p == point)
            }),
            "dropped ({corr:?}, {point:?}) must alert even under faults"
        );
    }
    let truly_attacked: std::collections::HashSet<_> =
        truth.dropped_logs.iter().map(|(c, _)| *c).collect();
    for a in &report.alerts {
        assert!(
            truly_attacked.contains(&a.correlation),
            "no fault-induced false positive allowed: {a:?}"
        );
    }
}

#[test]
fn federation_scales_with_per_cloud_pdps() {
    let config = MonitorConfig {
        federation: FederationSpec::symmetric(4, 1, 2),
        total_requests: 60,
        request_rate_per_sec: 150.0,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        placement: PdpPlacement::PerCloud,
        ..ScenarioSpec::canonical(&config)
    };
    let (report, _) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(report.requests_completed, 60);
    assert_eq!(report.groups_completed, 60);
    assert!(report.alerts.is_empty());
}

#[test]
fn clamp_rate_bounds_pathological_rates() {
    assert_eq!(clamp_rate(f64::INFINITY), MIN_REQUEST_RATE);
    assert_eq!(clamp_rate(f64::NAN), MIN_REQUEST_RATE);
    assert_eq!(clamp_rate(f64::NEG_INFINITY), MIN_REQUEST_RATE);
    assert_eq!(clamp_rate(-3.0), MIN_REQUEST_RATE);
    assert_eq!(clamp_rate(0.0), MIN_REQUEST_RATE);
    assert_eq!(clamp_rate(1e18), MAX_REQUEST_RATE);
    assert_eq!(clamp_rate(0.001), MIN_REQUEST_RATE);
    assert_eq!(clamp_rate(100.0), 100.0, "sane rates pass untouched");
}

#[test]
fn load_profile_clamping_floors_retention_and_caps_population() {
    let wild = LoadProfile {
        population: 50_000_000,
        zipf_exponent: f64::NAN,
        diurnal: vec![DiurnalBand {
            start: 0,
            multiplier_permille: 0,
        }],
        spikes: vec![FlashCrowd {
            from: 5 * SECONDS,
            until: SECONDS, // inverted window
            multiplier_permille: 9_999_999,
        }],
        pep_inflight_cap: 4,
        li_resident_cap: 4,
        idempotency_retention: 1,    // below the safety floor
        analyser_retire_lag: 1,      // below the safety floor
        policy_history_retention: 1, // below the safety floor
        chain_compact_interval: 8,
    };
    let sane = wild.clamped();
    assert_eq!(sane.population, MAX_POPULATION);
    assert!(sane.zipf_exponent.is_finite());
    assert!(sane.diurnal[0].multiplier_permille >= 1);
    assert!(sane.spikes[0].until >= sane.spikes[0].from);
    assert!(sane.spikes[0].multiplier_permille <= MAX_LOAD_MULTIPLIER_PERMILLE);
    assert_eq!(
        sane.idempotency_retention, MIN_RETENTION,
        "retention below the retry budget would break idempotency"
    );
    assert_eq!(sane.analyser_retire_lag, MIN_RETENTION);
    assert_eq!(sane.policy_history_retention, MIN_RETENTION);
    // Zero stays zero: the feature stays off rather than being
    // silently enabled at the floor.
    let off = LoadProfile::default().clamped();
    assert_eq!(off.idempotency_retention, 0);
    assert_eq!(off.analyser_retire_lag, 0);
    assert_eq!(off.policy_history_retention, 0);
}

#[test]
fn pathological_rates_still_terminate() {
    // An infinite base rate and a NaN phase must clamp rather than
    // hang the Poisson sampler or divide the gap to zero forever.
    let mut config = base_config();
    config.total_requests = 8;
    config.request_rate_per_sec = f64::INFINITY;
    let spec = ScenarioSpec {
        phases: vec![Phase {
            start: 50 * MILLIS,
            rate_per_sec: f64::NAN,
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(report.requests_issued, 8);
    assert_eq!(report.requests_completed, 8);
    assert_eq!(truth.total_attacks(), 0);
    assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
    assert!(report.finished_at < config.horizon);
}

#[test]
fn honest_overload_sheds_without_false_alerts() {
    // A Zipf-skewed flash crowd slams a PEP capped at 8 in-flight
    // requests: the overflow is shed *before* interception, so no
    // group ever opens for a shed request and an honest run stays
    // alert-free; every bounded buffer must respect its cap.
    let mut config = base_config();
    config.total_requests = 300;
    config.request_rate_per_sec = 3000.0;
    let spec = ScenarioSpec {
        load: LoadProfile {
            population: 800,
            zipf_exponent: 1.1,
            spikes: vec![FlashCrowd {
                from: 0,
                until: SECONDS,
                multiplier_permille: 3000,
            }],
            pep_inflight_cap: 8,
            li_resident_cap: 4,
            ..LoadProfile::default()
        },
        ..ScenarioSpec::canonical(&config)
    };
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(truth.total_attacks(), 0);
    assert!(report.requests_shed > 0, "the cap must have bitten");
    assert!(report.degraded_admissions > 0, "watermark must trip first");
    assert_eq!(
        report.requests_completed,
        report.requests_issued - report.requests_shed,
        "every admitted request completes, every shed one vanishes"
    );
    assert!(report.peak.pep_inflight <= 8, "{:?}", report.peak);
    assert!(report.peak.li_resident <= 4, "{:?}", report.peak);
    assert!(
        report.alerts.is_empty(),
        "shedding is not an attack: {:?}",
        report.alerts
    );
}

#[test]
fn idempotency_eviction_is_invisible_under_retransmission() {
    // Satellite property: evicting journaled decisions older than
    // the retention floor must never change an idempotent
    // retransmission answer — a duplicating/reordering fault plan
    // exercises the cache all run long, and the capped run must be
    // byte-identical to its unbounded twin while actually evicting.
    use drams_faas::fault::LinkFault;
    let mut config = base_config();
    config.total_requests = 110;
    config.request_rate_per_sec = 5.0; // ~22 s of arrivals, past the floor
    let faults = FaultPlan {
        links: vec![LinkFault {
            duplicate_permille: 300,
            reorder_permille: 200,
            reorder_spread: 5 * MILLIS,
            active_from: 0,
            active_until: 25 * SECONDS,
            ..LinkFault::default()
        }],
        partitions: Vec::new(),
    };
    let unbounded_spec = ScenarioSpec {
        faults: faults.clone(),
        ..ScenarioSpec::canonical(&config)
    };
    let capped_spec = ScenarioSpec {
        load: LoadProfile {
            idempotency_retention: MIN_RETENTION,
            ..LoadProfile::default()
        },
        ..unbounded_spec.clone()
    };
    let (unbounded, unbounded_truth) = run_scenario(&unbounded_spec, &mut NoAdversary);
    let (capped, capped_truth) = run_scenario(&capped_spec, &mut NoAdversary);
    assert!(unbounded.faults.duplicated > 0, "the plan must bite");
    assert!(capped.idempotency_evictions > 0, "eviction must happen");
    assert!(
        capped.peak.pdp_idempotency < unbounded.peak.pdp_idempotency,
        "capped {} vs unbounded {}",
        capped.peak.pdp_idempotency,
        unbounded.peak.pdp_idempotency
    );
    assert_eq!(
        first_divergence(&unbounded, &unbounded_truth, &capped, &capped_truth),
        None,
        "eviction may never change an answered decision"
    );
}

#[test]
fn analyser_retirement_never_drops_or_repeats_an_alert() {
    // Satellite property: pruning closed decision groups from
    // contract storage (after the retirement lag) must not lose or
    // duplicate any alert. A stalled LI plants genuine MissingLog
    // alerts; the retired run must report the same alert bytes as
    // its unpruned twin while measurably shrinking storage.
    let mut config = base_config();
    config.total_requests = 140;
    config.request_rate_per_sec = 6.0; // ~23 s: traffic outlives the lag
    let base_spec = ScenarioSpec {
        script: vec![ScriptedAction::StallLi {
            at: 200 * MILLIS,
            until: 6 * SECONDS, // outlives the sweep of early groups
            tenant: TenantId(1),
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let retired_spec = ScenarioSpec {
        load: LoadProfile {
            analyser_retire_lag: MIN_RETENTION,
            ..LoadProfile::default()
        },
        ..base_spec.clone()
    };
    let (unpruned, unpruned_truth) = run_scenario(&base_spec, &mut NoAdversary);
    let (retired, retired_truth) = run_scenario(&retired_spec, &mut NoAdversary);
    assert!(
        !unpruned.alerts.is_empty(),
        "the stall must raise real alerts"
    );
    assert!(retired.groups_retired > 0, "retirement must happen");
    // Not `first_divergence`: retirement commits transactions of its
    // own, so `txs_committed` legitimately differs (285 vs 330 here).
    assert_eq!(unpruned_truth, retired_truth);
    assert_eq!(unpruned.requests_completed, retired.requests_completed);
    assert_eq!(unpruned.entries_logged, retired.entries_logged);
    assert_eq!(unpruned.groups_completed, retired.groups_completed);
    assert_eq!(
        unpruned.alert_bytes(),
        retired.alert_bytes(),
        "pruning may never drop or repeat an alert"
    );
    assert!(
        retired.peak.contract_storage < unpruned.peak.contract_storage,
        "retired {} vs unpruned {}",
        retired.peak.contract_storage,
        unpruned.peak.contract_storage
    );
}

#[test]
fn chain_compaction_bounds_journal_growth_without_changing_the_run() {
    // Snapshot-and-prune of the chain node's journal every N blocks
    // must leave the run's observable behaviour untouched while
    // keeping the live journal window bounded.
    let mut config = base_config();
    config.total_requests = 80;
    let plain_spec = ScenarioSpec::canonical(&config);
    let compacted_spec = ScenarioSpec {
        load: LoadProfile {
            chain_compact_interval: 4,
            ..LoadProfile::default()
        },
        ..plain_spec.clone()
    };
    let (plain, plain_truth) = run_scenario(&plain_spec, &mut NoAdversary);
    let (compacted, compacted_truth) = run_scenario(&compacted_spec, &mut NoAdversary);
    assert!(compacted.journal_compactions > 0);
    assert_eq!(
        first_divergence(&plain, &plain_truth, &compacted, &compacted_truth),
        None
    );
    assert!(
        compacted.peak.chain_journal_records < plain.peak.chain_journal_records,
        "compacted {} vs plain {}",
        compacted.peak.chain_journal_records,
        plain.peak.chain_journal_records
    );
}
