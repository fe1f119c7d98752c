//! Determinism guarantees: correlation maps are reproducible run-to-run.
//!
//! Thread scheduling varies between runs, but the master groups TCM rounds by
//! interval number (not arrival order), sampling decisions are pure functions of
//! sequence numbers, and the workloads are seeded — so the recovered maps must be
//! bit-identical across repeated runs.

use std::sync::Arc;

use jessy::prelude::*;
use jessy::runtime::{ClusterBuilder, RebalanceConfig};
use jessy::workloads::{barnes_hut, lu, phase_shift, sessions, sor, water};
use proptest::prelude::*;

fn run_once(kind: WorkloadKind) -> Tcm {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(4));
    config.intervals_per_round = 2;
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .build();
    match kind {
        WorkloadKind::Sor => {
            let cfg = sor::SorConfig::small();
            let h = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| sor::thread_body(jt, &cfg, &h));
        }
        WorkloadKind::BarnesHut => {
            let cfg = barnes_hut::BhConfig::small();
            let h = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| barnes_hut::thread_body(jt, &cfg, &h));
        }
        WorkloadKind::WaterSpatial => {
            let cfg = water::WaterConfig::small();
            let h = Arc::new(cluster.init(|ctx| water::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| water::thread_body(jt, &cfg, &h));
        }
        WorkloadKind::Lu => {
            let cfg = lu::LuConfig::small();
            let h = Arc::new(cluster.init(|ctx| lu::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| lu::thread_body(jt, &cfg, &h));
        }
        // The drift-era workloads have their own reproducibility properties
        // below (journal + drift trajectory included, drift watching on).
        WorkloadKind::PhaseShift => {
            phase_shift::run_on(&mut cluster, phase_shift::PhaseShiftConfig::small());
        }
        WorkloadKind::Sessions => {
            sessions::run_on(&mut cluster, sessions::SessionsConfig::small());
        }
    }
    cluster.master_output().unwrap().tcm.clone()
}

#[test]
fn sor_tcm_is_reproducible() {
    let a = run_once(WorkloadKind::Sor);
    let b = run_once(WorkloadKind::Sor);
    assert_eq!(a.raw(), b.raw(), "SOR map must be bit-identical across runs");
    assert!(a.total() > 0.0);
}

#[test]
fn barnes_hut_tcm_is_reproducible() {
    let a = run_once(WorkloadKind::BarnesHut);
    let b = run_once(WorkloadKind::BarnesHut);
    assert_eq!(a.raw(), b.raw());
}

#[test]
fn lu_tcm_is_reproducible() {
    let a = run_once(WorkloadKind::Lu);
    let b = run_once(WorkloadKind::Lu);
    assert_eq!(a.raw(), b.raw());
}

#[test]
fn water_tcm_is_reproducible_in_structure() {
    // Water's rebind phase takes per-box locks whose acquisition order varies with
    // scheduling, so its OAL stream is only structurally stable: assert the maps agree
    // to within a tight tolerance rather than bit-exactly.
    let a = run_once(WorkloadKind::WaterSpatial);
    let b = run_once(WorkloadKind::WaterSpatial);
    let acc = jessy::core::accuracy_abs(&a, &b);
    assert!(acc > 0.95, "water maps diverged: {acc}");
}

// ---------------------------------------------------------------- drift-era
// workloads. Phase-shift and sessions stress the controller (a mid-run flip,
// Zipf-skewed short-lived sessions), so reproducibility is asserted with drift
// watching ON and over the full observable surface: TCM bits, the canonical
// journal, and the drift/re-activation trajectory itself.

/// Drift-watching profiler used by the reproducibility properties.
fn drift_profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.adaptive_threshold = Some(0.1);
    config.drift_threshold = Some(0.3);
    config.drift_hysteresis_rounds = 2;
    config.drift_max_reactivations = 8;
    config
}

/// One traced run: (journal lines, TCM bits, drift re-activations).
fn traced_run(body: impl FnOnce(&mut Cluster) -> RunReport) -> (String, Vec<f64>, u64) {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(8)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(drift_profiler())
        .trace(sink.clone())
        .build();
    let report = body(&mut cluster);
    let master = report.master.as_ref().expect("master ran");
    (
        to_json_lines(&sink.sorted_events()),
        master.tcm.raw().to_vec(),
        master.drift_reactivations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Phase-shift is reproducible for any flip point — including the journal
    /// and the drift trajectory, which is what replay/debugging leans on.
    #[test]
    fn phase_shift_runs_are_reproducible(flip_round in 2usize..8) {
        let cfg = phase_shift::PhaseShiftConfig {
            flip_round,
            ..phase_shift::PhaseShiftConfig::small()
        };
        let a = traced_run(|c| phase_shift::run_on(c, cfg));
        let b = traced_run(|c| phase_shift::run_on(c, cfg));
        prop_assert_eq!(a.1, b.1, "TCM must be bit-identical");
        prop_assert_eq!(a.2, b.2, "drift trajectory must replay");
        prop_assert_eq!(a.0, b.0, "journals must match line for line");
    }

    /// Sessions is reproducible for any workload seed and skew: every random
    /// draw is keyed by (seed, thread, session), never by scheduling.
    #[test]
    fn sessions_runs_are_reproducible(seed in 0u64..1_000_000, zipf_s in 0.5f64..1.5) {
        let cfg = sessions::SessionsConfig {
            seed,
            zipf_s,
            ..sessions::SessionsConfig::small()
        };
        let a = traced_run(|c| sessions::run_on(c, cfg));
        let b = traced_run(|c| sessions::run_on(c, cfg));
        prop_assert_eq!(a.1, b.1, "TCM must be bit-identical");
        prop_assert_eq!(a.2, b.2, "drift trajectory must replay");
        prop_assert_eq!(a.0, b.0, "journals must match line for line");
    }
}

// ---------------------------------------------------------------- golden
// outputs. Everything above compares two runs of the same build, so a schedule
// that stays deterministic but reorders steps would pass it. These lanes pin
// zero-jitter outputs as constants: an FNV-1a digest of the serialized
// `DeterministicReport` and of the canonical journal. A change that moves one
// of them changed the simulated result and must say why.

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(report digest, journal digest)` of one run.
type Digests = (u64, u64);

/// The digests of one zero-jitter traced run on the default cost models.
fn golden_run(builder: ClusterBuilder, body: impl FnOnce(&mut Cluster) -> RunReport) -> Digests {
    let sink = JournalSink::shared();
    let mut cluster = builder
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .exec_jitter(0)
        .trace(sink.clone())
        .build();
    let report = body(&mut cluster);
    let text = serde_json::to_string(&report.deterministic()).expect("reports serialize");
    let journal = to_json_lines(&sink.sorted_events());
    (fnv1a(text.as_bytes()), fnv1a(journal.as_bytes()))
}

fn tracking_builder(nodes: usize, threads: usize) -> ClusterBuilder {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(4));
    config.intervals_per_round = 2;
    Cluster::builder().nodes(nodes).threads(threads).profiler(config)
}

fn drift_builder() -> ClusterBuilder {
    Cluster::builder().nodes(4).threads(8).profiler(drift_profiler())
}

/// SOR starting scattered round-robin over 4 nodes, with continuous placement,
/// home migration, prefetch, Nonstop footprinting and stack sampling.
fn migrating_sor() -> Digests {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.footprint = Some(FootprintConfig {
        mode: FootprintMode::Nonstop,
        min_gap: 1,
    });
    config.stack = Some(StackSamplingConfig {
        gap_ns: 1000,
        lazy_extraction: true,
    });
    let builder = Cluster::builder()
        .nodes(4)
        .threads(8)
        .placement((0..8).map(|t| NodeId(t % 4)).collect())
        .rebalance(RebalanceConfig {
            after_rounds: 1,
            every_rounds: Some(2),
            cooldown_rounds: 64,
            with_prefetch: true,
            min_gain_bytes: 64.0,
            gain_horizon_rounds: 64.0,
            migration_budget_bytes: None,
            migrate_homes: true,
        })
        .profiler(config);
    let cfg = sor::SorConfig {
        rounds: 8,
        ..sor::SorConfig::small()
    };
    golden_run(builder, |c| {
        let report = sor::run_on(c, cfg);
        let placement = &report.master.as_ref().expect("master ran").placement;
        assert!(placement.applied_migrations > 0, "the lane must migrate");
        assert!(placement.homes_migrated > 0, "the lane must migrate homes");
        report
    })
}

#[test]
fn zero_jitter_outputs_match_their_golden_digests() {
    let lanes: [(&str, Digests, Digests); 6] = [
        (
            "sor",
            golden_run(tracking_builder(2, 4), |c| sor::run_on(c, sor::SorConfig::small())),
            (0x2060_3b2d_47ae_8b1c, 0xc690_2483_cd98_53e6),
        ),
        (
            "water",
            golden_run(tracking_builder(2, 4), |c| {
                water::run_on(c, water::WaterConfig::small())
            }),
            (0x3b2e_272e_7cd9_34fa, 0x72e8_db56_300e_b7c5),
        ),
        (
            "barnes_hut",
            golden_run(tracking_builder(2, 4), |c| {
                barnes_hut::run_on(c, barnes_hut::BhConfig::small())
            }),
            (0x0e5b_001b_7f74_52a1, 0xcbf1_1c31_f84a_54ea),
        ),
        (
            "sessions",
            golden_run(drift_builder(), |c| {
                sessions::run_on(c, sessions::SessionsConfig::small())
            }),
            (0x9897_594f_536e_03af, 0x4fab_c391_5c63_caec),
        ),
        (
            "phase_shift",
            golden_run(drift_builder(), |c| {
                phase_shift::run_on(c, phase_shift::PhaseShiftConfig::small())
            }),
            (0xee38_4d06_41f3_14b1, 0xd763_1633_b74f_3ba0),
        ),
        ("sor_migrating", migrating_sor(), (0x9fe5_6286_538a_601b, 0x9416_9018_719e_4348)),
    ];
    let moved: Vec<String> = lanes
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, (r, j), _)| format!("{name}: report {r:#018x}, journal {j:#018x}"))
        .collect();
    assert!(moved.is_empty(), "golden outputs moved:\n{}", moved.join("\n"));
}
