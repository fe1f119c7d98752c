//! The three benchmark workloads: their configs, set-up, run and output checks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use jessy_core::{
    FootprintConfig, FootprintMode, ProfilerConfig, SamplingRate, StackSamplingConfig,
};
use jessy_gos::CostModel;
use jessy_net::{LatencyModel, NodeId, ThreadId};
use jessy_runtime::{Cluster, JThread, RebalanceConfig, RunReport};
use jessy_workloads::{sessions, sor, water};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulated application threads in every workload.
pub const THREADS: usize = 8;
/// Nodes of `sor_migrate`; its threads start round-robin over them, which
/// scatters every pair of neighbouring row blocks.
const SOR_NODES: usize = 4;
/// Nodes of `water` and `sessions`: one thread per node.
const FLAT_NODES: usize = 8;

/// Relative tolerance of the SOR checksum against the sequential reference
/// (the same bound the workload's own end-to-end test uses).
const SOR_TOLERANCE: f64 = 1e-9;

/// Which workload a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SorMigrate,
    Water,
    Sessions,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SorMigrate, Kind::Water, Kind::Sessions];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SorMigrate => "sor_migrate",
            Kind::Water => "water",
            Kind::Sessions => "sessions",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload's full input, generated from the benchmark seed.
#[derive(Debug)]
pub enum Config {
    /// SOR has no random input, so the seed sizes the grid instead: it adds
    /// 0 to 3 blocks of 8 rows to 1024 × 1024, and so moves the simulated
    /// makespan by under 3%. A seed that is 0 mod 4 gives the placement
    /// bench's 1024² "migrated" lane.
    SorMigrate {
        cfg: sor::SorConfig,
        placement: Vec<NodeId>,
    },
    Water(water::WaterConfig),
    Sessions(sessions::SessionsConfig),
}

impl Config {
    pub fn new(kind: Kind, seed: u64) -> Config {
        match kind {
            Kind::SorMigrate => {
                let extra_rows = 8 * (seed % 4) as usize;
                Config::SorMigrate {
                    cfg: sor::SorConfig {
                        n: 1024 + extra_rows,
                        m: 1024,
                        rounds: 20,
                        omega: 1.25,
                    },
                    placement: (0..THREADS)
                        .map(|t| NodeId((t % SOR_NODES) as u16))
                        .collect(),
                }
            }
            Kind::Water => Config::Water(water::WaterConfig {
                rounds: 10,
                seed,
                ..water::WaterConfig::paper()
            }),
            Kind::Sessions => Config::Sessions(sessions::SessionsConfig {
                n_items: 4096,
                zipf_s: 1.1,
                sessions_per_thread: 240,
                ops_per_session: 64,
                seed,
            }),
        }
    }

    fn nodes(&self) -> usize {
        match self {
            Config::SorMigrate { .. } => SOR_NODES,
            Config::Water(_) | Config::Sessions(_) => FLAT_NODES,
        }
    }

    fn profiler(&self) -> ProfilerConfig {
        match self {
            // The placement bench's "migrated" lane: sticky-set resolution needs
            // the footprint estimator and the stack sampler.
            Config::SorMigrate { .. } => {
                let mut p = ProfilerConfig::tracking_at(SamplingRate::NX(1));
                p.intervals_per_round = 1;
                p.footprint = Some(FootprintConfig {
                    mode: FootprintMode::Nonstop,
                    min_gap: 1,
                });
                p.stack = Some(StackSamplingConfig {
                    gap_ns: 1000,
                    lazy_extraction: true,
                });
                p
            }
            Config::Water(_) => ProfilerConfig::tracking_at(SamplingRate::NX(4)),
            Config::Sessions(_) => {
                let mut p = ProfilerConfig::tracking_at(SamplingRate::NX(1));
                p.adaptive_threshold = Some(0.1);
                p.drift_threshold = Some(0.3);
                p
            }
        }
    }

    /// Build the cluster (`ClusterBuilder::build`).
    pub fn build(&self) -> Cluster {
        let mut builder = Cluster::builder()
            .nodes(self.nodes())
            .threads(THREADS)
            .latency(LatencyModel::fast_ethernet())
            .costs(CostModel::pentium4_2ghz())
            .exec_jitter(0)
            .profiler(self.profiler());
        if let Config::SorMigrate { placement, .. } = self {
            builder = builder
                .placement(placement.clone())
                .rebalance(RebalanceConfig {
                    after_rounds: 1,
                    every_rounds: Some(2),
                    cooldown_rounds: 64,
                    with_prefetch: true,
                    min_gain_bytes: 64.0,
                    gain_horizon_rounds: 64.0,
                    migration_budget_bytes: None,
                    migrate_homes: true,
                });
        }
        builder.build()
    }

    /// Allocate the workload's shared data (`Cluster::init` with its `setup`).
    pub fn init(&self, cluster: &Cluster) -> Handles {
        let nodes = self.nodes();
        match self {
            Config::SorMigrate { cfg, .. } => Handles::Sor(Arc::new(
                cluster.init(|ctx| sor::setup(ctx, cfg, THREADS, nodes)),
            )),
            Config::Water(cfg) => Handles::Water(Arc::new(
                cluster.init(|ctx| water::setup(ctx, cfg, THREADS, nodes)),
            )),
            Config::Sessions(cfg) => Handles::Sessions(Arc::new(
                cluster.init(|ctx| sessions::setup(ctx, cfg, nodes)),
            )),
        }
    }

    /// The workload's `thread_body`, bound to its config and handles.
    pub fn body(&self, handles: &Handles) -> Arc<dyn Fn(&mut JThread) + Send + Sync> {
        match (self, handles) {
            (Config::SorMigrate { cfg, .. }, Handles::Sor(h)) => {
                let (cfg, h) = (*cfg, Arc::clone(h));
                Arc::new(move |jt| sor::thread_body(jt, &cfg, &h))
            }
            (Config::Water(cfg), Handles::Water(h)) => {
                let (cfg, h) = (*cfg, Arc::clone(h));
                Arc::new(move |jt| water::thread_body(jt, &cfg, &h))
            }
            (Config::Sessions(cfg), Handles::Sessions(h)) => {
                let (cfg, h) = (*cfg, Arc::clone(h));
                Arc::new(move |jt| sessions::thread_body(jt, &cfg, &h))
            }
            _ => unreachable!("handles come from this config's init"),
        }
    }

    /// What [`Config::check`] compares the outputs with: the sequential SOR
    /// reference, or the sessions catalog's race bounds.
    pub fn expected(&self) -> Expected {
        match self {
            Config::SorMigrate { cfg, .. } => {
                Expected::SorSum(sor::reference(cfg).iter().flatten().sum())
            }
            Config::Water(_) => Expected::Water,
            Config::Sessions(cfg) => Expected::ItemBounds(sessions_item_bounds(cfg)),
        }
    }

    /// Check the run's outputs, read back through the GOS after the run.
    pub fn check(
        &self,
        cluster: &Cluster,
        handles: &Handles,
        expected: &Expected,
    ) -> Result<(), String> {
        let mut reader = cluster.adopt_thread(ThreadId(0));
        match (self, handles, expected) {
            (Config::SorMigrate { .. }, Handles::Sor(h), &Expected::SorSum(want)) => {
                let sum = sor::checksum(&mut reader, h);
                if (sum - want).abs() >= SOR_TOLERANCE * want.abs().max(1.0) {
                    return Err(format!("SOR checksum {sum} vs sequential reference {want}"));
                }
            }
            (Config::Water(cfg), Handles::Water(h), Expected::Water) => {
                check_water(&mut reader, cfg, h)?
            }
            (Config::Sessions(cfg), Handles::Sessions(h), Expected::ItemBounds(bounds)) => {
                check_sessions(&mut reader, cluster, cfg, h, bounds)?
            }
            _ => unreachable!("handles and expectations come from this config"),
        }
        Ok(())
    }
}

/// Expected outputs of one input; see [`Config::expected`].
pub enum Expected {
    SorSum(f64),
    Water,
    ItemBounds(Vec<(u64, u64)>),
}

/// Handles returned by a workload's `setup`.
pub enum Handles {
    Sor(Arc<sor::SorHandles>),
    Water(Arc<water::WaterHandles>),
    Sessions(Arc<sessions::SessionsHandles>),
}

/// Every molecule sits in exactly one box and inside the walls, and the
/// kinetic energy is finite.
fn check_water(
    reader: &mut JThread,
    cfg: &water::WaterConfig,
    h: &water::WaterHandles,
) -> Result<(), String> {
    let mut boxes_of = vec![0u32; h.molecules.len()];
    for &b in &h.boxes {
        let members: Vec<usize> = reader.read(b, |d| {
            d[1..1 + d[0] as usize]
                .iter()
                .map(|&m| m as usize)
                .collect()
        });
        for m in members {
            let slot = boxes_of
                .get_mut(m)
                .ok_or_else(|| format!("box lists unknown molecule {m}"))?;
            *slot += 1;
        }
    }
    if let Some(m) = boxes_of.iter().position(|&n| n != 1) {
        return Err(format!("molecule {m} is in {} boxes", boxes_of[m]));
    }
    let side = cfg.side();
    for (m, &obj) in h.molecules.iter().enumerate() {
        let p = reader.read(obj, |d| [d[0], d[1], d[2]]);
        if !p.iter().all(|&x| (0.0..=side).contains(&x)) {
            return Err(format!("molecule {m} left the domain: {p:?}"));
        }
    }
    let energy = water::kinetic_energy(reader, h);
    if !energy.is_finite() {
        return Err(format!("kinetic energy {energy}"));
    }
    Ok(())
}

/// Bounds on each catalog item's final write count, re-derived from the
/// workload's seeded per-`(thread, session)` draw streams.
///
/// Catalog writes are unsynchronized read-modify-writes (`d[0] += 1`) between
/// session barriers, so under home-based lazy release consistency concurrent
/// increments race: when several threads write an item in one session, the
/// home keeps the diff applied last and the other writers' increments are
/// lost. Per session an item therefore gains at least the smallest of its
/// writers' counts and at most the sum of all of them.
fn sessions_item_bounds(cfg: &sessions::SessionsConfig) -> Vec<(u64, u64)> {
    let cdf = sessions::zipf_cdf(cfg.n_items, cfg.zipf_s);
    let mut bounds = vec![(0u64, 0u64); cfg.n_items];
    let mut counts: BTreeMap<usize, [u64; THREADS]> = BTreeMap::new();
    for session in 0..cfg.sessions_per_thread {
        counts.clear();
        for t in 0..THREADS {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ ((t as u64) << 32) ^ session as u64);
            for op in 0..cfg.ops_per_session {
                let rank = sessions::zipf_draw(&cdf, rng.gen_range(0.0..1.0));
                if op % 4 == 3 {
                    counts.entry(rank).or_default()[t] += 1;
                }
            }
        }
        for (&item, per_thread) in &counts {
            let writers = per_thread.iter().filter(|&&n| n > 0);
            bounds[item].0 += writers.clone().min().copied().unwrap_or(0);
            bounds[item].1 += writers.sum::<u64>();
        }
    }
    bounds
}

/// Every per-session object saw all of its session's writes (it has a
/// single writer), and every catalog item's count is within its race bounds.
fn check_sessions(
    reader: &mut JThread,
    cluster: &Cluster,
    cfg: &sessions::SessionsConfig,
    h: &sessions::SessionsHandles,
    bounds: &[(u64, u64)],
) -> Result<(), String> {
    let mut session_objs = Vec::new();
    cluster
        .shared()
        .gos
        .for_each_object_of_class(h.session_class, |o| session_objs.push(o.id));
    let want_sessions = THREADS * cfg.sessions_per_thread;
    if session_objs.len() != want_sessions {
        return Err(format!(
            "{} session objects, expected {want_sessions}",
            session_objs.len()
        ));
    }
    for id in session_objs {
        let ops = reader.read(id, |d| d[1]);
        if ops != cfg.ops_per_session as f64 {
            return Err(format!("session object {id:?} counted {ops} ops"));
        }
    }
    for (k, (&item, &(lo, hi))) in h.items.iter().zip(bounds).enumerate() {
        let n = reader.read(item, |d| d[0]);
        if !(lo as f64..=hi as f64).contains(&n) {
            return Err(format!("item {k} counted {n} writes, outside [{lo}, {hi}]"));
        }
    }
    Ok(())
}

/// One set-up: the two timed set-up calls and what they produced.
pub struct Prepared {
    pub cluster: Cluster,
    pub handles: Handles,
    pub build_s: f64,
    pub init_s: f64,
}

impl Prepared {
    pub fn new(config: &Config) -> Prepared {
        let t0 = Instant::now();
        let cluster = config.build();
        let build_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let handles = config.init(&cluster);
        let init_s = t1.elapsed().as_secs_f64();
        Prepared {
            cluster,
            handles,
            build_s,
            init_s,
        }
    }

    pub fn setup_s(&self) -> f64 {
        self.build_s + self.init_s
    }
}

/// 64-bit FNV-1a of the run's host-independent report, serialized: equal
/// digests mean equal simulated statistics.
pub fn digest(report: &RunReport) -> u64 {
    let text = serde_json::to_string(&report.deterministic()).expect("reports serialize");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
