//! The traced run: spans around the benchmark's calls into each layer, and the
//! per-layer metrics they and the `RunReport` counters give.
//!
//! Spans are taken from outside the program, at the calls the benchmark makes:
//! `setup.build` (`ClusterBuilder::build`), `setup.init` (`Cluster::init`),
//! `cluster.run` (`Cluster::run`, with process `getrusage` deltas), one
//! `thread_body` span per task inside the run closure (thread `getrusage`, so
//! time parked waiting for the executor token is wall but not CPU) and
//! `cluster.report`. A separate `exec.handoff` probe times bare
//! `DetExecutor` token passes. They are kept in memory and printed at the end.

use std::time::{Duration, Instant};

use jessy_net::{DetExecutor, MsgClass};

use crate::workload::THREADS;
use crate::{attempt, host, median, Input, Metric, Outcome, MB};

/// Yields per task in one `exec.handoff` measurement.
const HANDOFF_YIELDS: u64 = 2000;
/// `exec.handoff` measurements; their median is reported.
const HANDOFF_REPEATS: usize = 5;

/// Mean host wall and CPU seconds of one `DetExecutor` token pass among
/// `n_tasks` tasks, each on its own carrier thread.
fn handoff_s(n_tasks: usize) -> (f64, f64) {
    let exec = DetExecutor::new(n_tasks, 0, 0);
    let cpu0 = host::process();
    let start = Instant::now();
    std::thread::scope(|s| {
        for task in 0..n_tasks {
            let exec = &exec;
            s.spawn(move || {
                exec.register_current(task);
                for now in 1..=HANDOFF_YIELDS {
                    exec.yield_now(task, now);
                }
                exec.finish(task);
            });
        }
    });
    let passes = (n_tasks as u64 * HANDOFF_YIELDS) as f64;
    let cpu = host::process().since(&cpu0).cpu_s();
    (start.elapsed().as_secs_f64() / passes, cpu / passes)
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    cpu_s: Option<f64>,
}

fn print_spans(spans: &[Span], origin: Instant) {
    println!("spans (ms from set-up start; cpu where measured; self = wall - children's cpu):");
    for (i, s) in spans.iter().enumerate() {
        let wall = (s.end - s.start).as_secs_f64();
        let children_cpu: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .filter_map(|c| c.cpu_s)
            .sum();
        println!(
            "  [{i:>2}] {:<16} parent {:>4} start {:>10.3} end {:>10.3} cpu {:>10} self {:>10.3}",
            s.name,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            (s.start - origin).as_secs_f64() * 1e3,
            (s.end - origin).as_secs_f64() * 1e3,
            s.cpu_s
                .map_or("-".to_string(), |c| format!("{:.3}", c * 1e3)),
            (wall - children_cpu) * 1e3,
        );
    }
}

/// One traced run of `input`. Its digest and every `RunReport` counter must
/// equal those of the untraced `reference` run: tracing from outside must not
/// perturb the simulation.
pub fn traced(
    input: &Input,
    reference: &Outcome,
    untraced_wall_s: f64,
) -> Result<Vec<Metric>, String> {
    let out = attempt(input, true)?;
    if out.digest != reference.digest {
        return Err(format!(
            "traced digest {:016x} differs from untraced {:016x}",
            out.digest, reference.digest
        ));
    }
    if out.report.metrics() != reference.report.metrics() {
        return Err("traced RunReport counters differ from the untraced run's".into());
    }
    if out.tasks.len() != THREADS {
        return Err(format!(
            "{} thread_body spans, expected {THREADS}",
            out.tasks.len()
        ));
    }
    let (walls, cpus): (Vec<f64>, Vec<f64>) =
        (0..HANDOFF_REPEATS).map(|_| handoff_s(THREADS + 1)).unzip();
    let (handoff, handoff_cpu) = (median(&walls), median(&cpus));

    // Span tree, rebuilt from the outcome's instants.
    let run_end = out.run_start + Duration::from_secs_f64(out.wall_s);
    let setup_start = out.run_start - Duration::from_secs_f64(out.build_s + out.init_s);
    let init_start = setup_start + Duration::from_secs_f64(out.build_s);
    let mut spans = vec![
        Span {
            name: "setup.build".into(),
            parent: None,
            start: setup_start,
            end: init_start,
            cpu_s: None,
        },
        Span {
            name: "setup.init".into(),
            parent: None,
            start: init_start,
            end: out.run_start,
            cpu_s: None,
        },
        Span {
            name: "cluster.run".into(),
            parent: None,
            start: out.run_start,
            end: run_end,
            cpu_s: Some(out.run_usage.cpu_s()),
        },
    ];
    for t in &out.tasks {
        spans.push(Span {
            name: format!("thread_body.{}", t.task),
            parent: Some(2),
            start: t.start,
            end: t.end,
            cpu_s: Some(t.cpu.cpu_s()),
        });
    }
    spans.push(Span {
        name: "cluster.report".into(),
        parent: None,
        start: run_end,
        end: run_end + Duration::from_secs_f64(out.report_s),
        cpu_s: None,
    });
    print_spans(&spans, setup_start);

    let r = &out.report;
    let u = &out.run_usage;
    let wall = out.wall_s;
    let accesses = r.proto.accesses as f64;
    let worker_cpu: f64 = out.tasks.iter().map(|t| t.cpu.cpu_s()).sum();
    let process_cpu = u.cpu_s();
    let idle = (wall - process_cpu).max(0.0);
    let master_cpu = (process_cpu - worker_cpu).max(0.0);
    let handoffs = u.vcsw as f64;
    let m = r
        .master
        .as_ref()
        .ok_or("the run produced no master output")?;
    let cost_frac = if m.round_cost_fraction.is_empty() {
        0.0
    } else {
        m.round_cost_fraction.iter().sum::<f64>() / m.round_cost_fraction.len() as f64
    };
    let lock_msgs: u64 = [
        MsgClass::LockAcquire,
        MsgClass::LockGrant,
        MsgClass::LockRelease,
    ]
    .iter()
    .map(|&c| r.net.class(c).messages)
    .sum();
    let p = &m.placement;
    let count = |n: u64| n as f64;

    let metrics = vec![
        // set-up
        Metric::new("setup.build_ms", "ms", out.build_s * 1e3),
        Metric::new("setup.init_ms", "ms", out.init_s * 1e3),
        Metric::new("setup.objects", "count", out.objects as f64),
        // executor hand-off
        Metric::new("exec.vcsw_per_access", "ratio", u.vcsw as f64 / accesses),
        Metric::new("exec.ivcsw", "count", count(u.ivcsw)),
        Metric::new("exec.sys_s", "s", u.sys_s),
        Metric::new("exec.idle_s", "s", idle),
        Metric::new("exec.handoff_us", "us", handoff * 1e6),
        Metric::new("exec.handoff_cpu_us", "us", handoff_cpu * 1e6),
        Metric::new("exec.handoff_share", "ratio", handoffs * handoff / wall),
        // access path
        Metric::new("worker.cpu_s", "s", worker_cpu),
        Metric::new("gos.accesses", "count", accesses),
        Metric::new(
            "gos.hit_ratio",
            "ratio",
            1.0 - (r.proto.real_faults + r.proto.false_invalid_faults) as f64 / accesses,
        ),
        // protocol service
        Metric::new("gos.real_faults", "count", count(r.proto.real_faults)),
        Metric::new("gos.diffs_flushed", "count", count(r.proto.diffs_flushed)),
        Metric::new(
            "gos.notices_applied",
            "count",
            count(r.proto.notices_applied),
        ),
        Metric::new(
            "net.objfetch_msgs",
            "count",
            count(r.net.class(MsgClass::ObjFetch).messages),
        ),
        Metric::new("net.lock_msgs", "count", count(lock_msgs)),
        Metric::new("net.gos_mb", "MB", r.net.gos_bytes() as f64 / MB),
        // profiler
        Metric::new(
            "profiler.fi_traps",
            "count",
            count(r.proto.false_invalid_faults),
        ),
        Metric::new(
            "profiler.oal_entries",
            "count",
            count(r.profiler.oal_entries),
        ),
        Metric::new(
            "profiler.footprint_rearms",
            "count",
            count(r.profiler.footprint_rearms),
        ),
        Metric::new("net.oal_kb", "KB", r.oal_kb()),
        Metric::new("profiler.cost_frac", "ratio", cost_frac),
        // master round close
        Metric::new("master.cpu_s", "s", master_cpu),
        Metric::new(
            "master.tcm_build_ms",
            "ms",
            m.tcm_build_real_ns as f64 / 1e6,
        ),
        Metric::new("master.rounds", "count", count(m.rounds)),
        Metric::new("master.oals_ingested", "count", count(m.oals_ingested)),
        Metric::new(
            "master.objects_organized",
            "count",
            count(m.objects_organized),
        ),
        Metric::new("master.rate_changes", "count", m.rate_changes.len() as f64),
        Metric::new(
            "master.drift_reactivations",
            "count",
            count(m.drift_reactivations),
        ),
        // placement
        Metric::new("placement.plans", "count", count(p.plans)),
        Metric::new(
            "placement.applied_migrations",
            "count",
            count(p.applied_migrations),
        ),
        Metric::new("placement.homes_migrated", "count", count(p.homes_migrated)),
        Metric::new(
            "placement.vetoes",
            "count",
            count(p.vetoed_gain + p.vetoed_cooldown + p.vetoed_cost + p.vetoed_budget),
        ),
        Metric::new(
            "placement.fenced_directives",
            "count",
            count(p.fenced_directives),
        ),
        Metric::new(
            "net.migration_mb",
            "MB",
            r.net.migration_bytes() as f64 / MB,
        ),
        // the traced run itself, and how the layers add up
        Metric::new("cluster.run.self_s", "s", wall - worker_cpu),
        Metric::new("cluster.report_ms", "ms", out.report_s * 1e3),
        Metric::new("trace.overhead_s", "s", wall - untraced_wall_s),
        Metric::new("residual.time_s", "s", wall - (u.user_s + u.sys_s + idle)),
        Metric::new(
            "residual.cpu_s",
            "s",
            process_cpu - (worker_cpu + master_cpu),
        ),
        // What the layers account for: all CPU, plus the time each hand-off
        // leaves the process idle in the probe.
        Metric::new(
            "residual.wall_s",
            "s",
            wall - (worker_cpu + master_cpu + handoffs * (handoff - handoff_cpu)),
        ),
    ];
    println!("per-layer (traced run, wall {wall:.6} s; untraced median {untraced_wall_s:.6} s):");
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(metrics)
}
