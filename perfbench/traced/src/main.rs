//! Traced per-layer run of the perfbench workloads.
//!
//! Replays the work of the `repro` commands that `perfbench/run.py` times
//! end to end, through the libraries' public functions, with a span around
//! each layer boundary: trace synthesis, device-image preconditioning, each
//! single-device `Ssd` run, array routing and array runs, and the
//! characterization figures. Prints one JSON object on stdout holding the
//! per-layer metrics, the summed per-cell host time (for parallel
//! efficiency), the submitted and completed host requests, and the
//! simulated numbers `run.py` compares with `repro` stdout, formatted
//! exactly as `repro` prints them.
//!
//! usage: perfbench-traced --workload fig14|sweep-qd|gc-array|charact --seed N

use rr_charact::figures;
use rr_charact::platform::TestPlatform;
use rr_core::experiment::{Mechanism, OperatingPoint};
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::array::{route_redundant, ArrayReport, DeviceSet, PlacementPolicy, Redundancy};
use rr_sim::config::SsdConfig;
use rr_sim::hostq::HostQueueConfig;
use rr_sim::metrics::{LatencySummary, SimReport};
use rr_sim::replay::ReplayMode;
use rr_sim::snapshot::ImageBank;
use rr_sim::ssd::{SimArena, Ssd};
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::synth::gc_stress_trace;
use rr_workloads::trace::Trace;
use rr_workloads::ycsb::YcsbWorkload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests per synthesized trace: `repro`'s paper-scale trace length.
const TRACE_LEN: usize = 5_000;
/// Test pages sampled per chip: `repro`'s paper-scale characterization.
const PAGES_PER_CHIP: usize = 256;
/// The retry mechanisms whose per-layer numbers the benchmark reports.
const MECHS: [Mechanism; 3] = [Mechanism::Pr2, Mechanism::Ar2, Mechanism::PnAr2];
/// Worker threads of the multi-worker workloads: the `--jobs` value
/// `run.py` gives `repro` (its `JOBS`).
const JOBS: usize = 2;

/// In-memory span recorder shared by every worker thread: the name and
/// host duration of each timed interval at a layer boundary.
struct Tracer {
    spans: Mutex<Vec<(&'static str, Duration)>>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.spans
            .lock()
            .expect("no thread panicked while recording a span")
            .push((name, took));
        out
    }

    /// Summed host seconds of every span named `name`.
    fn seconds(&self, name: &str) -> f64 {
        let spans = self
            .spans
            .lock()
            .expect("no thread panicked while recording a span");
        spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1.as_secs_f64())
            .sum()
    }
}

/// Maps `items` through `f` on up to `JOBS` scoped threads, results in input
/// order. Each worker owns one context from `ctx` (its simulation buffers),
/// like the experiment runners behind `repro --jobs`.
fn parallel<T: Sync, R: Send, C>(
    items: &[T],
    ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..JOBS.min(items.len()) {
            let (next, slots, ctx, f) = (&next, &slots, &ctx, &f);
            scope.spawn(move || {
                let mut c = ctx();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    *slots[i].lock().expect("no worker panicked holding a slot") =
                        Some(f(&mut c, item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panicked holding a slot")
                .expect("every item was processed")
        })
        .collect()
}

/// `base` at `point`, with the ideal no-retry switch for `NoRR`: the
/// per-cell configuration the experiment runners build.
fn cell_config(base: &SsdConfig, point: OperatingPoint, m: Mechanism) -> Arc<SsdConfig> {
    let mut cfg = base.clone().with_condition(OperatingCondition::new(
        point.pec,
        point.retention_months,
        base.condition.temp_c,
    ));
    cfg.ideal_no_retry = m.is_ideal();
    Arc::new(cfg)
}

/// Simulated counts summed over the device runs of a workload.
#[derive(Default)]
struct Counts {
    events: u64,
    requests: u64,
    reads: u64,
    senses: u64,
    resets: u64,
    set_features: u64,
    gc_collections: u64,
    /// GC program/erase operations suspended for a host read.
    gc_suspensions: u64,
    gc_stall_us: f64,
    /// Per mechanism: (Σ retry steps, reads in the retry histogram).
    retry: BTreeMap<&'static str, (f64, u64)>,
}

impl Counts {
    fn add(&mut self, m: Mechanism, r: &SimReport) {
        self.events += r.events_processed;
        self.requests += r.requests_completed;
        self.reads += r.read_response_us.count();
        self.senses += r.senses;
        self.resets += r.resets;
        self.set_features += r.set_features;
        self.gc_collections += r.gc_collections;
        for q in &r.per_queue {
            self.gc_suspensions += q.gc.suspensions;
            self.gc_stall_us += q.gc.stall_us;
        }
        let e = self.retry.entry(m.name()).or_default();
        e.0 += r.retry_steps.mean() * r.retry_steps.total() as f64;
        e.1 += r.retry_steps.total();
    }
}

/// Response-time reductions (fractions) of one mechanism against Baseline.
#[derive(Default)]
struct Reductions(BTreeMap<&'static str, Vec<f64>>);

impl Reductions {
    fn add(&mut self, m: Mechanism, avg_us: f64, baseline_avg_us: f64) {
        if baseline_avg_us > 0.0 {
            self.0
                .entry(m.name())
                .or_default()
                .push(1.0 - avg_us / baseline_avg_us);
        }
    }

    fn mean_max(&self, m: Mechanism) -> (f64, f64) {
        match self.0.get(m.name()) {
            Some(v) if !v.is_empty() => (
                v.iter().sum::<f64>() / v.len() as f64,
                v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ),
            _ => (0.0, 0.0),
        }
    }
}

/// What one workload's traced run produces besides its spans.
#[derive(Default)]
struct Outcome {
    counts: Counts,
    reductions: Reductions,
    /// Array-only numbers: (Σ rescued reads, Σ p99 amplification, cells).
    array: (u64, f64, u32),
    /// Cross-check values keyed as `run.py` keys the parsed `repro` stdout.
    check: BTreeMap<String, Vec<String>>,
    /// Worker threads the replay ran on.
    workers: usize,
    /// Host requests submitted and completed; an array counts logical
    /// requests, less every device copy that did not complete.
    submitted: u64,
    completed: u64,
}

impl Outcome {
    /// Counts one cell that was submitted `submitted` requests and
    /// completed `completed` of them.
    fn served(&mut self, submitted: usize, completed: u64) {
        self.submitted += submitted as u64;
        self.completed += completed.min(submitted as u64);
    }
}

fn us(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), |x| format!("{x:.1}"))
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn msrc_ycsb_traces(seed: u64) -> Vec<Trace> {
    MsrcWorkload::ALL
        .iter()
        .map(|w| w.synthesize(TRACE_LEN, seed))
        .chain(
            YcsbWorkload::ALL
                .iter()
                .map(|w| w.synthesize(TRACE_LEN, seed)),
        )
        .collect()
}

/// `repro fig14`: every MSRC/YCSB trace × the evaluation grid × the five
/// Fig. 14 mechanisms, open loop, Baseline first in each group.
fn fig14(tr: &Tracer, seed: u64) -> Outcome {
    let base = SsdConfig::scaled_for_tests().with_seed(seed);
    let traces = tr.span("workloads.synth", || msrc_ycsb_traces(seed));
    let bank = tr.span("snapshot.precondition", || {
        ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
            .expect("the evaluation configuration is valid")
    });
    let rpt = ReadTimingParamTable::default();
    let points = OperatingPoint::evaluation_grid();
    let groups: Vec<(usize, OperatingPoint)> = (0..traces.len())
        .flat_map(|t| points.iter().map(move |&p| (t, p)))
        .collect();
    let queues = HostQueueConfig::single(ReplayMode::OpenLoop);
    let results = tr.span("experiment.run", || {
        parallel(&groups, SimArena::new, |arena, &(ti, point)| {
            tr.span("experiment.cell", || {
                let trace = &traces[ti];
                let image = bank.get(trace.footprint_pages);
                Mechanism::FIG14
                    .iter()
                    .map(|&m| {
                        let cfg = cell_config(&base, point, m);
                        let report = tr.span("ssd.run", || {
                            Ssd::run_pooled_queued_from(
                                arena,
                                cfg,
                                m.make_controller(&rpt),
                                trace.footprint_pages,
                                &trace.requests,
                                &queues,
                                image,
                            )
                            .expect("the evaluation configuration is valid")
                        });
                        (m, report)
                    })
                    .collect::<Vec<_>>()
            })
        })
    });
    let mut out = Outcome {
        workers: JOBS,
        ..Outcome::default()
    };
    for (&(ti, point), reports) in groups.iter().zip(&results) {
        let base_rt = reports[0].1.avg_response_us();
        let key = format!(
            "{}/{}/{}",
            traces[ti].name, point.pec as u64, point.retention_months as u64
        );
        let mut normalized = Vec::new();
        let mut p99 = Vec::new();
        for (m, r) in reports {
            out.served(traces[ti].requests.len(), r.requests_completed);
            out.counts.add(*m, r);
            out.reductions.add(*m, r.avg_response_us(), base_rt);
            let n = if base_rt > 0.0 {
                r.avg_response_us() / base_rt
            } else {
                1.0
            };
            normalized.push(format!("{n:.3}"));
            p99.push(us(r.read_latency.p99));
        }
        out.check.insert(format!("norm/{key}"), normalized);
        out.check.insert(format!("p99/{key}"), p99);
    }
    for m in MECHS {
        let (mean, max) = out.reductions.mean_max(m);
        out.check
            .insert(format!("reduction/{}", m.name()), vec![pct(mean), pct(max)]);
    }
    out
}

/// The cross-check row of one closed-loop cell, as `repro sweep-qd` prints
/// it: read n and p99, write n, average response.
fn qd_row(reads: &LatencySummary, writes: &LatencySummary, avg_us: f64) -> Vec<String> {
    vec![
        reads.count.to_string(),
        us(reads.p99),
        writes.count.to_string(),
        format!("{avg_us:.1}"),
    ]
}

/// `repro sweep-qd --queue-depth 1,16,256 --jobs 1`: mds_1 and YCSB-C,
/// closed loop at each depth under Baseline and PnAR2 at (2K, 6 mo).
fn sweep_qd(tr: &Tracer, seed: u64) -> Outcome {
    const DEPTHS: [u32; 3] = [1, 16, 256];
    let base = SsdConfig::scaled_for_tests().with_seed(seed);
    let traces = tr.span("workloads.synth", || {
        vec![
            MsrcWorkload::Mds1.synthesize(TRACE_LEN, seed),
            YcsbWorkload::C.synthesize(TRACE_LEN, seed),
        ]
    });
    let bank = tr.span("snapshot.precondition", || {
        ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
            .expect("the sweep configuration is valid")
    });
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechs = [Mechanism::Baseline, Mechanism::PnAr2];
    let mut out = Outcome {
        workers: 1,
        ..Outcome::default()
    };
    let mut arena = SimArena::new();
    tr.span("experiment.run", || {
        for trace in &traces {
            for qd in DEPTHS {
                let queues = HostQueueConfig::single(ReplayMode::closed_loop(qd));
                let mut base_rt = 0.0;
                for m in mechs {
                    let report = tr.span("experiment.cell", || {
                        let cfg = cell_config(&base, point, m);
                        tr.span("ssd.run", || {
                            Ssd::run_pooled_queued_from(
                                &mut arena,
                                cfg,
                                m.make_controller(&rpt),
                                trace.footprint_pages,
                                &trace.requests,
                                &queues,
                                bank.get(trace.footprint_pages),
                            )
                            .expect("the sweep configuration is valid")
                        })
                    });
                    if m == Mechanism::Baseline {
                        base_rt = report.avg_response_us();
                    }
                    out.served(trace.requests.len(), report.requests_completed);
                    out.counts.add(m, &report);
                    out.reductions.add(m, report.avg_response_us(), base_rt);
                    out.check.insert(
                        format!("{}/{}/{}", trace.name, m.name(), qd),
                        qd_row(
                            &report.read_latency,
                            &report.write_latency,
                            report.avg_response_us(),
                        ),
                    );
                }
            }
        }
    });
    out
}

/// `repro sweep-qd --gc-stress --devices 4 --placement hash
/// --redundancy replicate:2 --queue-depth 16 --jobs 2`: the GC-stress
/// trace on the shrunken geometry, 2-way replicated over 4 hash-placed
/// devices, Baseline and PnAR2 at (2K, 6 mo).
fn gc_array(tr: &Tracer, seed: u64) -> Outcome {
    const DEVICES: u32 = 4;
    const QD: u32 = 16;
    let mut base = SsdConfig::scaled_for_tests().with_seed(seed);
    base.chip.blocks_per_plane = 16;
    base.chip.pages_per_block = 12;
    let trace = tr.span("workloads.synth", || {
        gc_stress_trace(base.max_lpns(), TRACE_LEN)
    });
    let footprint = trace.footprint_pages;
    let bank = tr.span("snapshot.precondition", || {
        ImageBank::preconditioned(&base, [footprint]).expect("the GC-stress configuration is valid")
    });
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechs = [Mechanism::Baseline, Mechanism::PnAr2];
    let queues = HostQueueConfig::single(ReplayMode::closed_loop(QD));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let device_workers = (cpus / JOBS).clamp(1, DEVICES as usize);
    let reports: Vec<ArrayReport> = tr.span("experiment.run", || {
        let routing = tr.span("array.route", || {
            route_redundant(
                &trace.requests,
                DEVICES,
                PlacementPolicy::LpnHash,
                footprint,
                Redundancy::Replicate { r: 2 },
                None,
            )
        });
        let images = bank
            .fork_for_array(footprint, DEVICES)
            .expect("the bank holds the stress footprint");
        parallel(
            &mechs,
            || DeviceSet::new(DEVICES).expect("four devices"),
            |set, &m| {
                tr.span("experiment.cell", || {
                    let cfg = cell_config(&base, point, m);
                    tr.span("array.run", || {
                        set.run_redundant_from(
                            &cfg,
                            &|| m.make_controller(&rpt),
                            footprint,
                            &routing,
                            &queues,
                            Some(&images),
                            0,
                            device_workers,
                        )
                        .expect("the GC-stress configuration is valid")
                    })
                })
            },
        )
    });
    let mut out = Outcome {
        workers: JOBS,
        ..Outcome::default()
    };
    let base_rt = reports[0].avg_response_us();
    for (&m, r) in mechs.iter().zip(&reports) {
        for d in &r.devices {
            out.counts.add(m, d);
        }
        out.reductions.add(m, r.avg_response_us(), base_rt);
        let red = r
            .redundancy
            .as_ref()
            .expect("replicated cells carry redundancy stats");
        let lost_copies: u64 = r
            .devices
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                let routed = red.fanout_reads[d] + red.fanout_writes[d] + red.rebuild_reads[d];
                routed.saturating_sub(dev.requests_completed)
            })
            .sum();
        out.served(
            trace.requests.len(),
            (r.read_latency.count + r.write_latency.count).saturating_sub(lost_copies),
        );
        out.array.0 += red.rescued_reads;
        out.array.1 += r.amplification_p99().unwrap_or(0.0);
        out.array.2 += 1;
        let mut row = qd_row(&r.read_latency, &r.write_latency, r.avg_response_us());
        row.push(red.wait_for_k.count.to_string());
        out.check
            .insert(format!("{}/{}/{}", trace.name, m.name(), QD), row);
    }
    out
}

/// `repro fig5` then `repro fig11` at paper scale (160 chips × 256 pages).
fn charact(tr: &Tracer, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let fig5 = tr.span("charact.fig5", || {
        figures::fig5(&TestPlatform::paper_scale(seed), PAGES_PER_CHIP)
    });
    let fig11 = tr.span("charact.fig11", || {
        figures::fig11(&mut TestPlatform::paper_scale(seed), PAGES_PER_CHIP)
    });
    for c in &fig5 {
        out.check.insert(
            format!("fig5/{}/{}", c.pec as u64, c.months as u64),
            vec![format!("{:.1}", c.mean), pct(c.hist.fraction_at_least(7))],
        );
    }
    for c in &fig11 {
        out.check.insert(
            format!("fig11/{}/{}", c.pec as u64, c.months as u64),
            vec![pct(c.safe_reduction)],
        );
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics; every name is present on every workload, zero
/// where the workload does not exercise the layer.
fn layer_metrics(tr: &Tracer, o: &Outcome, wall_s: f64) -> BTreeMap<String, f64> {
    let c = &o.counts;
    let ssd_s = tr.seconds("ssd.run");
    let mut m = BTreeMap::new();
    let mut put = |k: String, v: f64| {
        m.insert(k, v);
    };
    put("workloads.synth_s".into(), tr.seconds("workloads.synth"));
    put(
        "snapshot.precondition_s".into(),
        tr.seconds("snapshot.precondition"),
    );
    put("ssd.run_s".into(), ssd_s);
    put(
        "ssd.run_share".into(),
        ratio(ssd_s, o.workers as f64 * wall_s),
    );
    put(
        "ssd.ns_per_event".into(),
        ratio(ssd_s * 1e9, c.events as f64),
    );
    put(
        "ssd.events_per_req".into(),
        ratio(c.events as f64, c.requests as f64),
    );
    put(
        "flash.senses_per_read".into(),
        ratio(c.senses as f64, c.reads as f64),
    );
    put(
        "flash.resets_per_read".into(),
        ratio(c.resets as f64, c.reads as f64),
    );
    put(
        "flash.set_features_per_read".into(),
        ratio(c.set_features as f64, c.reads as f64),
    );
    for mech in MECHS {
        let (steps, reads) = c.retry.get(mech.name()).copied().unwrap_or_default();
        put(
            format!("mechanisms.retry_steps_per_read.{}", mech.name()),
            ratio(steps, reads as f64),
        );
        let (mean, max) = o.reductions.mean_max(mech);
        put(
            format!("model.reduction_avg_pct.{}", mech.name()),
            mean * 100.0,
        );
        put(
            format!("model.reduction_max_pct.{}", mech.name()),
            max * 100.0,
        );
    }
    put("gc.collections".into(), c.gc_collections as f64);
    put("gc.suspensions".into(), c.gc_suspensions as f64);
    put("gc.stall_us".into(), c.gc_stall_us);
    put("array.route_s".into(), tr.seconds("array.route"));
    put("array.run_s".into(), tr.seconds("array.run"));
    put("array.rescued_reads".into(), o.array.0 as f64);
    put("array.amp_p99".into(), ratio(o.array.1, o.array.2 as f64));
    put("charact.fig5_s".into(), tr.seconds("charact.fig5"));
    put("charact.fig11_s".into(), tr.seconds("charact.fig11"));
    m
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage() -> ! {
    eprintln!("usage: perfbench-traced --workload fig14|sweep-qd|gc-array|charact --seed N");
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    let tr = Tracer::new();
    let t0 = Instant::now();
    let outcome = match workload.as_str() {
        "fig14" => fig14(&tr, seed),
        "sweep-qd" => sweep_qd(&tr, seed),
        "gc-array" => gc_array(&tr, seed),
        "charact" => charact(&tr, seed),
        _ => usage(),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let replay_s = tr.seconds("experiment.run");
    let metrics = layer_metrics(&tr, &outcome, replay_s);
    let mut out = String::from("{\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{}:{}", json_str(k), json_num(*v));
    }
    let _ = write!(
        out,
        "}},\"wall_s\":{},\"replay_s\":{},\"cell_s\":{},\"workers\":{},\"submitted\":{},\"completed\":{},\"check\":{{",
        json_num(wall_s),
        json_num(replay_s),
        json_num(tr.seconds("experiment.cell")),
        outcome.workers,
        outcome.submitted,
        outcome.completed
    );
    for (i, (k, vals)) in outcome.check.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let vals: Vec<String> = vals.iter().map(|v| json_str(v)).collect();
        let _ = write!(out, "{sep}{}:[{}]", json_str(k), vals.join(","));
    }
    out.push_str("}}");
    println!("{out}");
}
