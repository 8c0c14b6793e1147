//! One function per regenerated table/figure.

use crate::render::{markdown_table, pct, shade, us_opt};
use rr_charact::figures::{self, TimingParam};
use rr_charact::platform::TestPlatform;
use rr_core::experiment::{
    reduction_vs, run_matrix_array, run_matrix_array_from, run_matrix_parallel,
    run_one_queued_array_from, run_one_queued_from, run_qd_sweep_array, run_qd_sweep_array_from,
    run_rate_sweep_array, run_rate_sweep_array_from, ArrayCellStats, ArraySetup, Mechanism,
    OperatingPoint, QueueSetup,
};
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::ECC_CAPABILITY_PER_KIB;
use rr_flash::timing::NandTimings;
use rr_sim::array::{DeviceSet, FailurePlan, PlacementPolicy, Redundancy};
use rr_sim::config::{ArbPolicy, SsdConfig};
use rr_sim::gc::GcPolicy;
use rr_sim::metrics::{GcStalls, LatencySummary};
use rr_sim::snapshot::ImageBank;
use rr_sim::ssd::SimArena;
use rr_util::time::SimTime;
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::trace::Trace;
use rr_workloads::ycsb::YcsbWorkload;
use std::time::{Duration, Instant};

/// Shared CLI options.
pub struct Options {
    /// Smaller populations / traces.
    pub quick: bool,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the evaluation matrices (1 = serial; any value
    /// produces identical results).
    pub jobs: usize,
    /// Closed-loop queue depths for `sweep-qd`.
    pub queue_depths: Vec<u32>,
    /// Open-loop arrival-rate multipliers for `sweep-rate`.
    pub rates: Vec<f64>,
    /// Host submission queues feeding the device in the load sweeps
    /// (1 = the plain single-generator front end).
    pub queues: u32,
    /// RR/WRR arbitration for the multi-queue front end.
    pub arb: ArbPolicy,
    /// Consecutive commands fetched per arbitration credit.
    pub burst: u32,
    /// Per-queue WRR weights (`None` = descending defaults under WRR).
    pub weights: Option<Vec<u32>>,
    /// Device admission window override (`None` = each sweep's default).
    pub window: Option<u32>,
    /// Garbage-collection policy for the load sweeps and their exports
    /// (`GcPolicy::Greedy` = the pre-policy default behavior).
    pub gc_policy: GcPolicy,
    /// Run the load sweeps on the GC-stress workload (shrunken geometry +
    /// write-heavy hot-range trace filling the usable space) instead of the
    /// MSRC/YCSB set, so garbage collection actually contends with host
    /// traffic and the GC policies become distinguishable.
    pub gc_stress: bool,
    /// `repro perf --plot`: render the archived throughput trajectory
    /// instead of measuring a new run.
    pub plot: bool,
    /// Devices in the simulated array (1 = the classic single-device stack,
    /// byte-identical to the pre-array CLI). `fig14`, the load sweeps,
    /// `export`, `perf`, and `serve` accept N ≥ 2 and report merged
    /// distributions plus per-device tail attribution.
    pub devices: u32,
    /// How array runs route host requests across devices (`rr` round-robin
    /// stripe, `hash` LPN-hash, `tier` hot/cold tiering). Ignored at
    /// `--devices 1`.
    pub placement: PlacementPolicy,
    /// Redundancy scheme layered over the placement (`none`, `replicate:R`,
    /// `ec:K:N`). Reads complete at the first-of-R replica / k-th stripe
    /// response; `none` keeps the plain array path byte-identical.
    pub redundancy: Redundancy,
    /// Fail-stop device index for the rebuild-traffic experiment
    /// (`--fail-device D --fail-at-us T`, both required together).
    pub fail_device: Option<u32>,
    /// Simulated failure time in microseconds for `--fail-device`.
    pub fail_at_us: Option<u64>,
    /// Output directory for `export` CSVs.
    pub csv_dir: Option<String>,
    /// Warm-start the replaying commands from this device-image bank
    /// (`--from-image img.rrimg`) instead of preconditioning in-process.
    pub from_image: Option<String>,
    /// Output path of `repro snapshot` (`--out img.rrimg`).
    pub out: Option<String>,
}

impl Options {
    fn chips(&self) -> usize {
        if self.quick {
            16
        } else {
            160
        }
    }

    fn pages_per_chip(&self) -> usize {
        if self.quick {
            64
        } else {
            256
        }
    }

    fn trace_len(&self) -> usize {
        if self.quick {
            2_000
        } else {
            5_000
        }
    }

    fn platform(&self) -> TestPlatform {
        TestPlatform::new(self.chips(), self.seed)
    }

    /// The simulator configuration every command starts from: the scaled
    /// test geometry and the CLI seed.
    fn sim_base(&self) -> SsdConfig {
        SsdConfig::scaled_for_tests().with_seed(self.seed)
    }

    /// The `--devices`/`--placement`/`--redundancy`/`--fail-device` knobs as
    /// an [`ArraySetup`]; one device (or `none` with no failure) keeps every
    /// runner on its pre-redundancy code path.
    fn array_setup(&self) -> ArraySetup {
        ArraySetup {
            devices: self.devices,
            placement: self.placement,
            redundancy: self.redundancy,
            failure: match (self.fail_device, self.fail_at_us) {
                (Some(d), Some(t)) => Some(FailurePlan {
                    device: d,
                    at: SimTime::from_us(t),
                }),
                _ => None,
            },
        }
    }

    fn queue_setup(&self) -> QueueSetup {
        QueueSetup {
            queues: self.queues,
            arb: self.arb,
            burst: self.burst,
            weights: self.weights.clone(),
            window: self.window,
        }
    }
}

fn heading(title: &str, paper: &str) {
    println!("\n## {title}");
    println!("_Paper reference: {paper}_\n");
}

/// Table 1: NAND timing parameters.
pub fn table1() {
    heading("Table 1 — NAND flash timing parameters", "§7.1, Table 1");
    let t = NandTimings::table1();
    let rows = vec![
        vec![
            "tR (avg)".into(),
            format!("{}", t.sense.t_r_avg()),
            "90 µs".into(),
        ],
        vec!["tPRE".into(), format!("{}", t.sense.t_pre), "24 µs".into()],
        vec!["tEVAL".into(), format!("{}", t.sense.t_eval), "5 µs".into()],
        vec![
            "tDISCH".into(),
            format!("{}", t.sense.t_disch),
            "10 µs".into(),
        ],
        vec!["tPROG".into(), format!("{}", t.t_prog), "700 µs".into()],
        vec!["tBERS".into(), format!("{}", t.t_bers), "5 ms".into()],
        vec!["tSET".into(), format!("{}", t.t_set), "1 µs".into()],
        vec![
            "tRST (read)".into(),
            format!("{}", t.t_rst_read),
            "5 µs".into(),
        ],
        vec![
            "tDMA (16 KiB)".into(),
            format!("{}", t.t_dma),
            "16 µs".into(),
        ],
        vec!["tECC".into(), format!("{}", t.t_ecc), "20 µs".into()],
    ];
    print!(
        "{}",
        markdown_table(
            &["Parameter".into(), "This repo".into(), "Paper".into()],
            &rows
        )
    );
}

fn all_traces(opts: &Options) -> Vec<(Trace, bool, f64, f64)> {
    let mut out = Vec::new();
    for w in MsrcWorkload::ALL {
        let (rr, cr) = w.table2_ratios();
        out.push((
            w.synthesize(opts.trace_len(), opts.seed),
            w.read_dominant(),
            rr,
            cr,
        ));
    }
    for w in YcsbWorkload::ALL {
        let (rr, cr) = w.table2_ratios();
        out.push((
            w.synthesize(opts.trace_len(), opts.seed),
            w.read_dominant(),
            rr,
            cr,
        ));
    }
    out
}

/// Table 2: workload read/cold ratios, measured on the synthesized traces.
pub fn table2(opts: &Options) {
    heading(
        "Table 2 — I/O characteristics of the evaluated workloads",
        "§7.1, Table 2",
    );
    let mut rows = Vec::new();
    for (trace, _, paper_rr, paper_cr) in all_traces(opts) {
        let s = trace.stats();
        rows.push(vec![
            trace.name.clone(),
            format!("{:.2}", s.read_ratio),
            format!("{paper_rr:.2}"),
            format!("{:.2}", s.cold_ratio),
            format!("{paper_cr:.2}"),
            s.requests.to_string(),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "Workload".into(),
                "read ratio".into(),
                "(paper)".into(),
                "cold ratio".into(),
                "(paper)".into(),
                "requests".into(),
            ],
            &rows
        )
    );
}

/// Fig. 4b: RBER collapse in the last retry steps.
pub fn fig4b(opts: &Options) {
    heading(
        "Fig. 4b — RBER reduction in the last retry steps",
        "§2.4: pages needing N = 16 and N = 21 steps; errors collapse only at the final step",
    );
    let platform = opts.platform();
    let series = figures::fig4b(&platform, 2000.0, 12.0, &[16, 21], 3);
    for s in series {
        println!("page requiring N = {} retry steps:", s.total_steps);
        let rows: Vec<Vec<String>> = s
            .errors_by_distance
            .iter()
            .map(|&(d, e)| {
                vec![
                    if d == 0 {
                        "N (final)".into()
                    } else {
                        format!("N-{d}")
                    },
                    e.to_string(),
                    if e <= ECC_CAPABILITY_PER_KIB {
                        "corrected ✓".into()
                    } else {
                        "fail".into()
                    },
                ]
            })
            .collect();
        print!(
            "{}",
            markdown_table(
                &[
                    "step".into(),
                    "errors/KiB".into(),
                    "vs. 72-bit capability".into()
                ],
                &rows
            )
        );
    }
}

/// Fig. 5: retry-step probability map.
pub fn fig5(opts: &Options) {
    heading(
        "Fig. 5 — read-retry characteristics vs. (P/E cycles, retention age)",
        "§3.1: 54.4 % ≥ 7 steps at (0, 6 mo); ≥ 8 steps at (1K, 3 mo); mean 19.9 at (2K, 12 mo)",
    );
    let platform = opts.platform();
    let cells = figures::fig5(&platform, opts.pages_per_chip());
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            format!("{}", c.pec as u64),
            format!("{}", c.months as u64),
            format!("{:.1}", c.mean),
            c.min.to_string(),
            c.max.to_string(),
            pct(c.hist.fraction_at_least(7)),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "P/E cycles".into(),
                "months".into(),
                "mean steps".into(),
                "min".into(),
                "max".into(),
                "P(≥7 steps)".into(),
            ],
            &rows
        )
    );
    // The probability heat map itself, one panel per P/E count.
    for &pec in &figures::PEC_SWEEP {
        println!(
            "\nP(#retry steps) at {} P/E cycles (rows: steps 0-25, cols: months):",
            pec as u64
        );
        print!("      ");
        for &m in &figures::RETENTION_SWEEP {
            print!("{:>4}mo", m as u64);
        }
        println!();
        for steps in (0..=25).rev() {
            print!("  {steps:>3} ");
            for &m in &figures::RETENTION_SWEEP {
                let cell = cells
                    .iter()
                    .find(|c| c.pec == pec && c.months == m)
                    .expect("cell in sweep");
                print!("  {} ", shade(cell.hist.probability(steps)));
            }
            println!();
        }
    }
}

/// Fig. 7: ECC-capability margin in the final retry step.
pub fn fig7(opts: &Options) {
    heading(
        "Fig. 7 — M_ERR (max errors/KiB) in the final retry step",
        "§5.1: M_ERR(0,3)=15, M_ERR(1K,12)=30, M_ERR(2K,12)=35 @85 °C; +3 @55 °C, +5 @30 °C; 44.4 % margin left at worst",
    );
    let mut platform = opts.platform();
    let cells = figures::fig7(&mut platform, opts.pages_per_chip());
    let mut rows = Vec::new();
    for c in &cells {
        if c.months == 0.0 || c.months == 3.0 || c.months == 6.0 || c.months == 12.0 {
            rows.push(vec![
                format!("{} °C", c.temp_c),
                format!("{}", c.pec as u64),
                format!("{}", c.months as u64),
                c.m_err.to_string(),
                c.margin.to_string(),
                pct(c.margin as f64 / ECC_CAPABILITY_PER_KIB as f64),
            ]);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "temp".into(),
                "P/E cycles".into(),
                "months".into(),
                "M_ERR".into(),
                "margin".into(),
                "margin %".into(),
            ],
            &rows
        )
    );
}

/// Fig. 8: ΔM_ERR per individually reduced timing parameter.
pub fn fig8(opts: &Options) {
    heading(
        "Fig. 8 — ΔM_ERR vs. individual timing-parameter reduction (85 °C)",
        "§5.2.1: safe 47 %/10 %/27 % at (2K,12); tEVAL 20 % costs ~30 errors even fresh",
    );
    let mut platform = opts.platform();
    let series = figures::fig8(&mut platform, opts.pages_per_chip());
    for param in [TimingParam::Pre, TimingParam::Eval, TimingParam::Disch] {
        println!("\nΔ{}:", param.name());
        let mut rows = Vec::new();
        for s in series.iter().filter(|s| s.param == param) {
            let mut row = vec![format!("({}, {} mo)", s.pec as u64, s.months as u64)];
            for &(x, d) in &s.points {
                row.push(format!("{}→{d:+}", pct(x)));
            }
            rows.push(row);
        }
        let width = rows.first().map(|r| r.len()).unwrap_or(1);
        let mut header = vec!["condition".into()];
        header.extend((1..width).map(|i| format!("point {i}")));
        print!("{}", markdown_table(&header, &rows));
    }
}

/// Fig. 9: joint (ΔtPRE, ΔtDISCH) reduction.
pub fn fig9(opts: &Options) {
    heading(
        "Fig. 9 — M_ERR under joint tPRE+tDISCH reduction",
        "§5.2.2: joint reduction is super-additive; ⟨54 %, 20 %⟩ at (1K,0) blows past the capability",
    );
    let mut platform = opts.platform();
    let cells = figures::fig9(&mut platform, opts.pages_per_chip() / 2);
    for (pec, months) in [
        (1000.0, 0.0),
        (2000.0, 0.0),
        (0.0, 12.0),
        (1000.0, 12.0),
        (2000.0, 12.0),
    ] {
        println!(
            "\ncondition (PEC = {}, t_RET = {} mo): M_ERR matrix",
            pec as u64, months as u64
        );
        let disch_levels: Vec<f64> = {
            let mut v: Vec<f64> = cells
                .iter()
                .filter(|c| c.pec == pec && c.months == months)
                .map(|c| c.d_disch)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v.dedup();
            v
        };
        let mut header = vec!["ΔtPRE \\ ΔtDISCH".to_string()];
        header.extend(disch_levels.iter().map(|d| pct(*d)));
        let pre_levels = [0.0, 0.14, 0.27, 0.4, 0.47, 0.54];
        let mut rows = Vec::new();
        for &dp in &pre_levels {
            let mut row = vec![pct(dp)];
            for &dd in &disch_levels {
                let m = cells
                    .iter()
                    .find(|c| {
                        c.pec == pec && c.months == months && c.d_pre == dp && c.d_disch == dd
                    })
                    .map(|c| c.m_err)
                    .unwrap_or(0);
                row.push(if m > ECC_CAPABILITY_PER_KIB {
                    format!("{m}!")
                } else {
                    m.to_string()
                });
            }
            rows.push(row);
        }
        print!("{}", markdown_table(&header, &rows));
        println!("('!' marks values beyond the 72-bit ECC capability)");
    }
}

/// Fig. 10: temperature effect on tPRE reduction.
pub fn fig10(opts: &Options) {
    heading(
        "Fig. 10 — temperature-induced extra errors under tPRE reduction",
        "§5.2.3: at most ~7 extra errors at (2K, 12 mo); lower temperature ⇒ more errors",
    );
    let mut platform = opts.platform();
    let cells = figures::fig10(&mut platform, opts.pages_per_chip() / 2);
    let mut rows = Vec::new();
    for c in cells.iter().filter(|c| c.d_pre > 0.0) {
        rows.push(vec![
            format!("{} °C", c.temp_c),
            format!("{}", c.pec as u64),
            format!("{}", c.months as u64),
            pct(c.d_pre),
            format!("{:+}", c.extra_errors),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "temp".into(),
                "P/E cycles".into(),
                "months".into(),
                "ΔtPRE".into(),
                "extra errors vs 85 °C".into(),
            ],
            &rows
        )
    );
}

/// Fig. 11: minimum safe tPRE per condition.
pub fn fig11(opts: &Options) {
    heading(
        "Fig. 11 — minimum tPRE for safe tRETRY reduction (14-bit margin)",
        "§5.2.3: between 40 % (2K, 12 mo) and 54 % (fresh) reduction is safe under any condition",
    );
    let mut platform = opts.platform();
    let cells = figures::fig11(&mut platform, opts.pages_per_chip());
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            format!("{}", c.pec as u64),
            format!("{}", c.months as u64),
            pct(c.safe_reduction),
            c.m_err_at_reduction.to_string(),
            format!("{}", ECC_CAPABILITY_PER_KIB - c.m_err_at_reduction),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "P/E cycles".into(),
                "months".into(),
                "max safe ΔtPRE".into(),
                "M_ERR @ reduction".into(),
                "remaining margin".into(),
            ],
            &rows
        )
    );
}

/// The derived Read-timing Parameter Table (Fig. 13's table).
pub fn rpt(_opts: &Options) {
    heading(
        "RPT — Read-timing Parameter Table (AR²'s lookup table)",
        "§6.2: ~36 entries, 144 bytes per chip; reduced tPRE per (PEC, retention) bucket",
    );
    let table = ReadTimingParamTable::default();
    let mut rows = Vec::new();
    for r in table.rows() {
        // The table's open-ended buckets use `f64::MAX` as their sentinel.
        let pec = if r.pec_max < f64::MAX {
            format!("< {}", r.pec_max as u64)
        } else {
            "≥ 2000".into()
        };
        let ret = if r.retention_months_max < f64::MAX {
            format!("< {:.2} mo", r.retention_months_max)
        } else {
            "≥ 12 mo".into()
        };
        let t_pre_us = 24.0 * (1.0 - r.pre_reduction);
        rows.push(vec![
            pec,
            ret,
            pct(r.pre_reduction),
            format!("{t_pre_us:.1} µs"),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &["PEC".into(), "t_RET".into(), "ΔtPRE".into(), "tPRE".into()],
            &rows
        )
    );
    println!(
        "table size: {} bytes (paper estimates 144 B)",
        table.storage_bytes()
    );
}

/// Milliseconds of a measured phase, for the stderr timing split.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The stderr wall-clock split the replaying commands report: device aging
/// (`precondition`, which a `--from-image` warm start reduces to a file
/// load) vs the replay itself. Timing stays on stderr so stdout remains
/// byte-comparable across cold and warm starts.
fn eprint_timing(cmd: &str, precondition: Duration, replay: Duration) {
    eprintln!(
        "{cmd}: precondition {:.1} ms, replay {:.1} ms",
        ms(precondition),
        ms(replay)
    );
}

/// The warm-start bank a command forks across its cells: loaded from
/// `--from-image` when given, preconditioned in-process otherwise. `None`
/// (with the error on stderr) when the image file is missing, truncated,
/// corrupt, or of an unsupported format version.
fn obtain_bank(
    cmd: &str,
    from_image: Option<&str>,
    base: &SsdConfig,
    footprints: impl Iterator<Item = u64>,
) -> Option<ImageBank> {
    match from_image {
        Some(path) => match ImageBank::load(path) {
            Ok(bank) => Some(bank),
            Err(e) => {
                eprintln!("{cmd}: cannot load image bank {path}: {e}");
                None
            }
        },
        None => Some(
            ImageBank::preconditioned(base, footprints)
                .expect("experiment configuration must be valid"),
        ),
    }
}

fn eval_inputs(opts: &Options) -> (SsdConfig, Vec<(Trace, bool)>, Vec<OperatingPoint>) {
    let base = opts.sim_base();
    let traces: Vec<(Trace, bool)> = all_traces(opts)
        .into_iter()
        .map(|(t, rd, _, _)| (t, rd))
        .collect();
    let points = if opts.quick {
        vec![OperatingPoint::new(2000.0, 6.0)]
    } else {
        OperatingPoint::evaluation_grid()
    };
    (base, traces, points)
}

fn run_eval(opts: &Options, mechanisms: &[Mechanism]) -> Vec<rr_core::experiment::MatrixCell> {
    let (base, traces, points) = eval_inputs(opts);
    run_matrix_array(
        &base,
        &traces,
        &points,
        mechanisms,
        opts.jobs,
        opts.array_setup(),
    )
}

/// [`run_eval`] with the device-image plumbing: the bank comes from
/// `--from-image` when given, the matrix forks it across cells, and the
/// precondition/replay wall-clock split lands on stderr. `None` (error
/// already reported) when the bank cannot be loaded or does not cover this
/// run's workloads.
fn run_eval_timed(
    opts: &Options,
    cmd: &str,
    mechanisms: &[Mechanism],
) -> Option<Vec<rr_core::experiment::MatrixCell>> {
    let (base, traces, points) = eval_inputs(opts);
    let t0 = Instant::now();
    let bank = obtain_bank(
        cmd,
        opts.from_image.as_deref(),
        &base,
        traces.iter().map(|(t, _)| t.footprint_pages),
    )?;
    let precondition = t0.elapsed();
    let t0 = Instant::now();
    match run_matrix_array_from(
        &base,
        &traces,
        &points,
        mechanisms,
        opts.jobs,
        opts.array_setup(),
        &bank,
    ) {
        Ok(cells) => {
            eprint_timing(cmd, precondition, t0.elapsed());
            Some(cells)
        }
        Err(e) => {
            eprintln!("{cmd}: {e}");
            None
        }
    }
}

fn print_matrix(cells: &[rr_core::experiment::MatrixCell], mechanisms: &[Mechanism]) {
    let mut keys: Vec<(String, f64, f64)> = cells
        .iter()
        .map(|c| (c.workload.clone(), c.point.pec, c.point.retention_months))
        .collect();
    keys.dedup();
    let mut header = vec!["workload".into(), "PEC".into(), "t_RET".into()];
    header.extend(mechanisms.iter().map(|m| m.name().to_string()));
    let mut rows = Vec::new();
    let mut p99_rows = Vec::new();
    for (w, pec, months) in keys {
        let key = vec![
            w.clone(),
            format!("{}", pec as u64),
            format!("{} mo", months as u64),
        ];
        let mut row = key.clone();
        let mut p99_row = key;
        for m in mechanisms {
            let cell = cells
                .iter()
                .find(|c| {
                    c.workload == w
                        && c.point.pec == pec
                        && c.point.retention_months == months
                        && c.mechanism == m.name()
                })
                .expect("matrix is complete");
            row.push(format!("{:.3}", cell.normalized));
            p99_row.push(us_opt(cell.read_latency.p99));
        }
        rows.push(row);
        p99_rows.push(p99_row);
    }
    print!("{}", markdown_table(&header, &rows));
    println!("\nread p99 (µs; — = no reads in the workload):");
    print!("{}", markdown_table(&header, &p99_rows));
}

/// Fig. 14: normalized response time of the five SSD configurations.
/// Returns `false` when a `--from-image` bank cannot be loaded or does not
/// cover the evaluation workloads.
pub fn fig14(opts: &Options) -> bool {
    heading(
        "Fig. 14 — normalized response time (Baseline / PR2 / AR2 / PnAR2 / NoRR)",
        "§7.2: PR2 ≤38.3 % (avg 17.7 %), AR2 ≤18.1 % (avg 11.9 %), PnAR2 ≤51.8 % (avg 28.9 %; 35.2 % @ (2K, 6 mo))",
    );
    let Some(cells) = run_eval_timed(opts, "fig14", &Mechanism::FIG14) else {
        return false;
    };
    print_matrix(&cells, &Mechanism::FIG14);
    if opts.devices > 1 {
        let labelled = || {
            cells.iter().filter_map(|c| {
                c.array.as_ref().map(|a| {
                    (
                        format!(
                            "{} @ ({}, {} mo) / {}",
                            c.workload,
                            c.point.pec as u64,
                            c.point.retention_months as u64,
                            c.mechanism
                        ),
                        a,
                    )
                })
            })
        };
        print_array_tails(labelled());
        print_redundancy(labelled());
    }
    println!();
    for m in ["PR2", "AR2", "PnAR2"] {
        let s = reduction_vs(&cells, m, "Baseline", false);
        println!(
            "{m} vs Baseline: avg {} / max {} response-time reduction",
            pct(s.mean),
            pct(s.max)
        );
    }
    let norr = reduction_vs(&cells, "NoRR", "Baseline", false);
    println!(
        "ideal NoRR bound: avg {} / max {}",
        pct(norr.mean),
        pct(norr.max)
    );
    true
}

/// Fig. 15: PSO and PSO+PnAR2.
pub fn fig15(opts: &Options) {
    heading(
        "Fig. 15 — our techniques on top of the PSO state of the art",
        "§7.3: PSO+PnAR2 reduces response time vs PSO by up to 31.5 % (avg 17 %) on read-dominant workloads",
    );
    let cells = run_eval(opts, &Mechanism::FIG15);
    print_matrix(&cells, &Mechanism::FIG15);
    println!();
    let s = reduction_vs(&cells, "PSO+PnAR2", "PSO", true);
    println!(
        "PSO+PnAR2 vs PSO (read-dominant): avg {} / max {} response-time reduction",
        pct(s.mean),
        pct(s.max)
    );
    let s_all = reduction_vs(&cells, "PSO+PnAR2", "PSO", false);
    println!(
        "PSO+PnAR2 vs PSO (all workloads): avg {} / max {}",
        pct(s_all.mean),
        pct(s_all.max)
    );
}

/// One MSRC and one YCSB workload (the full evaluation suite's two trace
/// families); `--quick` keeps a single workload for smoke runs.
fn sweep_traces(opts: &Options) -> Vec<Trace> {
    let mut traces = vec![MsrcWorkload::Mds1.synthesize(opts.trace_len(), opts.seed)];
    if !opts.quick {
        traces.push(YcsbWorkload::C.synthesize(opts.trace_len(), opts.seed));
    }
    traces
}

/// The `--gc-stress` SSD: the test-scaled geometry shrunk further (16
/// blocks/plane × 12 pages/block) so the stress trace's footprint fills the
/// usable space and garbage collection runs continuously during the sweep.
/// The synthesized MSRC/YCSB footprints stay proportional to their touched
/// pages, so the stock sweeps never trigger GC — this mode exists to make
/// GC-vs-host contention (and the `--gc-policy` knob) observable.
fn gc_stress_base(opts: &Options) -> SsdConfig {
    let mut cfg = opts.sim_base().with_gc_policy(opts.gc_policy);
    cfg.chip.blocks_per_plane = 16;
    cfg.chip.pages_per_block = 12;
    cfg
}

/// The (config, trace set) a load sweep runs on: the stock MSRC/YCSB set,
/// or the GC-stress pair (shared generator
/// [`rr_workloads::synth::gc_stress_trace`]) under `--gc-stress`.
fn sweep_setup(opts: &Options) -> (SsdConfig, Vec<Trace>) {
    if opts.gc_stress {
        let base = gc_stress_base(opts);
        let trace = rr_workloads::synth::gc_stress_trace(base.max_lpns(), opts.trace_len());
        (base, vec![trace])
    } else {
        let base = opts.sim_base().with_gc_policy(opts.gc_policy);
        (base, sweep_traces(opts))
    }
}

/// Queue-depth sweep: closed-loop replay at each configured queue depth,
/// reporting full per-class latency distributions and throughput. Returns
/// `false` when a `--from-image` bank cannot be loaded or does not cover
/// the sweep workloads.
pub fn sweep_qd(opts: &Options) -> bool {
    heading(
        "QD sweep — closed-loop tail latency vs. queue depth",
        "load as a first-class knob: fio-style --iodepth sweep of the §7.1 SSD at the (2K, 6 mo) highlight point",
    );
    let (base, traces) = sweep_setup(opts);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let point = OperatingPoint::new(2000.0, 6.0);
    let setup = opts.queue_setup();
    let t0 = Instant::now();
    let Some(bank) = obtain_bank(
        "sweep-qd",
        opts.from_image.as_deref(),
        &base,
        traces.iter().map(|t| t.footprint_pages),
    ) else {
        return false;
    };
    let precondition = t0.elapsed();
    let t0 = Instant::now();
    let cells = match run_qd_sweep_array_from(
        &base,
        &traces,
        point,
        &opts.queue_depths,
        &mechanisms,
        &setup,
        opts.jobs,
        opts.array_setup(),
        &bank,
    ) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("sweep-qd: {e}");
            return false;
        }
    };
    eprint_timing("sweep-qd", precondition, t0.elapsed());

    let class_row = |label: &str, s: &LatencySummary| {
        vec![
            label.to_string(),
            s.count.to_string(),
            us_opt(s.p50),
            us_opt(s.p95),
            us_opt(s.p99),
            us_opt(s.p999),
        ]
    };
    println!("latency distributions (µs; — = class empty in this run):");
    let mut rows = Vec::new();
    for c in &cells {
        let prefix = format!("{} / {} / QD={}", c.workload, c.mechanism, c.queue_depth);
        for (label, s) in [
            ("reads", &c.reads),
            ("writes", &c.writes),
            ("retried reads", &c.retried_reads),
        ] {
            let mut row = vec![prefix.clone()];
            row.extend(class_row(label, s));
            rows.push(row);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "class".into(),
                "n".into(),
                "p50".into(),
                "p95".into(),
                "p99".into(),
                "p99.9".into(),
            ],
            &rows
        )
    );

    println!("\nthroughput and means:");
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            c.workload.clone(),
            c.mechanism.clone(),
            c.queue_depth.to_string(),
            format!("{:.1}", c.avg_response_us),
            format!("{:.2}", c.kiops),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "workload".into(),
                "mechanism".into(),
                "QD".into(),
                "avg resp (µs)".into(),
                "kIOPS".into(),
            ],
            &rows
        )
    );
    if setup.queues > 1 && opts.devices == 1 {
        print_per_queue_reads(
            &setup,
            cells.iter().map(|c| {
                (
                    format!("{} / {} / QD={}", c.workload, c.mechanism, c.queue_depth),
                    &c.per_queue_reads,
                )
            }),
        );
    }
    if opts.gc_policy != GcPolicy::Greedy && opts.devices == 1 {
        print_per_queue_gc(
            opts.gc_policy,
            cells.iter().map(|c| {
                (
                    format!("{} / {} / QD={}", c.workload, c.mechanism, c.queue_depth),
                    &c.per_queue_gc,
                )
            }),
        );
    }
    if opts.devices > 1 {
        let labelled = || {
            cells.iter().filter_map(|c| {
                c.array.as_ref().map(|a| {
                    (
                        format!("{} / {} / QD={}", c.workload, c.mechanism, c.queue_depth),
                        a,
                    )
                })
            })
        };
        print_array_tails(labelled());
        print_redundancy(labelled());
    }
    println!(
        "\n(closed-loop: trace timestamps ignored, QD requests kept outstanding;\n\
         QD=1 is the serial-device reference — deeper queues trade latency for\n\
         throughput via multi-die interleaving under channel contention)"
    );
    true
}

/// The per-queue read-latency table of a multi-queue sweep: one row per
/// (cell, submission queue), so WRR weight skew is visible per queue.
fn print_per_queue_reads<'a>(
    setup: &QueueSetup,
    cells: impl Iterator<Item = (String, &'a Vec<LatencySummary>)>,
) {
    let weights = setup.resolved_weights();
    println!(
        "\nper-queue read latency (µs; {} arbitration, weights {:?}, burst {}):",
        match setup.arb {
            ArbPolicy::RoundRobin => "RR",
            ArbPolicy::WeightedRoundRobin => "WRR",
        },
        weights,
        setup.burst,
    );
    let mut rows = Vec::new();
    for (prefix, per_queue) in cells {
        for (q, s) in per_queue.iter().enumerate() {
            rows.push(vec![
                prefix.clone(),
                format!("q{q} (w={})", weights.get(q).copied().unwrap_or(1)),
                s.count.to_string(),
                us_opt(s.p50),
                us_opt(s.p95),
                us_opt(s.p99),
                us_opt(s.p999),
            ]);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "queue".into(),
                "n".into(),
                "p50".into(),
                "p95".into(),
                "p99".into(),
                "p99.9".into(),
            ],
            &rows
        )
    );
}

/// The per-queue GC-stall attribution table of a sweep run under a
/// non-default GC policy: who absorbed GC interference, and how much.
fn print_per_queue_gc<'a>(
    policy: GcPolicy,
    cells: impl Iterator<Item = (String, &'a Vec<GcStalls>)>,
) {
    println!(
        "\nper-queue GC stalls ({} policy; stall µs = suspension latency per \
         (forced) suspension + residual busy time per wait):",
        policy.name()
    );
    let mut rows = Vec::new();
    for (prefix, per_queue) in cells {
        for (q, gc) in per_queue.iter().enumerate() {
            rows.push(vec![
                prefix.clone(),
                format!("q{q}"),
                gc.suspensions.to_string(),
                gc.preemptions.to_string(),
                gc.waits.to_string(),
                gc.deferrals.to_string(),
                format!("{:.1}", gc.stall_us),
            ]);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "queue".into(),
                "suspensions".into(),
                "preemptions".into(),
                "waits".into(),
                "deferrals".into(),
                "stall µs".into(),
            ],
            &rows
        )
    );
}

/// The array tail tables of a `--devices N` run: one per-device read-tail
/// and GC-attribution row per (cell, device), then the array-level
/// amplification summary (array tail vs. best/median device, slowest-device
/// attribution) that makes one device's GC storm visible in array p99.9.
fn print_array_tails<'a>(cells: impl Iterator<Item = (String, &'a ArrayCellStats)>) {
    let cells: Vec<(String, &ArrayCellStats)> = cells.collect();
    let Some((_, first)) = cells.first() else {
        return;
    };
    println!(
        "\nper-device read tails ({} device(s), {} placement):",
        first.devices, first.placement
    );
    let mut rows = Vec::new();
    for (prefix, a) in &cells {
        for (d, tail) in a.per_device.iter().enumerate() {
            rows.push(vec![
                prefix.clone(),
                format!("d{d}"),
                tail.reads.count.to_string(),
                us_opt(tail.reads.p99),
                us_opt(tail.reads.p999),
                tail.gc.stalls().to_string(),
                format!("{:.1}", tail.gc.stall_us),
            ]);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "device".into(),
                "reads".into(),
                "p99".into(),
                "p99.9".into(),
                "gc stalls".into(),
                "gc stall µs".into(),
            ],
            &rows
        )
    );
    println!("\narray tail amplification (array p99/p99.9 ÷ median device):");
    let amp = |v: Option<f64>| v.map_or_else(|| "—".into(), |v| format!("{v:.2}x"));
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(prefix, a)| {
            vec![
                prefix.clone(),
                amp(a.amplification_p99),
                amp(a.amplification_p999),
                us_opt(a.best_read_p999),
                us_opt(a.median_read_p999),
                a.slowest_device
                    .map_or_else(|| "—".into(), |d| format!("d{d}")),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "amp p99".into(),
                "amp p99.9".into(),
                "best p99.9".into(),
                "median p99.9".into(),
                "slowest".into(),
            ],
            &rows
        )
    );
}

/// The redundancy tables of a `--redundancy`/`--fail-device` run: the
/// wait-for-k completion tail, straggler rescues (reads that would have
/// waited on the slowest device's GC window), and the per-device fan-out /
/// rebuild-read counts that show survivors absorbing reconstruction traffic.
/// Prints nothing when no cell carries redundancy stats, so the plain array
/// path's stdout stays byte-identical.
fn print_redundancy<'a>(cells: impl Iterator<Item = (String, &'a ArrayCellStats)>) {
    let cells: Vec<(String, &rr_sim::array::RedundancyStats)> = cells
        .filter_map(|(prefix, a)| a.redundancy.as_ref().map(|r| (prefix, r)))
        .collect();
    if cells.is_empty() {
        return;
    }
    println!("\nredundancy: wait-for-k completion tail and straggler rescues:");
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(prefix, r)| {
            vec![
                prefix.clone(),
                r.scheme.clone(),
                r.wait_for_k.count.to_string(),
                us_opt(r.wait_for_k.p50),
                us_opt(r.wait_for_k.p99),
                us_opt(r.wait_for_k.p999),
                r.rescued_reads.to_string(),
                format!("{:.1}", r.rescued_saved_us),
                r.failed_device
                    .map_or_else(|| "—".into(), |d| format!("d{d}")),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "scheme".into(),
                "reads".into(),
                "p50".into(),
                "p99".into(),
                "p99.9".into(),
                "rescued".into(),
                "saved µs".into(),
                "failed".into(),
            ],
            &rows
        )
    );
    println!("\nredundancy: per-device fan-out and rebuild reads:");
    let mut rows = Vec::new();
    for (prefix, r) in &cells {
        for d in 0..r.fanout_reads.len() {
            rows.push(vec![
                prefix.clone(),
                format!("d{d}"),
                r.fanout_reads[d].to_string(),
                r.fanout_writes[d].to_string(),
                r.rebuild_reads[d].to_string(),
            ]);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "device".into(),
                "read copies".into(),
                "write copies".into(),
                "rebuild reads".into(),
            ],
            &rows
        )
    );
}

/// Offered-load sweep: open-loop replay with each configured arrival-rate
/// multiplier — the hockey-stick sibling of `sweep-qd`. Returns `false`
/// when a `--from-image` bank cannot be loaded or does not cover the sweep
/// workloads.
pub fn sweep_rate(opts: &Options) -> bool {
    heading(
        "Rate sweep — open-loop tail latency vs. offered load",
        "arrival-rate multiplier over the trace's native timing; latency turns up sharply past device saturation",
    );
    let (base, traces) = sweep_setup(opts);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let point = OperatingPoint::new(2000.0, 6.0);
    let setup = opts.queue_setup();
    let t0 = Instant::now();
    let Some(bank) = obtain_bank(
        "sweep-rate",
        opts.from_image.as_deref(),
        &base,
        traces.iter().map(|t| t.footprint_pages),
    ) else {
        return false;
    };
    let precondition = t0.elapsed();
    let t0 = Instant::now();
    let cells = match run_rate_sweep_array_from(
        &base,
        &traces,
        point,
        &opts.rates,
        &mechanisms,
        &setup,
        opts.jobs,
        opts.array_setup(),
        &bank,
    ) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("sweep-rate: {e}");
            return false;
        }
    };
    eprint_timing("sweep-rate", precondition, t0.elapsed());

    println!("latency distributions (µs; — = class empty in this run):");
    let mut rows = Vec::new();
    for c in &cells {
        let prefix = format!("{} / {} / rate={}", c.workload, c.mechanism, c.rate);
        for (label, s) in [
            ("reads", &c.reads),
            ("writes", &c.writes),
            ("retried reads", &c.retried_reads),
        ] {
            rows.push(vec![
                prefix.clone(),
                label.to_string(),
                s.count.to_string(),
                us_opt(s.p50),
                us_opt(s.p95),
                us_opt(s.p99),
                us_opt(s.p999),
            ]);
        }
    }
    print!(
        "{}",
        markdown_table(
            &[
                "run".into(),
                "class".into(),
                "n".into(),
                "p50".into(),
                "p95".into(),
                "p99".into(),
                "p99.9".into(),
            ],
            &rows
        )
    );

    println!("\nthroughput and means:");
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            c.workload.clone(),
            c.mechanism.clone(),
            format!("{}", c.rate),
            format!("{:.1}", c.avg_response_us),
            format!("{:.2}", c.kiops),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "workload".into(),
                "mechanism".into(),
                "rate ×".into(),
                "avg resp (µs)".into(),
                "kIOPS".into(),
            ],
            &rows
        )
    );
    if setup.queues > 1 && opts.devices == 1 {
        print_per_queue_reads(
            &setup,
            cells.iter().map(|c| {
                (
                    format!("{} / {} / rate={}", c.workload, c.mechanism, c.rate),
                    &c.per_queue_reads,
                )
            }),
        );
    }
    if opts.gc_policy != GcPolicy::Greedy && opts.devices == 1 {
        print_per_queue_gc(
            opts.gc_policy,
            cells.iter().map(|c| {
                (
                    format!("{} / {} / rate={}", c.workload, c.mechanism, c.rate),
                    &c.per_queue_gc,
                )
            }),
        );
    }
    if opts.devices > 1 {
        let labelled = || {
            cells.iter().filter_map(|c| {
                c.array.as_ref().map(|a| {
                    (
                        format!("{} / {} / rate={}", c.workload, c.mechanism, c.rate),
                        a,
                    )
                })
            })
        };
        print_array_tails(labelled());
        print_redundancy(labelled());
    }
    println!(
        "\n(open-loop: trace timestamps divided by the rate multiplier; rates past\n\
         the device's saturation point produce the latency hockey-stick that\n\
         closed-loop QD sweeps cannot show)"
    );
    true
}

/// The full Fig. 14 evaluation matrix as a single command (the wall-clock
/// target of the hot-path work; timing diagnostics go to stderr so stdout
/// stays byte-comparable across runs and `--jobs` values).
pub fn matrix(opts: &Options) {
    heading(
        "Evaluation matrix — Fig. 14 mechanism set over the operating grid",
        "§7.2's full grid in one command; stderr reports wall-clock and events/sec",
    );
    let t0 = Instant::now();
    let Some(cells) = run_eval_timed(opts, "matrix", &Mechanism::FIG14) else {
        return;
    };
    let wall = t0.elapsed().as_secs_f64();
    print_matrix(&cells, &Mechanism::FIG14);
    let events: u64 = cells.iter().map(|c| c.events).sum();
    eprintln!(
        "matrix: {} cells, {events} simulated events in {wall:.2} s ({:.0} events/sec)",
        cells.len(),
        events as f64 / wall.max(1e-9)
    );
}

/// The perf regression gate fails a run below this fraction of the trailing
/// median events/sec.
const PERF_GATE_RATIO: f64 = 0.7;
/// Comparable archived runs required before the gate engages.
const PERF_GATE_MIN_RUNS: usize = 3;
/// The gate's trailing window (most recent comparable runs).
const PERF_GATE_TRAILING: usize = 10;
/// Append-only events/sec archive, one JSON object per line.
const PERF_HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Extracts `"key": <number>` from a single-line JSON object. The workspace's
/// serde is an offline no-op shim, so the history file sticks to one object
/// per line and is parsed by key lookup.
fn json_f64_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": true|false` from a single-line JSON object.
fn json_bool_field(line: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extracts `"key": "value"` from a single-line JSON object (values never
/// contain escapes here — they are joined numeric lists).
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// The comparability key of a `repro perf` run: two runs gate against each
/// other only when every field matches.
#[derive(Debug, Clone, PartialEq)]
struct PerfKey {
    quick: bool,
    jobs: f64,
    seed: f64,
    qd: String,
    rates: String,
    devices: f64,
    placement: String,
    redundancy: String,
    fail: String,
}

/// One parsed `BENCH_history.jsonl` record: the comparability key plus the
/// measured throughputs.
struct PerfRecord {
    key: PerfKey,
    /// The removed event engine an old archive line measured — `"wheel"`
    /// for `"wheel": true`, `"shards=N"` for `"shards" > 0` — or `None` for
    /// the one serial engine every current run measures. Lines without
    /// either field are runs of it too.
    retired_engine: Option<String>,
    events_per_sec: f64,
    /// Host requests/sec; `None` in archives that predate the field.
    requests_per_sec: Option<f64>,
}

impl PerfRecord {
    /// Whether this archived run gates against a current run keyed `key`:
    /// the keys match and it measured the current engine.
    fn comparable_to(&self, key: &PerfKey) -> bool {
        self.retired_engine.is_none() && self.key == *key
    }
}

/// Parses the events/sec archive, skipping malformed or truncated lines
/// (e.g. an interrupted CI append) with a single stderr warning — one bad
/// record must not wedge every subsequent gated run.
fn parse_perf_history(history: &str) -> Vec<PerfRecord> {
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in history.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let record = (|| {
            let wheel = json_bool_field(line, "wheel").unwrap_or(false);
            let shards = json_f64_field(line, "shards").unwrap_or(0.0);
            let retired_engine = match (wheel, shards > 0.0) {
                (false, false) => None,
                (true, false) => Some("wheel".to_string()),
                (false, true) => Some(format!("shards={shards}")),
                (true, true) => Some(format!("wheel,shards={shards}")),
            };
            Some(PerfRecord {
                key: PerfKey {
                    quick: json_bool_field(line, "quick")?,
                    jobs: json_f64_field(line, "jobs")?,
                    seed: json_f64_field(line, "seed")?,
                    qd: json_str_field(line, "qd")?.to_string(),
                    rates: json_str_field(line, "rates")?.to_string(),
                    // Absent in pre-array archives: those runs measured the
                    // single-device stack (`--devices 1`, placement irrelevant).
                    devices: json_f64_field(line, "devices").unwrap_or(1.0),
                    placement: json_str_field(line, "placement")
                        .unwrap_or("rr")
                        .to_string(),
                    // Absent in pre-redundancy archives: those runs measured
                    // the plain array path with no failure injection.
                    redundancy: json_str_field(line, "redundancy")
                        .unwrap_or("none")
                        .to_string(),
                    fail: json_str_field(line, "fail").unwrap_or("none").to_string(),
                },
                retired_engine,
                events_per_sec: json_f64_field(line, "events_per_sec").filter(|e| e.is_finite())?,
                requests_per_sec: json_f64_field(line, "requests_per_sec")
                    .filter(|r| r.is_finite()),
            })
        })();
        match record {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!(
            "warning: skipped {skipped} malformed line(s) in {PERF_HISTORY_FILE} — \
             a corrupt or truncated archive record is ignored, not fatal"
        );
    }
    records
}

/// The comparability key of a `repro perf` run under `opts`.
fn perf_key(opts: &Options) -> PerfKey {
    let (qd, rates) = perf_axes(opts);
    PerfKey {
        quick: opts.quick,
        jobs: opts.jobs as f64,
        seed: opts.seed as f64,
        qd,
        rates,
        devices: opts.devices as f64,
        placement: opts.placement.name().to_string(),
        redundancy: opts.redundancy.name().to_string(),
        fail: perf_fail_axis(opts),
    }
}

/// The sweep axes that shape a `repro perf` measurement, joined for the
/// archive's comparability key: two runs are only comparable when they
/// measured the same queue-depth and rate lists.
fn perf_axes(opts: &Options) -> (String, String) {
    let qd = opts
        .queue_depths
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let rates = opts
        .rates
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    (qd, rates)
}

/// The `--fail-device`/`--fail-at-us` pair as a comparability-key axis:
/// `"d{D}@{T}"` when failure injection is on, `"none"` otherwise (matching
/// the backfill for pre-redundancy archive records).
fn perf_fail_axis(opts: &Options) -> String {
    match (opts.fail_device, opts.fail_at_us) {
        (Some(d), Some(t)) => format!("d{d}@{t}"),
        _ => "none".to_string(),
    }
}

/// The ROADMAP's perf trajectory gate. The canonical spec lives in the
/// README's "Perf regression gate" subsection; in code terms: this run's
/// overall events/sec, and separately its overall host requests/sec, are
/// compared against the median of the last [`PERF_GATE_TRAILING`] (10)
/// *comparable* archived runs in [`PERF_HISTORY_FILE`] that carry that
/// metric, where comparable means the same `--quick`,
/// `--jobs`, `--seed`, `--queue-depth`, `--rate`, `--devices`,
/// `--placement`, `--redundancy`, and `--fail-device`/`--fail-at-us` values
/// (N-device array runs never gate against single-device ones, and
/// redundant or failure-injected runs never gate against plain ones — the
/// routed workloads have different per-event costs). Archived runs of the
/// removed timing-wheel and channel-sharded engines never gate. Returns
/// `false` — failing `repro perf` and therefore CI — when either metric
/// drops below [`PERF_GATE_RATIO`] (0.7×) of its median; each metric's gate
/// skips gracefully while fewer than [`PERF_GATE_MIN_RUNS`] (3) comparable
/// runs carry it. Only runs that pass (or skip) the gate are archived —
/// appending regressed runs would let repeated re-runs drag the median down
/// until a real regression passes.
fn perf_gate(opts: &Options, events_per_sec: f64, requests_per_sec: f64) -> bool {
    let key = perf_key(opts);
    let history = std::fs::read_to_string(PERF_HISTORY_FILE).unwrap_or_default();
    let prior: Vec<PerfRecord> = parse_perf_history(&history)
        .into_iter()
        .filter(|r| r.comparable_to(&key))
        .collect();
    let events: Vec<f64> = prior.iter().map(|r| r.events_per_sec).collect();
    let requests: Vec<f64> = prior.iter().filter_map(|r| r.requests_per_sec).collect();
    // Both gates report, even when the first one trips.
    let events_ok = gate_metric("events/sec", events_per_sec, &events);
    let ok = gate_metric("host req/s", requests_per_sec, &requests) && events_ok;
    if ok {
        let line = format!(
            "{{\"quick\": {}, \"jobs\": {}, \"seed\": {}, \"qd\": \"{}\", \
             \"rates\": \"{}\", \"devices\": {}, \"placement\": \"{}\", \
             \"redundancy\": \"{}\", \"fail\": \"{}\", \
             \"events_per_sec\": {events_per_sec:.1}, \"requests_per_sec\": {requests_per_sec:.1}}}\n",
            key.quick,
            opts.jobs,
            opts.seed,
            key.qd,
            key.rates,
            opts.devices,
            key.placement,
            key.redundancy,
            key.fail,
        );
        let append = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(PERF_HISTORY_FILE)
            .and_then(|mut archive| std::io::Write::write_all(&mut archive, line.as_bytes()));
        if let Err(e) = append {
            eprintln!("perf: cannot append to {PERF_HISTORY_FILE}: {e}");
            return false;
        }
    }
    ok
}

/// One metric's gate: `value` against [`PERF_GATE_RATIO`] of the median of
/// the trailing [`PERF_GATE_TRAILING`] entries of `prior` (archive order),
/// skipped while fewer than [`PERF_GATE_MIN_RUNS`] exist.
fn gate_metric(metric: &str, value: f64, prior: &[f64]) -> bool {
    let recent = &prior[prior.len().saturating_sub(PERF_GATE_TRAILING)..];
    if recent.len() < PERF_GATE_MIN_RUNS {
        println!(
            "perf gate: {} comparable archived run(s) with {metric} (< {PERF_GATE_MIN_RUNS}) — \
             recorded {value:.0} {metric}, gate skipped",
            recent.len()
        );
        return true;
    }
    let mut sorted = recent.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite archived throughput"));
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    let floor = PERF_GATE_RATIO * median;
    if value < floor {
        eprintln!(
            "perf gate: {value:.0} {metric} is below {PERF_GATE_RATIO}× the trailing median \
             of {} runs ({median:.0} → floor {floor:.0}) — perf regression (run not archived)",
            recent.len()
        );
        false
    } else {
        println!(
            "perf gate: {value:.0} {metric} vs trailing median {median:.0} over {} run(s) — \
             ok (floor {floor:.0})",
            recent.len()
        );
        true
    }
}

/// One measured workload of `repro perf`.
struct PerfRow {
    name: &'static str,
    cells: usize,
    requests: u64,
    events: u64,
    wall_s: f64,
}

impl PerfRow {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// End-to-end throughput: simulated host requests per host second.
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }
}

/// Measures simulator throughput (events/sec, and host requests/sec end to
/// end) over the evaluation matrix and both load sweeps, prints a summary, and writes `BENCH_sim.json` so the
/// numbers accumulate as a tracked artifact. Every run is also appended to
/// the `BENCH_history.jsonl` archive and checked against the trailing median
/// of comparable runs (see [`perf_gate`]). Returns `false` (CLI failure) if
/// any workload processed zero events or the regression gate trips.
pub fn perf(opts: &Options) -> bool {
    heading(
        "Perf — simulator hot-path throughput",
        "events/sec and host requests/sec over the Fig. 14 matrix and the QD/rate sweeps; \
         written to BENCH_sim.json",
    );
    let base = opts.sim_base();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let mut rows = Vec::new();

    let t0 = Instant::now();
    let cells = run_eval(opts, &Mechanism::FIG14);
    rows.push(PerfRow {
        name: "matrix",
        cells: cells.len(),
        requests: (opts.trace_len() * cells.len()) as u64,
        events: cells.iter().map(|c| c.events).sum(),
        wall_s: t0.elapsed().as_secs_f64(),
    });

    let traces = sweep_traces(opts);
    let t0 = Instant::now();
    let qd = run_qd_sweep_array(
        &base,
        &traces,
        point,
        &opts.queue_depths,
        &mechanisms,
        &QueueSetup::single(),
        opts.jobs,
        opts.array_setup(),
    );
    rows.push(PerfRow {
        name: "sweep-qd",
        cells: qd.len(),
        requests: (opts.trace_len() * qd.len()) as u64,
        events: qd.iter().map(|c| c.events).sum(),
        wall_s: t0.elapsed().as_secs_f64(),
    });

    let t0 = Instant::now();
    let rate = run_rate_sweep_array(
        &base,
        &traces,
        point,
        &opts.rates,
        &mechanisms,
        &QueueSetup::single(),
        opts.jobs,
        opts.array_setup(),
    );
    rows.push(PerfRow {
        name: "sweep-rate",
        cells: rate.len(),
        requests: (opts.trace_len() * rate.len()) as u64,
        events: rate.iter().map(|c| c.events).sum(),
        wall_s: t0.elapsed().as_secs_f64(),
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.cells.to_string(),
                r.events.to_string(),
                format!("{:.3}", r.wall_s),
                format!("{:.0}", r.events_per_sec()),
                format!("{:.0}", r.requests_per_sec()),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "workload".into(),
                "cells".into(),
                "events".into(),
                "wall (s)".into(),
                "events/sec".into(),
                "host req/s".into(),
            ],
            &table
        )
    );

    // Hand-rolled JSON: the workspace's serde is an offline no-op shim.
    let mut json = String::from("{\n  \"bench\": \"sim_throughput\",\n");
    json.push_str(&format!("  \"quick\": {},\n", opts.quick));
    json.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!("  \"devices\": {},\n", opts.devices));
    json.push_str(&format!(
        "  \"placement\": \"{}\",\n",
        opts.placement.name()
    ));
    json.push_str(&format!(
        "  \"redundancy\": \"{}\",\n",
        opts.redundancy.name()
    ));
    json.push_str(&format!("  \"fail\": \"{}\",\n", perf_fail_axis(opts)));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cells\": {}, \"requests\": {}, \"events\": {}, \
             \"wall_s\": {:.6}, \"events_per_sec\": {:.1}, \"requests_per_sec\": {:.1}}}{}\n",
            r.name,
            r.cells,
            r.requests,
            r.events,
            r.wall_s,
            r.events_per_sec(),
            r.requests_per_sec(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_sim.json", &json) {
        eprintln!("perf: cannot write BENCH_sim.json: {e}");
        return false;
    }
    println!("\nwrote BENCH_sim.json");

    let ok = rows.iter().all(|r| r.events > 0);
    if !ok {
        eprintln!("perf: a workload processed zero events — the simulator did no work");
    }
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    let total_requests: u64 = rows.iter().map(|r| r.requests).sum();
    let total_wall = rows.iter().map(|r| r.wall_s).sum::<f64>().max(1e-9);
    // A zero-events run is broken, not slow: fail before the gate so the
    // archive never absorbs its depressed throughput as a baseline.
    ok && perf_gate(
        opts,
        total_events as f64 / total_wall,
        total_requests as f64 / total_wall,
    )
}

/// One-line unicode sparkline over `values`, min-to-max scaled (a flat
/// series renders mid-height bars).
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            if max > min {
                BARS[(((v - min) / (max - min)) * 7.0).round() as usize]
            } else {
                BARS[3]
            }
        })
        .collect()
}

/// `repro perf --plot`: renders the `BENCH_history.jsonl` events/sec
/// trajectory (the ROADMAP's standing plot item) without measuring a new
/// run — one ASCII sparkline per comparability group (same
/// `--quick`/`--jobs`/`--seed`/`--queue-depth`/`--rate`/`--devices`/
/// `--placement`; runs of a removed engine form their own groups), plus a
/// `BENCH_trajectory.csv`
/// export for external plotting.
/// Returns
/// `false` when the archive exists but holds no parsable runs, or when the
/// CSV cannot be written.
pub fn perf_plot(_opts: &Options) -> bool {
    heading(
        "Perf trajectory — archived events/sec over time",
        "BENCH_history.jsonl rendered as one sparkline per comparability group; CSV → BENCH_trajectory.csv",
    );
    let Ok(history) = std::fs::read_to_string(PERF_HISTORY_FILE) else {
        println!("no {PERF_HISTORY_FILE} yet — run `repro perf` first to record a data point");
        return true;
    };
    // Group runs by comparability key, preserving first-appearance order.
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    for r in parse_perf_history(&history) {
        let k = &r.key;
        let mut key = format!(
            "quick={} jobs={} seed={} qd={} rates={} devices={} placement={}",
            k.quick, k.jobs, k.seed, k.qd, k.rates, k.devices, k.placement,
        );
        if let Some(engine) = &r.retired_engine {
            key.push_str(&format!(" engine={engine} (removed)"));
        }
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, runs)) => runs.push(r.events_per_sec),
            None => groups.push((key, vec![r.events_per_sec])),
        }
    }
    if groups.is_empty() {
        eprintln!("{PERF_HISTORY_FILE} holds no parsable runs");
        return false;
    }
    let mut csv = String::from("group,run,events_per_sec\n");
    for (key, runs) in &groups {
        let min = runs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = runs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let latest = *runs.last().expect("group holds at least one run");
        println!("\n{key}  ({} run(s))", runs.len());
        println!(
            "  {}  min {min:.0} / max {max:.0} / latest {latest:.0} events/sec",
            sparkline(runs)
        );
        for (i, eps) in runs.iter().enumerate() {
            csv.push_str(&format!("\"{key}\",{i},{eps:.1}\n"));
        }
    }
    if let Err(e) = std::fs::write("BENCH_trajectory.csv", &csv) {
        eprintln!("perf: cannot write BENCH_trajectory.csv: {e}");
        return false;
    }
    println!("\nwrote BENCH_trajectory.csv");
    true
}

/// §8 extensions: Eager-PnAR2 (speculative retry start) and AR2-Regular
/// (reduced-timing regular reads), against PnAR2 and the NoRR bound.
pub fn extensions(opts: &Options) {
    heading(
        "Extensions — the paper's §8 'Discussion' mechanisms",
        "§8: speculative retry start + regular-read latency reduction",
    );
    let mechanisms = [
        Mechanism::Baseline,
        Mechanism::PnAr2,
        Mechanism::EagerPnAr2,
        Mechanism::RegularAr2,
        Mechanism::NoRR,
    ];
    let base = opts.sim_base();
    let traces: Vec<(Trace, bool)> = vec![
        (
            MsrcWorkload::Mds1.synthesize(opts.trace_len(), opts.seed),
            true,
        ),
        (
            MsrcWorkload::Stg0.synthesize(opts.trace_len(), opts.seed),
            false,
        ),
        (
            YcsbWorkload::C.synthesize(opts.trace_len(), opts.seed),
            true,
        ),
    ];
    let points = [
        OperatingPoint::new(2000.0, 12.0),
        OperatingPoint::new(1000.0, 0.0),
    ];
    let cells = run_matrix_parallel(&base, &traces, &points, &mechanisms, opts.jobs);
    print_matrix(&cells, &mechanisms);
    println!();
    for m in ["Eager-PnAR2", "AR2-Regular"] {
        let s = reduction_vs(&cells, m, "PnAR2", false);
        println!("{m} vs PnAR2: avg {} / max {}", pct(s.mean), pct(s.max));
    }
    println!(
        "\nEager-PnAR2 helps most on aged data (skips the doomed default read);\n\
         AR2-Regular helps most on fresh/hot data (no-retry reads sense ~25 % faster)."
    );
}

/// Ablations of the design choices DESIGN.md calls out.
pub fn ablation(opts: &Options) {
    use rr_core::experiment::run_one;
    use rr_core::mechanisms::PnAr2Controller;
    use rr_core::pso::{PsoController, PsoPredictor};
    use rr_flash::calibration::OperatingCondition;
    use rr_sim::readflow::BaselineController;
    use rr_sim::ssd::Ssd;

    heading(
        "Ablation 1 — adaptive (RPT) vs. fixed tPRE reduction",
        "§6.2: AR2 'carefully decides the tPRE reduction amount depending on the current operating conditions'",
    );
    let base = opts.sim_base();
    let trace = MsrcWorkload::Mds1.synthesize(opts.trace_len() / 2, opts.seed);
    let mut rows = Vec::new();
    for point in [
        OperatingPoint::new(0.0, 1.0),
        OperatingPoint::new(2000.0, 12.0),
    ] {
        let baseline = run_one(
            &base,
            Mechanism::Baseline,
            point,
            &trace,
            &ReadTimingParamTable::default(),
        );
        let mut row_for = |label: &str, rpt: &ReadTimingParamTable| {
            let mut cfg = base.clone().with_condition(OperatingCondition::new(
                point.pec,
                point.retention_months,
                30.0,
            ));
            cfg.ideal_no_retry = false;
            let ssd = Ssd::new(
                cfg,
                Box::new(PnAr2Controller::new(rpt.clone())),
                trace.footprint_pages,
            )
            .expect("valid config");
            let report = ssd.run(&trace.requests);
            rows.push(vec![
                format!(
                    "({}, {} mo)",
                    point.pec as u64, point.retention_months as u64
                ),
                label.to_string(),
                format!("{:.1}", report.avg_response_us()),
                format!(
                    "{:.3}",
                    report.avg_response_us() / baseline.avg_response_us()
                ),
                report.read_failures.to_string(),
            ]);
        };
        row_for("adaptive RPT", &ReadTimingParamTable::default());
        row_for("fixed 40%", &ReadTimingParamTable::fixed(0.40));
        row_for("fixed 54%", &ReadTimingParamTable::fixed(0.54));
    }
    print!(
        "{}",
        markdown_table(
            &[
                "condition".into(),
                "tPRE policy".into(),
                "avg resp (µs)".into(),
                "vs Baseline".into(),
                "read failures".into(),
            ],
            &rows
        )
    );
    println!(
        "(fixed 54 % blows the margin on aged blocks and pays the §6.2 default-timing\n\
         fallback walk; fixed 40 % wastes margin on fresh blocks — adaptivity wins both)"
    );

    heading(
        "Ablation 2 — PSO guard band",
        "§3.1/[84]: the ~3-step guard is why PSO 'cannot completely avoid read-retry'",
    );
    let point = OperatingPoint::new(2000.0, 12.0);
    let mut rows = Vec::new();
    for guard in [1u32, 3, 5, 8] {
        let mut cfg = base.clone().with_condition(OperatingCondition::new(
            point.pec,
            point.retention_months,
            30.0,
        ));
        cfg.ideal_no_retry = false;
        let controller = PsoController::with_predictor(
            BaselineController::new(),
            PsoPredictor::with_guard(guard),
        );
        let ssd = Ssd::new(cfg, Box::new(controller), trace.footprint_pages).expect("valid config");
        let report = ssd.run(&trace.requests);
        rows.push(vec![
            guard.to_string(),
            format!("{:.2}", report.avg_retry_steps()),
            format!("{:.1}", report.avg_response_us()),
            report.read_failures.to_string(),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "guard steps".into(),
                "avg retry steps".into(),
                "avg resp (µs)".into(),
                "read failures".into(),
            ],
            &rows
        )
    );
    println!(
        "(a small guard cuts steps but risks overshooting V_OPT and paying the\n\
         full-walk fallback; the paper's ~3-step guard balances the two)"
    );
}

/// Writes every characterization figure's data as CSV files (default
/// directory `figures-csv/`, override with `--csv DIR`). With `--csv`, the
/// evaluation results — matrix cells and both load sweeps, with full
/// per-class latency distributions — are exported too, so every figure can
/// be regenerated outside the CLI. Returns `false` (CLI failure) when the
/// output directory or a CSV cannot be written — e.g. a read-only CWD.
pub fn export(opts: &Options) -> bool {
    use rr_charact::export as csv;
    let dir_name = opts.csv_dir.as_deref().unwrap_or("figures-csv");
    let dir = std::path::Path::new(dir_name);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("export: cannot create {}: {e}", dir.display());
        return false;
    }
    let mut platform = opts.platform();
    let pages = opts.pages_per_chip();
    let mut ok = true;
    let mut write = |name: &str, content: String| {
        let path = dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("export: cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    };
    if opts.csv_dir.is_some() {
        use rr_core::export as eval_csv;
        let (base, traces) = sweep_setup(opts);
        let point = OperatingPoint::new(2000.0, 6.0);
        let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
        let cells = run_eval(opts, &Mechanism::FIG14);
        write("matrix.csv", eval_csv::matrix_csv(&cells));
        let setup = opts.queue_setup();
        // `--from-image` warm-starts the two sweep exports; the matrix
        // export above always preconditions in-process (its trace set and
        // geometry differ from a `--gc-stress` bank's).
        let t0 = Instant::now();
        let Some(bank) = obtain_bank(
            "export",
            opts.from_image.as_deref(),
            &base,
            traces.iter().map(|t| t.footprint_pages),
        ) else {
            return false;
        };
        let precondition = t0.elapsed();
        let t0 = Instant::now();
        let qd = match run_qd_sweep_array_from(
            &base,
            &traces,
            point,
            &opts.queue_depths,
            &mechanisms,
            &setup,
            opts.jobs,
            opts.array_setup(),
            &bank,
        ) {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("export: {e}");
                return false;
            }
        };
        write("sweep_qd.csv", eval_csv::qd_sweep_csv(&qd));
        let rate = match run_rate_sweep_array_from(
            &base,
            &traces,
            point,
            &opts.rates,
            &mechanisms,
            &setup,
            opts.jobs,
            opts.array_setup(),
            &bank,
        ) {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("export: {e}");
                return false;
            }
        };
        write("sweep_rate.csv", eval_csv::rate_sweep_csv(&rate));
        eprint_timing("export", precondition, t0.elapsed());
    } else if opts.from_image.is_some() {
        eprintln!("export: --from-image warm-starts the evaluation exports — pass --csv DIR too");
        return false;
    }
    write(
        "fig4b.csv",
        csv::fig4b_csv(&figures::fig4b(&platform, 2000.0, 12.0, &[16, 21], 3)),
    );
    write("fig5.csv", csv::fig5_csv(&figures::fig5(&platform, pages)));
    write(
        "fig7.csv",
        csv::fig7_csv(&figures::fig7(&mut platform, pages)),
    );
    write(
        "fig8.csv",
        csv::fig8_csv(&figures::fig8(&mut platform, pages / 2)),
    );
    write(
        "fig9.csv",
        csv::fig9_csv(&figures::fig9(&mut platform, pages / 2)),
    );
    write(
        "fig10.csv",
        csv::fig10_csv(&figures::fig10(&mut platform, pages / 2)),
    );
    write(
        "fig11.csv",
        csv::fig11_csv(&figures::fig11(&mut platform, pages)),
    );
    ok
}

/// `repro snapshot --out img.rrimg`: preconditions the current flag set's
/// device images once and writes them as a versioned image bank for later
/// `--from-image` warm starts. With `--gc-stress` the bank holds the stress
/// workload's image under the shrunken GC geometry; otherwise it covers
/// every footprint of the MSRC/YCSB evaluation set, so one file serves
/// fig14, both sweeps, export, and serve. Returns `false` when the
/// configuration is invalid or the file cannot be written.
pub fn snapshot(opts: &Options) -> bool {
    let out = opts
        .out
        .as_deref()
        .expect("main enforces --out for snapshot");
    let (base, traces) = if opts.gc_stress {
        sweep_setup(opts)
    } else {
        let traces = all_traces(opts).into_iter().map(|(t, ..)| t).collect();
        (opts.sim_base(), traces)
    };
    let t0 = Instant::now();
    let bank = match ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages)) {
        Ok(bank) => bank,
        Err(e) => {
            eprintln!("snapshot: {e}");
            return false;
        }
    };
    let precondition = t0.elapsed();
    if let Err(e) = bank.save(out) {
        eprintln!("snapshot: cannot write {out}: {e}");
        return false;
    }
    let footprints: Vec<u64> = bank.images().iter().map(|i| i.lpn_count()).collect();
    println!(
        "wrote {out}: {} preconditioned image(s), footprints {footprints:?} pages",
        bank.len()
    );
    eprintln!("snapshot: precondition {:.1} ms", ms(precondition));
    true
}

/// Parses a serve-protocol mechanism name (the figure names of
/// [`Mechanism::name`], case-insensitive).
fn parse_mechanism(s: &str) -> Option<Mechanism> {
    SERVE_MECHANISMS
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(s))
}

/// Every mechanism `repro serve` accepts by name.
const SERVE_MECHANISMS: [Mechanism; 9] = [
    Mechanism::Baseline,
    Mechanism::Pr2,
    Mechanism::Ar2,
    Mechanism::PnAr2,
    Mechanism::NoRR,
    Mechanism::Pso,
    Mechanism::PsoPnAr2,
    Mechanism::EagerPnAr2,
    Mechanism::RegularAr2,
];

/// `repro serve`: loads (or preconditions) a device-image bank once, then
/// answers replay queries line-by-line from stdin until EOF or `quit`.
///
/// Protocol, one line per query: `<workload> <mechanism> <qd> [devices]`
/// (e.g. `mds_1 PnAR2 16`) replays that workload closed-loop at the given
/// queue depth under the (2K P/E, 6 mo) highlight point, warm-started from
/// the workload's aged image. Replies on stdout: a single `ready ...` line
/// at startup, then `ok workload=.. mechanism=.. qd=.. reads=..
/// read_p99_us=.. avg_us=.. kiops=.. events=..` (or `err <reason>`) per
/// query — stdout stays deterministic; per-query wall clock goes to stderr.
/// The optional fourth field replays the query on an N-device array (the
/// `--placement` routing; omitted = the CLI's `--devices`); single-device
/// replies stay byte-identical to the pre-array protocol, array replies
/// insert `devices=N` after `qd=`. Because every query restores the image
/// into reused arenas instead of re-reading the file or re-aging the
/// device, answers after startup cost milliseconds.
pub fn serve(opts: &Options) -> bool {
    use std::io::BufRead;
    let (base, traces) = sweep_setup(opts);
    let point = OperatingPoint::new(2000.0, 6.0);
    let setup = opts.queue_setup();
    let rpt = ReadTimingParamTable::default();
    let t0 = Instant::now();
    let Some(bank) = obtain_bank(
        "serve",
        opts.from_image.as_deref(),
        &base,
        traces.iter().map(|t| t.footprint_pages),
    ) else {
        return false;
    };
    for trace in &traces {
        let Some(image) = bank.get(trace.footprint_pages) else {
            eprintln!(
                "serve: image bank holds no image for the {}-page footprint of workload {}",
                trace.footprint_pages, trace.name
            );
            return false;
        };
        if let Err(e) = image.validate_for(&base, trace.footprint_pages) {
            eprintln!("serve: {e}");
            return false;
        }
    }
    let names: Vec<&str> = traces.iter().map(|t| t.name.as_str()).collect();
    let mechanisms: Vec<&str> = SERVE_MECHANISMS.iter().map(Mechanism::name).collect();
    eprintln!(
        "serve: image bank ready in {:.1} ms; protocol: '<workload> <mechanism> <qd> [devices]' \
         per line, 'quit' to exit",
        ms(t0.elapsed())
    );
    println!(
        "ready workloads={} mechanisms={}",
        names.join(","),
        mechanisms.join(",")
    );
    let mut arena = SimArena::new();
    // One `DeviceSet` per queried array width: its per-device arenas are the
    // N restore targets the image forks land in, reused across queries.
    let mut device_sets: Vec<DeviceSet> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let (workload, mechanism, qd, devices_field) = match parts[..] {
            [w, m, q] => (w, m, q, None),
            [w, m, q, d] => (w, m, q, Some(d)),
            _ => {
                println!("err expected '<workload> <mechanism> <qd> [devices]'");
                continue;
            }
        };
        let Some(trace) = traces.iter().find(|t| t.name == workload) else {
            println!("err unknown workload {workload} (have {})", names.join(","));
            continue;
        };
        let Some(mechanism) = parse_mechanism(mechanism) else {
            println!(
                "err unknown mechanism {mechanism} (have {})",
                mechanisms.join(",")
            );
            continue;
        };
        let Some(qd) = qd.parse::<u32>().ok().filter(|&v| v >= 1) else {
            println!("err qd must be an integer >= 1");
            continue;
        };
        let devices = match devices_field {
            None => opts.devices,
            Some(d) => match d.parse::<u32>().ok().filter(|&v| v >= 1) {
                Some(d) => d,
                None => {
                    println!("err devices must be an integer >= 1");
                    continue;
                }
            },
        };
        if devices > 1 {
            let set_idx = match device_sets.iter().position(|s| s.devices() == devices) {
                Some(i) => i,
                None => {
                    device_sets
                        .push(DeviceSet::new(devices).expect("devices is validated to be >= 1"));
                    device_sets.len() - 1
                }
            };
            let routed = trace.split_routed(devices, |i, r| {
                opts.placement.route(i, r, devices, trace.footprint_pages)
            });
            let forks = match bank.fork_for_array(trace.footprint_pages, devices) {
                Ok(forks) => forks,
                Err(e) => {
                    println!("err {e}");
                    continue;
                }
            };
            let t0 = Instant::now();
            let report = match run_one_queued_array_from(
                &mut device_sets[set_idx],
                &base,
                mechanism,
                point,
                &routed,
                trace.footprint_pages,
                &rpt,
                &setup,
                qd,
                Some(forks.as_slice()),
            ) {
                Ok(report) => report,
                Err(e) => {
                    println!("err {e}");
                    continue;
                }
            };
            eprintln!(
                "serve: {} {} qd={qd} devices={devices} in {:.1} ms",
                trace.name,
                mechanism.name(),
                ms(t0.elapsed())
            );
            println!(
                "ok workload={} mechanism={} qd={qd} devices={devices} reads={} \
                 read_p99_us={} avg_us={:.1} kiops={:.2} events={}",
                trace.name,
                mechanism.name(),
                report.read_latency.count,
                report
                    .read_latency
                    .p99
                    .map_or_else(|| "-".into(), |v| format!("{v:.1}")),
                report.avg_response_us(),
                report.kiops(),
                report.events_processed,
            );
            continue;
        }
        let image = bank.get(trace.footprint_pages);
        let t0 = Instant::now();
        let report = run_one_queued_from(
            &mut arena, &base, mechanism, point, trace, &rpt, &setup, qd, image,
        );
        eprintln!(
            "serve: {} {} qd={qd} in {:.1} ms",
            trace.name,
            mechanism.name(),
            ms(t0.elapsed())
        );
        println!(
            "ok workload={} mechanism={} qd={qd} reads={} read_p99_us={} avg_us={:.1} \
             kiops={:.2} events={}",
            trace.name,
            mechanism.name(),
            report.read_latency.count,
            report
                .read_latency
                .p99
                .map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            report.avg_response_us(),
            report.kiops(),
            report.events_processed,
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A current-format archive line: no engine fields at all.
    const CURRENT: &str = "{\"quick\": true, \"jobs\": 2, \"seed\": 1592074273, \
        \"qd\": \"1,4,16\", \"rates\": \"0.5,1,2,4\", \"devices\": 1, \"placement\": \"rr\", \
        \"redundancy\": \"none\", \"fail\": \"none\", \"events_per_sec\": 1000.0}";

    fn with_engine_fields(wheel: bool, shards: u32) -> String {
        CURRENT.replace(
            "\"devices\"",
            &format!("\"wheel\": {wheel}, \"shards\": {shards}, \"devices\""),
        )
    }

    #[test]
    fn a_line_with_neither_engine_field_is_a_current_run() {
        let records = parse_perf_history(CURRENT);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.retired_engine, None);
        assert_eq!(r.events_per_sec, 1000.0);
        assert!(r.comparable_to(&r.key.clone()));
    }

    #[test]
    fn metric_gate_skips_below_three_runs_then_fails_below_the_ratio() {
        assert!(gate_metric("host req/s", 1.0, &[100.0, 100.0]));
        assert!(gate_metric("host req/s", 70.0, &[100.0; 3]));
        assert!(!gate_metric("host req/s", 69.9, &[100.0; 3]));
        // Only the trailing 10 runs count.
        let prior: Vec<f64> = [1000.0; 5].into_iter().chain([100.0; 10]).collect();
        assert!(gate_metric("events/sec", 71.0, &prior));
    }

    #[test]
    fn records_without_requests_per_sec_skip_only_the_new_gate() {
        let new = CURRENT.replace("1000.0}", "1000.0, \"requests_per_sec\": 300.5}");
        let records = parse_perf_history(&format!("{CURRENT}\n{CURRENT}\n{CURRENT}\n{new}\n"));
        let requests: Vec<f64> = records.iter().filter_map(|r| r.requests_per_sec).collect();
        let events: Vec<f64> = records.iter().map(|r| r.events_per_sec).collect();
        assert_eq!(
            (records[0].requests_per_sec, &requests[..]),
            (None, &[300.5][..])
        );
        // Four comparable events/sec runs gate; one req/s run does not yet.
        assert!(!gate_metric("events/sec", 500.0, &events));
        assert!(gate_metric("host req/s", 1.0, &requests));
    }

    #[test]
    fn heap_lines_of_old_archives_stay_comparable() {
        let current = &parse_perf_history(CURRENT)[0];
        let old = parse_perf_history(&with_engine_fields(false, 0));
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].retired_engine, None);
        assert!(old[0].comparable_to(&current.key));
    }

    #[test]
    fn retired_engine_lines_parse_but_never_join_a_current_group() {
        let current = &parse_perf_history(CURRENT)[0];
        for (wheel, shards, engine) in [
            (true, 0, "wheel"),
            (false, 4, "shards=4"),
            (true, 2, "wheel,shards=2"),
        ] {
            let history = format!("{}\n{CURRENT}\n", with_engine_fields(wheel, shards));
            // Both lines parse: a retired-engine line is not malformed.
            let records = parse_perf_history(&history);
            assert_eq!(records.len(), 2, "wheel={wheel} shards={shards}");
            let old = &records[0];
            assert_eq!(old.retired_engine.as_deref(), Some(engine));
            // Same key in every other field, yet it never gates.
            assert_eq!(old.key, current.key);
            assert!(!old.comparable_to(&current.key));
            let comparable = records
                .iter()
                .filter(|r| r.comparable_to(&current.key))
                .count();
            assert_eq!(comparable, 1);
        }
    }
}
