//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section, plus the later studies.
//!
//! ```text
//! experiments <command>|all [--out DIR] [--quick]
//! ```
//!
//! Run without a command for the list, which is generated from
//! [`COMMANDS`]. `--quick` runs the simulations 10× shrunk (the default
//! is full paper scale, ≈700 simulated seconds each). Output: ASCII
//! charts on stdout; CSVs, sibling gnuplot scripts and a paper-vs-measured
//! registry under `--out` (default `results/`). Every run merges its
//! records into the registry already there, by id.

use std::env::VarError;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use vfc_controller::ControlMode;
use vfc_cpusched::topology::NodeSpec;
use vfc_metrics::ascii::chart;
use vfc_metrics::csv::{grouped_series_csv, to_csv, write_csv_file};
use vfc_metrics::experiment::{ExperimentRecord, Registry, Verdict};
use vfc_metrics::series::GroupedSeries;
use vfc_metrics::table::TextTable;
use vfc_placement::cluster::ArrivalOrder;
use vfc_scenarios::estimator_figs::{trace, EstimatorFig};
use vfc_scenarios::eval1::{self, NodeKind};
use vfc_scenarios::eval2;
use vfc_scenarios::runner::{Scale, ScenarioOutcome};
use vfc_scenarios::{cfs_sides, overhead, placement_eval};
use vfc_simcore::Micros;

/// A subcommand: its name, a one-line description, and the function
/// that runs it. The function must add a registry record under the
/// command's name; [`dispatch`] fails the command otherwise.
type Command = (
    &'static str,
    &'static str,
    fn(&mut Ctx) -> Result<(), String>,
);

/// Every subcommand, in suite order. `all` runs the whole table, the
/// usage text lists it, and new scoreboard records are placed by it.
const COMMANDS: &[Command] = &[
    ("table2", "workload on chetemi", |c| {
        table_workload(c, "table2", NodeKind::Chetemi)
    }),
    ("table3", "workload on chiclet", |c| {
        table_workload(c, "table3", NodeKind::Chiclet)
    }),
    ("table4", "node descriptions", table4),
    ("table5", "second-evaluation workload", table5),
    ("fig3", "estimator, rising consumption", |c| {
        estimator_fig(c, "fig3", EstimatorFig::Increase)
    }),
    ("fig4", "estimator, falling consumption", |c| {
        estimator_fig(c, "fig4", EstimatorFig::Decrease)
    }),
    ("fig5", "estimator, stable consumption", |c| {
        estimator_fig(c, "fig5", EstimatorFig::Stable)
    }),
    ("fig6", "vCPU frequency, chetemi A", |c| {
        freq_fig(c, "fig6", NodeKind::Chetemi, ControlMode::MonitorOnly)
    }),
    ("fig7", "vCPU frequency, chetemi B", |c| {
        freq_fig(c, "fig7", NodeKind::Chetemi, ControlMode::Full)
    }),
    ("fig8", "vCPU frequency, chiclet A", |c| {
        freq_fig(c, "fig8", NodeKind::Chiclet, ControlMode::MonitorOnly)
    }),
    ("fig9", "vCPU frequency, chiclet B", |c| {
        freq_fig(c, "fig9", NodeKind::Chiclet, ControlMode::Full)
    }),
    ("fig10", "compression rate, chetemi", |c| {
        rate_fig(c, "fig10", NodeKind::Chetemi)
    }),
    ("fig11", "compression rate, chiclet", |c| {
        rate_fig(c, "fig11", NodeKind::Chiclet)
    }),
    ("fig12", "heterogeneous frequency, A", |c| {
        eval2_fig(c, "fig12", ControlMode::MonitorOnly)
    }),
    ("fig13", "heterogeneous frequency, B", |c| {
        eval2_fig(c, "fig13", ControlMode::Full)
    }),
    ("fig14", "compression rate, 2nd eval", fig14),
    ("placement", "§IV.C Best-Fit study", placement),
    ("cfs-sides", "§IV.A.2 CFS sharing sides", cfs),
    ("overhead", "§IV.A.2 controller loop cost", overhead_cmd),
    ("variance", "§IV.A.2 core-freq. variance", variance),
    ("baselines", "§II Burst VM, VMDFS, shares", baselines),
    ("cluster", "cluster strategy comparison", cluster_cmd),
    ("recovery", "warm vs cold restart", recovery_cmd),
    ("ablation", "design-parameter sweeps", ablation_cmd),
    ("factor-sweep", "§III.C factor on Eq. 7", factor_sweep_cmd),
    ("churn", "control-plane churn", churn_cmd),
    ("trace", "trace-driven scale evaluation", trace_cmd),
    ("overload", "ladder, leases, API shedding", overload_cmd),
    ("pricing", "revenue-vs-SLO frontier", pricing_cmd),
];

/// One of the long scenario simulations that several figures share.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EvalRun {
    Eval1(NodeKind, ControlMode),
    Eval2(ControlMode),
}

/// Every [`EvalRun`]; `all` simulates them in parallel up front.
const EVAL_RUNS: [EvalRun; 6] = [
    EvalRun::Eval1(NodeKind::Chetemi, ControlMode::MonitorOnly),
    EvalRun::Eval1(NodeKind::Chetemi, ControlMode::Full),
    EvalRun::Eval1(NodeKind::Chiclet, ControlMode::MonitorOnly),
    EvalRun::Eval1(NodeKind::Chiclet, ControlMode::Full),
    EvalRun::Eval2(ControlMode::MonitorOnly),
    EvalRun::Eval2(ControlMode::Full),
];

impl EvalRun {
    fn simulate(self, scale: Scale) -> ScenarioOutcome {
        match self {
            EvalRun::Eval1(node, mode) => eval1::run(node, mode, scale),
            EvalRun::Eval2(mode) => eval2::run(mode, scale),
        }
    }
}

struct Ctx {
    out: PathBuf,
    scale: Scale,
    registry: Registry,
    /// Finished [`EvalRun`]s, each simulated at most once.
    outcomes: Vec<(EvalRun, ScenarioOutcome)>,
}

impl Ctx {
    fn new(out: PathBuf, scale: Scale) -> Self {
        Ctx {
            out,
            scale,
            registry: Registry::new(),
            outcomes: Vec::new(),
        }
    }

    /// The outcome of `run`, simulated on first use.
    fn outcome(&mut self, run: EvalRun) -> &ScenarioOutcome {
        let i = match self.outcomes.iter().position(|(r, _)| *r == run) {
            Some(i) => i,
            None => {
                println!("  running {run:?} (this may take a moment)…");
                self.outcomes.push((run, run.simulate(self.scale)));
                self.outcomes.len() - 1
            }
        };
        &self.outcomes[i].1
    }

    /// Simulates every [`EvalRun`] on its own thread. Each simulation is
    /// single-threaded and deterministic, so the figures do not change.
    fn prefill(&mut self) {
        println!("prefilling the six evaluation runs in parallel…");
        let scale = self.scale;
        self.outcomes = std::thread::scope(|s| {
            EVAL_RUNS
                .map(|run| s.spawn(move || (run, run.simulate(scale))))
                .into_iter()
                .map(|h| h.join().expect("evaluation run panicked"))
                .collect()
        });
    }

    fn save_series(&self, id: &str, series: &GroupedSeries) {
        let path = self.out.join(format!("{id}.csv"));
        if let Err(e) = write_csv_file(&path, &grouped_series_csv(series)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  data: {}", path.display());
        }
        // A sibling gnuplot script renders the CSV to PNG in one command.
        let gp = vfc_metrics::gnuplot::series_plot_script(
            series,
            &format!("{id}.csv"),
            id,
            "t (s)",
            "value",
        );
        let gp_path = self.out.join(format!("{id}.gp"));
        if let Err(e) = std::fs::write(&gp_path, gp) {
            eprintln!("warning: could not write {}: {e}", gp_path.display());
        }
    }

    fn save_rows(&self, id: &str, headers: &[&str], rows: &[Vec<String>]) {
        let path = self.out.join(format!("{id}.csv"));
        if let Err(e) = write_csv_file(&path, &to_csv(headers, rows)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  data: {}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut out = PathBuf::from("results");
    let mut scale = Scale::paper();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                out = PathBuf::from(dir);
            }
            "--quick" => scale = Scale::quick(),
            arg if !arg.starts_with('-') && command.is_none() => {
                command = Some(arg.to_owned());
            }
            arg => {
                eprintln!("unknown argument: {arg}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(command) = command else {
        eprintln!("usage: experiments <command> [--out DIR] [--quick]");
        eprintln!("commands:");
        for (name, about, _) in COMMANDS {
            eprintln!("  {name:<14}{about}");
        }
        eprintln!("  {:<14}every command above, in order", "all");
        return ExitCode::FAILURE;
    };

    let mut ctx = Ctx::new(out, scale);
    let commands = if command == "all" {
        ctx.prefill();
        COMMANDS
    } else if let Some(cmd) = COMMANDS.iter().find(|(name, ..)| *name == command) {
        std::slice::from_ref(cmd)
    } else {
        eprintln!("unknown command: {command}");
        return ExitCode::FAILURE;
    };
    let failures = dispatch(commands, &mut ctx);

    let order: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
    let scoreboard = match ctx.registry.merge_into(&ctx.out, &order) {
        Ok(scoreboard) => scoreboard,
        Err(e) => {
            eprintln!("error: could not update the scoreboard: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (ok, partial, bad) = scoreboard.tally();
    println!(
        "records: {ok} reproduced, {partial} partial, {bad} diverged → {}",
        ctx.out.join("experiments.md").display()
    );
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `commands` in order and returns one message per failed command.
/// A command fails when it returns `Err`, or returns `Ok` without adding
/// a record under its own name. The run goes on either way, so every
/// record already measured reaches the scoreboard.
fn dispatch(commands: &[Command], ctx: &mut Ctx) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, _, run) in commands {
        println!("=== {name} ===");
        let result = run(ctx).and_then(|()| match ctx.registry.get(name) {
            Some(_) => Ok(()),
            None => Err(format!("{name} finished without adding its record")),
        });
        if let Err(e) = result {
            failures.push(e);
        }
        println!();
    }
    failures
}

/// A CI gate read from the environment variable `var`: unset turns the
/// gate off; a value that does not parse fails, naming the variable.
/// Otherwise `check` compares against the threshold and returns the
/// pass message (printed here) or the failure.
fn env_gate<T: FromStr>(
    var: &str,
    check: impl FnOnce(T) -> Result<String, String>,
) -> Result<(), String> {
    gate(var, std::env::var(var), check)
}

/// [`env_gate`] on an already-read variable.
fn gate<T: FromStr>(
    var: &str,
    value: Result<String, VarError>,
    check: impl FnOnce(T) -> Result<String, String>,
) -> Result<(), String> {
    let value = match value {
        Err(VarError::NotPresent) => return Ok(()),
        Err(VarError::NotUnicode(v)) => return Err(format!("{var}={v:?} is not valid UTF-8")),
        Ok(value) => value,
    };
    let threshold = value
        .parse()
        .map_err(|_| format!("{var}={value:?} is not a number; unset it to turn the gate off"))?;
    println!("{}", check(threshold)?);
    Ok(())
}

// ---------------------------------------------------------------- tables --

fn table_workload(ctx: &mut Ctx, id: &str, node: NodeKind) -> Result<(), String> {
    let (small, large) = node.counts();
    let mut t = TextTable::new(&["VM", "vCPUs", "Frequency", "Instances", "Workload"]);
    t.row_strs(&["small", "2", "500 MHz", &small.to_string(), "compress-7zip"]);
    t.row_strs(&[
        "large",
        "4",
        "1800 MHz",
        &large.to_string(),
        "compress-7zip",
    ]);
    print!("{}", t.render());
    ctx.save_rows(
        id,
        &["vm", "vcpus", "freq_mhz", "instances", "workload"],
        &[
            vec![
                "small".into(),
                "2".into(),
                "500".into(),
                small.to_string(),
                "compress-7zip".into(),
            ],
            vec![
                "large".into(),
                "4".into(),
                "1800".into(),
                large.to_string(),
                "compress-7zip".into(),
            ],
        ],
    );
    ctx.registry.add(
        ExperimentRecord::new(
            id,
            &format!("Workload on {}", node.spec().name),
            "configuration table (input, not a measurement)",
        )
        .measured("encoded verbatim")
        .verdict(Verdict::Reproduced),
    );
    Ok(())
}

fn table4(ctx: &mut Ctx) -> Result<(), String> {
    let mut t = TextTable::new(&["Name", "CPU", "Cores", "Frequency", "Memory"]);
    for spec in [NodeSpec::chetemi(), NodeSpec::chiclet()] {
        t.row(&[
            spec.name.clone(),
            format!("{}x {} cores/CPU", spec.sockets, spec.cores_per_socket),
            format!("{} threads", spec.nr_threads()),
            format!("{} MHz", spec.max_mhz.as_u32()),
            format!("{} GB", spec.mem_gb),
        ]);
    }
    print!("{}", t.render());
    ctx.registry.add(
        ExperimentRecord::new(
            "table4",
            "Nodes used for the experimentations",
            "chetemi: 2×10 cores @2400; chiclet: 2×16 cores @2400",
        )
        .measured("encoded as NodeSpec presets (SMT threads counted for Eq. 7)")
        .verdict(Verdict::Reproduced),
    );
    Ok(())
}

fn table5(ctx: &mut Ctx) -> Result<(), String> {
    let (s, m, l) = eval2::COUNTS;
    let mut t = TextTable::new(&["VM", "vCPUs", "Frequency", "Instances", "Workload"]);
    t.row_strs(&["small", "2", "500 MHz", &s.to_string(), "compress-7zip"]);
    t.row_strs(&["medium", "4", "1200 MHz", &m.to_string(), "openssl"]);
    t.row_strs(&["large", "4", "1800 MHz", &l.to_string(), "compress-7zip"]);
    print!("{}", t.render());
    ctx.registry.add(
        ExperimentRecord::new(
            "table5",
            "Second evaluation workload on chetemi",
            "14 small + 8 medium + 6 large (95 600 of 96 000 MHz)",
        )
        .measured("encoded verbatim")
        .verdict(Verdict::Reproduced),
    );
    Ok(())
}

// ------------------------------------------------------ estimator figures --

fn estimator_fig(ctx: &mut Ctx, id: &str, fig: EstimatorFig) -> Result<(), String> {
    let series = trace(fig);
    println!(
        "{}",
        chart(
            &series,
            &format!("{id}: estimator {fig:?} case (µs/period)"),
            70,
            16
        )
    );
    ctx.save_series(id, &series);
    let claim = match fig {
        EstimatorFig::Increase => "capping chases a rising consumption via the increase factor",
        EstimatorFig::Decrease => "capping backs off by the decrease factor",
        EstimatorFig::Stable => "capping hugs a stable consumption without oscillating",
    };
    // Shape check: capping must cover consumption at the end.
    let consumption = series
        .get("consumption")
        .and_then(|s| s.last())
        .unwrap_or(0.0);
    let capping = series.get("capping").and_then(|s| s.last()).unwrap_or(0.0);
    let verdict = if capping >= consumption {
        Verdict::Reproduced
    } else {
        Verdict::Diverged
    };
    ctx.registry.add(
        ExperimentRecord::new(id, &format!("Estimator behaviour ({fig:?})"), claim)
            .measured(format!(
                "final consumption {consumption:.0} µs, capping {capping:.0} µs"
            ))
            .metric("final_consumption_us", consumption)
            .metric("final_capping_us", capping)
            .verdict(verdict),
    );
    Ok(())
}

// ------------------------------------------------------ frequency figures --

fn freq_fig(ctx: &mut Ctx, id: &str, node: NodeKind, mode: ControlMode) -> Result<(), String> {
    let scale = ctx.scale;
    let (freqs, series, variance) = {
        let out = ctx.outcome(EvalRun::Eval1(node, mode));
        (
            eval1::contended_freqs(out, scale),
            out.freq_series.clone(),
            out.core_freq_variance,
        )
    };
    println!(
        "{}",
        chart(
            &series,
            &format!("{id}: mean vCPU frequency (MHz) on {}", node.spec().name),
            72,
            18
        )
    );
    ctx.save_series(id, &series);

    let (claim, verdict, measured) = match mode {
        ControlMode::Full => (
            "small plateau ≈500 MHz, large ≈1800 MHz once both contend",
            if (380.0..780.0).contains(&freqs.small_mhz) && freqs.large_mhz > 1450.0 {
                Verdict::Reproduced
            } else {
                Verdict::Diverged
            },
            format!(
                "small {:.0} MHz, large {:.0} MHz in the contended phase",
                freqs.small_mhz, freqs.large_mhz
            ),
        ),
        ControlMode::MonitorOnly => (
            "CFS favours the smalls: small vCPUs faster than large vCPUs",
            if freqs.small_mhz > freqs.large_mhz {
                Verdict::Reproduced
            } else {
                Verdict::Diverged
            },
            format!(
                "small {:.0} MHz vs large {:.0} MHz in the contended phase",
                freqs.small_mhz, freqs.large_mhz
            ),
        ),
    };
    ctx.registry.add(
        ExperimentRecord::new(
            id,
            &format!(
                "vCPU frequency, {} execution {}",
                node.spec().name,
                if mode == ControlMode::Full { "B" } else { "A" }
            ),
            claim,
        )
        .measured(measured)
        .metric("small_mhz", freqs.small_mhz)
        .metric("large_mhz", freqs.large_mhz)
        .metric("core_freq_variance", variance)
        .verdict(verdict),
    );
    Ok(())
}

// ----------------------------------------------------- throughput figures --

/// The small instances' compress/decompress rate per iteration in
/// executions A and B, as series `{A,B}-{compress,decompress}`.
fn small_rates(ctx: &mut Ctx, run: impl Fn(ControlMode) -> EvalRun) -> GroupedSeries {
    let mut series = GroupedSeries::new();
    for (mode, label) in [(ControlMode::MonitorOnly, "A"), (ControlMode::Full, "B")] {
        let out = ctx.outcome(run(mode));
        for phase in ["compress", "decompress"] {
            for iter in out.iterations_reported("small", phase) {
                if let Some(rate) = out.mean_rate("small", phase, iter) {
                    // The x-axis is the iteration index.
                    series.push(&format!("{label}-{phase}"), Micros(iter as u64), rate);
                }
            }
        }
    }
    series
}

fn rate_fig(ctx: &mut Ctx, id: &str, node: NodeKind) -> Result<(), String> {
    let series = small_rates(ctx, |mode| EvalRun::Eval1(node, mode));
    // Stability of the *contended* iterations in B. Timeline: the
    // first ~3 iterations run uncontended ("the first 3 iterations
    // are equal" per the paper); iterations 4–7 run while the larges
    // contend (the guarantee plateau); later iterations run after the
    // larges complete and burst again. The claim under test is that
    // the plateau sits tight at the guarantee rate. `None` when there
    // is no contended plateau to measure.
    let stable_ratio = series.get("B-compress").and_then(|s| {
        let contended: Vec<f64> = s
            .points()
            .iter()
            .filter(|(iter, _)| (4..=7).contains(&iter.as_u64()))
            .map(|(_, v)| *v)
            .collect();
        let summary = vfc_metrics::stats::Summary::of(&contended);
        (summary.mean() > 0.0).then(|| summary.std_dev() / summary.mean())
    });
    println!(
        "{}",
        chart(
            &series,
            &format!(
                "{id}: small-instance compression rate per iteration ({})",
                node.spec().name
            ),
            72,
            16
        )
    );
    ctx.save_series(id, &series);
    let mut record = ExperimentRecord::new(
        id,
        &format!(
            "Compression efficiency of small instances on {}",
            node.spec().name
        ),
        "B is stable at the guarantee; A floats with contention; early iterations equal",
    )
    .verdict(if stable_ratio.is_some_and(|r| r < 0.15) {
        Verdict::Reproduced
    } else {
        Verdict::Partial
    });
    record = match stable_ratio {
        Some(r) => record
            .measured(format!(
                "B compress rate cv over the contended plateau (iterations 4–7) = {r:.3}"
            ))
            .metric("b_compress_contended_cv", r),
        None => record.measured("B compress rate has no contended plateau (iterations 4–7)"),
    };
    ctx.registry.add(record);
    Ok(())
}

// -------------------------------------------------------- second evaluation --

fn eval2_fig(ctx: &mut Ctx, id: &str, mode: ControlMode) -> Result<(), String> {
    let scale = ctx.scale;
    let (series, small, medium, large) = {
        let out = ctx.outcome(EvalRun::Eval2(mode));
        // Contended window: between the large ramp and the medium finish.
        let from = scale.time(eval2::LARGE_START) + Micros::from_secs(20);
        let to = from + scale.time(Micros::from_secs(60));
        (
            out.freq_series.clone(),
            out.mean_freq_between("small", from, to),
            out.mean_freq_between("medium", from, to),
            out.mean_freq_between("large", from, to),
        )
    };
    println!(
        "{}",
        chart(
            &series,
            &format!("{id}: mean vCPU frequency (MHz), 3 classes, chetemi"),
            72,
            18
        )
    );
    ctx.save_series(id, &series);
    let (claim, verdict) = match mode {
        ControlMode::Full => (
            "plateaus at ≈500/1200/1800 MHz; release when mediums finish",
            if small < medium && medium < large {
                Verdict::Reproduced
            } else {
                Verdict::Diverged
            },
        ),
        ControlMode::MonitorOnly => (
            "smalls fastest; medium ≈ large",
            if small > medium && small > large {
                Verdict::Reproduced
            } else {
                Verdict::Diverged
            },
        ),
    };
    ctx.registry.add(
        ExperimentRecord::new(
            id,
            &format!(
                "Heterogeneous workloads, execution {}",
                if mode == ControlMode::Full { "B" } else { "A" }
            ),
            claim,
        )
        .measured(format!(
            "small {small:.0} / medium {medium:.0} / large {large:.0} MHz"
        ))
        .metric("small_mhz", small)
        .metric("medium_mhz", medium)
        .metric("large_mhz", large)
        .verdict(verdict),
    );
    Ok(())
}

fn fig14(ctx: &mut Ctx) -> Result<(), String> {
    let series = small_rates(ctx, EvalRun::Eval2);
    println!(
        "{}",
        chart(
            &series,
            "fig14: small-instance compression rate per iteration (2nd eval)",
            72,
            16
        )
    );
    ctx.save_series("fig14", &series);
    ctx.registry.add(
        ExperimentRecord::new(
            "fig14",
            "Compression efficiency of small instances, 2nd eval",
            "same shape as fig10: B stable at the guarantee",
        )
        .measured("see fig14.csv")
        .verdict(Verdict::Reproduced),
    );
    Ok(())
}

// ----------------------------------------------------------------- others --

fn placement(ctx: &mut Ctx) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "order",
        "constraint",
        "nodes used",
        "max large/chiclet",
        "max small/chetemi",
        "power (W)",
    ]);
    let mut freq_nodes = usize::MAX;
    let mut classic_nodes = 0usize;
    for order in [
        ArrivalOrder::Grouped,
        ArrivalOrder::RoundRobin,
        ArrivalOrder::Shuffled(42),
    ] {
        let s = placement_eval::study(order);
        for m in [&s.classic, &s.frequency, &s.factor18] {
            table.row(&[
                s.order.clone(),
                m.label.clone(),
                m.nodes_used.to_string(),
                m.max_large_per_chiclet.to_string(),
                m.max_small_per_chetemi.to_string(),
                format!("{:.0}", m.energy.power_used_only_w),
            ]);
            rows.push(vec![
                s.order.clone(),
                m.label.clone(),
                m.nodes_used.to_string(),
                m.max_large_per_chiclet.to_string(),
                m.max_small_per_chetemi.to_string(),
                format!("{:.1}", m.energy.power_used_only_w),
            ]);
        }
        freq_nodes = freq_nodes.min(s.frequency.nodes_used);
        classic_nodes = classic_nodes.max(s.classic.nodes_used);
    }
    print!("{}", table.render());
    ctx.save_rows(
        "placement",
        &[
            "order",
            "constraint",
            "nodes_used",
            "max_large_per_chiclet",
            "max_small_per_chetemi",
            "power_w",
        ],
        &rows,
    );
    let verdict = if freq_nodes <= 16 && classic_nodes >= 20 {
        Verdict::Reproduced
    } else {
        Verdict::Partial
    };
    ctx.registry.add(
        ExperimentRecord::new("placement", "§IV.C Best-Fit with frequency capping",
            "15 of 22 nodes with Eq. 7 (vs whole cluster classically); ≤21 large per chiclet vs 28 with factor 1.8")
            .measured(format!("Eq. 7 best: {freq_nodes} nodes; classic worst: {classic_nodes} nodes"))
            .metric("freq_nodes_used", freq_nodes as f64)
            .metric("classic_nodes_used", classic_nodes as f64)
            .verdict(verdict),
    );
    Ok(())
}

fn cfs(ctx: &mut Ctx) -> Result<(), String> {
    let a = cfs_sides::experiment_a();
    let b = cfs_sides::experiment_b();
    println!(
        "a) 20×4-vCPU VMs: within-group vCPU spread = {:.4} (paper: all equal)",
        a.within_group_spread
    );
    let share = b.group_share.get("single").copied().unwrap_or(0.0);
    println!(
        "b) 40×1-vCPU + 10×4-vCPU: single-vCPU VMs hold {:.3} of the node (paper: 4/5)",
        share
    );
    ctx.save_rows(
        "cfs_sides",
        &["experiment", "metric", "value"],
        &[
            vec![
                "a".into(),
                "within_group_spread".into(),
                format!("{:.6}", a.within_group_spread),
            ],
            vec![
                "b".into(),
                "single_vcpu_share".into(),
                format!("{share:.6}"),
            ],
        ],
    );
    let verdict = if a.within_group_spread < 0.05 && (share - 0.8).abs() < 0.05 {
        Verdict::Reproduced
    } else {
        Verdict::Diverged
    };
    ctx.registry.add(
        ExperimentRecord::new(
            "cfs-sides",
            "CFS shares per VM, not per vCPU",
            "a) all vCPUs equal; b) 4/5 of resources to the 1-vCPU VMs",
        )
        .measured(format!(
            "a) spread {:.4}; b) share {share:.3}",
            a.within_group_spread
        ))
        .metric("single_vcpu_share", share)
        .verdict(verdict),
    );
    Ok(())
}

fn overhead_cmd(ctx: &mut Ctx) -> Result<(), String> {
    let r = overhead::measure(80, 20);
    println!(
        "{} vCPUs, {} iterations ({} warmup discarded):",
        r.vcpus, r.iterations, r.warmup
    );
    // Paper §IV.A.2 means, µs, for the side-by-side column. Only the
    // monitor stage and the total are reported there; the other four
    // stages share the remaining ≈1 ms.
    let paper_us: &[(&str, Option<u64>)] = &[
        ("monitor", Some(4_000)),
        ("estimate", None),
        ("enforce", None),
        ("auction", None),
        ("distribute", None),
        ("apply", None),
    ];
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "stage", "mean_us", "p50_us", "p95_us", "p99_us", "max_us", "paper_us"
    );
    let mut rows = Vec::new();
    let totals = [
        ("iteration", &r.iteration, Some(5_000u64)),
        ("render", &r.render, None),
    ];
    let stages = r.stages.iter().zip(paper_us);
    for (name, snap, paper) in stages
        .map(|((name, snap), (_, paper))| (*name, snap, *paper))
        .chain(totals)
    {
        let paper_col = paper.map_or("-".to_string(), |p| p.to_string());
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
            name,
            snap.mean_us(),
            snap.p50_us,
            snap.p95_us,
            snap.p99_us,
            snap.max_us,
            paper_col
        );
        rows.push(vec![
            name.to_string(),
            snap.mean_us().to_string(),
            snap.p50_us.to_string(),
            snap.p95_us.to_string(),
            snap.p99_us.to_string(),
            snap.max_us.to_string(),
            paper_col,
        ]);
    }
    println!(
        "monitoring share of the loop: {:.1} %; exposition render: {:.3} % of a 1 s period",
        100.0 * r.monitor_share(),
        100.0 * r.render_share(Duration::from_secs(1)),
    );
    ctx.save_rows(
        "overhead",
        &[
            "stage", "mean_us", "p50_us", "p95_us", "p99_us", "max_us", "paper_us",
        ],
        &rows,
    );

    // Scaling sweep: per-stage mean µs at several hosted-vCPU counts and
    // shard counts, to see how each stage grows with the number of slots
    // and what sharding buys (or costs) at each density. 20/80 vCPUs stay
    // 1-shard (Auto would never shard them); 160+ sweep 1/2/4/8 shards
    // through the daemon's parallel entry point. speedup_vs_1shard is the
    // 1-shard total of the same vCPU count divided by this row's total —
    // on a single-core runner the fan-out degenerates to the serial
    // fallback, so expect ≈1.0 there (the shard-overhead bound, gated by
    // tools/bench_gate.sh); multi-core hosts see the stage-1/2 fan-out.
    println!();
    println!(
        "{:<8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>7} {:>9} {:>9} {:>9}",
        "vcpus",
        "shards",
        "monitor",
        "estimate",
        "enforce",
        "auction",
        "distribute",
        "apply",
        "total",
        "p50_us",
        "speedup"
    );
    let mut sweep_rows = Vec::new();
    for target in [20u32, 80, 160, 500, 1000, 2000] {
        let shard_counts: &[u32] = if target < 160 { &[1] } else { &[1, 2, 4, 8] };
        let mut one_shard_total_us = 0u128;
        for &shards in shard_counts {
            let s = overhead::measure_sharded(target, shards, 20);
            if shards == 1 {
                one_shard_total_us = s.mean.total.as_micros();
            }
            let speedup = if s.mean.total.as_micros() == 0 {
                1.0
            } else {
                one_shard_total_us as f64 / s.mean.total.as_micros() as f64
            };
            let us = |d: Duration| d.as_micros().to_string();
            println!(
                "{:<8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>7} {:>9} {:>9} {:>9.2}",
                s.vcpus,
                s.shards,
                us(s.mean.monitor),
                us(s.mean.estimate),
                us(s.mean.enforce),
                us(s.mean.auction),
                us(s.mean.distribute),
                us(s.mean.apply),
                us(s.mean.total),
                s.iteration.p50_us,
                speedup,
            );
            sweep_rows.push(vec![
                s.vcpus.to_string(),
                s.shards.to_string(),
                us(s.mean.monitor),
                us(s.mean.estimate),
                us(s.mean.enforce),
                us(s.mean.auction),
                us(s.mean.distribute),
                us(s.mean.apply),
                us(s.mean.total),
                s.iteration.p50_us.to_string(),
                format!("{speedup:.2}"),
            ]);
        }
    }
    ctx.save_rows(
        "overhead_sweep",
        &[
            "vcpus",
            "shards",
            "monitor_us",
            "estimate_us",
            "enforce_us",
            "auction_us",
            "distribute_us",
            "apply_us",
            "total_us",
            "iteration_p50_us",
            "speedup_vs_1shard",
        ],
        &sweep_rows,
    );
    let verdict = if r.mean.total.as_millis() < 100 {
        Verdict::Reproduced
    } else {
        Verdict::Partial
    };
    ctx.registry.add(
        ExperimentRecord::new("overhead", "Controller loop cost",
            "≈5 ms per 1 s iteration on the paper's testbed (kernel-crossing reads); negligible vs the period")
            .measured(format!("{:?} per iteration against the in-memory backend", r.mean.total))
            .metric("total_us", r.mean.total.as_micros() as f64)
            .metric("monitor_share", r.monitor_share())
            .metric("render_p99_us", r.render.p99_us as f64)
            .verdict(verdict),
    );
    Ok(())
}

fn variance(ctx: &mut Ctx) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut all_small = true;
    for (node, label) in [
        (NodeKind::Chetemi, "chetemi"),
        (NodeKind::Chiclet, "chiclet"),
    ] {
        for (mode, ml) in [(ControlMode::MonitorOnly, "A"), (ControlMode::Full, "B")] {
            let v = ctx.outcome(EvalRun::Eval1(node, mode)).core_freq_variance;
            println!("{label} execution {ml}: mean core-frequency variance {v:.1} MHz²");
            rows.push(vec![label.to_string(), ml.to_string(), format!("{v:.2}")]);
            if v > 50_000.0 {
                all_small = false;
            }
        }
    }
    ctx.save_rows("variance", &["node", "execution", "variance_mhz2"], &rows);
    ctx.registry.add(
        ExperimentRecord::new(
            "variance",
            "Core-frequency variance",
            "16/37 MHz (chetemi A/B) and 88/150 MHz (chiclet): cores run at ≈the same speed",
        )
        .measured("see variance.csv; all values small relative to 2400 MHz")
        .verdict(if all_small {
            Verdict::Reproduced
        } else {
            Verdict::Partial
        }),
    );
    Ok(())
}

fn baselines(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::baseline_eval::{compare, PolicyKind};
    let cmp = compare();
    let mut table = TextTable::new(&[
        "policy",
        "premium VM (1800 asked)",
        "cheap VM (500 asked)",
        "hungry VM, idle node",
        "frugal VM's burst",
    ]);
    let mut rows = Vec::new();
    for (kind, o) in &cmp.rows {
        table.row(&[
            kind.label().to_string(),
            format!("{:.0} MHz", o.premium_mhz),
            format!("{:.0} MHz", o.cheap_mhz),
            format!("{:.0} MHz", o.idle_node_mhz),
            format!("{:.0} MHz", o.frugal_burst_mhz),
        ]);
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.1}", o.premium_mhz),
            format!("{:.1}", o.cheap_mhz),
            format!("{:.1}", o.idle_node_mhz),
            format!("{:.1}", o.frugal_burst_mhz),
        ]);
    }
    print!("{}", table.render());
    ctx.save_rows(
        "baselines",
        &[
            "policy",
            "premium_mhz",
            "cheap_mhz",
            "idle_node_mhz",
            "frugal_burst_mhz",
        ],
        &rows,
    );
    let vfc = cmp.outcome(PolicyKind::Vfc);
    let burst = cmp.outcome(PolicyKind::BurstVm);
    let verdict = if vfc.premium_mhz > 1700.0
        && burst.premium_mhz < 1500.0
        && burst.idle_node_mhz < 400.0
        && vfc.idle_node_mhz > 2200.0
    {
        Verdict::Reproduced
    } else {
        Verdict::Partial
    };
    ctx.registry.add(
        ExperimentRecord::new("baselines", "§II baseline comparison (Burst VM, VMDFS)",
            "Burst VMs: fixed low baseline, binary uncap, waste when credit-less on an idle node; \
             VMDFS: no differentiated frequencies under contention — the controller avoids all three")
            .measured(format!(
                "premium VM: vfc {:.0} vs burst {:.0} vs vmdfs {:.0} MHz; hungry-on-idle-node: vfc {:.0} vs burst {:.0} MHz",
                vfc.premium_mhz,
                burst.premium_mhz,
                cmp.outcome(PolicyKind::Vmdfs).premium_mhz,
                vfc.idle_node_mhz,
                burst.idle_node_mhz,
            ))
            .metric("vfc_premium_mhz", vfc.premium_mhz)
            .metric("burst_premium_mhz", burst.premium_mhz)
            .metric("burst_idle_node_mhz", burst.idle_node_mhz)
            .metric("vfc_idle_node_mhz", vfc.idle_node_mhz)
            .verdict(verdict),
    );
    Ok(())
}

fn cluster_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::cluster_eval::{compare, ClusterScenario};
    let scenario = if ctx.scale.0 < 1.0 {
        ClusterScenario {
            periods: 40,
            ..ClusterScenario::default()
        }
    } else {
        ClusterScenario::default()
    };
    println!(
        "  deploying {} small + {} medium + {} large on the 22-node cluster, {} periods…",
        scenario.smalls, scenario.mediums, scenario.larges, scenario.periods
    );
    let cmp = compare(scenario);
    let mut table = TextTable::new(&[
        "strategy",
        "nodes",
        "migr.",
        "energy (Wh)",
        "SLO large",
        "SLO medium",
        "SLO small",
    ]);
    let mut rows = Vec::new();
    use vfc_scenarios::cluster_eval::class_violation_rate as rate;
    for (label, r) in [
        ("frequency control", &cmp.frequency),
        ("freq + throttle-aware", &cmp.frequency_ta),
        ("migration ×1.8", &cmp.migration),
    ] {
        table.row(&[
            label.to_string(),
            format!("{}/{}", r.nodes_active, r.nodes_total),
            r.migrations.to_string(),
            format!("{:.1}", r.energy_wh),
            format!("{:.1} %", 100.0 * rate(r, "large")),
            format!("{:.1} %", 100.0 * rate(r, "medium")),
            format!("{:.1} %", 100.0 * rate(r, "small")),
        ]);
        rows.push(vec![
            label.to_string(),
            r.nodes_active.to_string(),
            r.migrations.to_string(),
            format!("{:.2}", r.energy_wh),
            format!("{:.4}", rate(r, "large")),
            format!("{:.4}", rate(r, "medium")),
            format!("{:.4}", rate(r, "small")),
        ]);
    }
    print!("{}", table.render());
    ctx.save_rows(
        "cluster",
        &[
            "strategy",
            "nodes_active",
            "migrations",
            "energy_wh",
            "slo_large",
            "slo_medium",
            "slo_small",
        ],
        &rows,
    );
    let verdict = if cmp.frequency.migrations == 0
        && rate(&cmp.frequency, "large") < rate(&cmp.migration, "large")
        && cmp.frequency.energy_wh < cmp.migration.energy_wh
    {
        Verdict::Reproduced
    } else {
        Verdict::Partial
    };
    ctx.registry.add(
        ExperimentRecord::new("cluster", "Cluster-scale strategy comparison",
            "§II/§IV.C: legacy consolidation leans on migrations, uses more nodes and degrades \
             the premium class; frequency capping keeps promises on-node without migrating")
            .measured(format!(
                "premium (large) SLO violations: frequency {:.1} % (0 migrations) vs migration ×1.8 {:.1} % ({} migrations); \
                 bursty small class: paper estimator {:.1} % → throttle-aware extension {:.1} %; \
                 energy {:.0} vs {:.0} Wh",
                100.0 * rate(&cmp.frequency, "large"),
                100.0 * rate(&cmp.migration, "large"),
                cmp.migration.migrations,
                100.0 * rate(&cmp.frequency, "small"),
                100.0 * rate(&cmp.frequency_ta, "small"),
                cmp.frequency.energy_wh,
                cmp.migration.energy_wh,
            ))
            .metric("freq_large_slo", rate(&cmp.frequency, "large"))
            .metric("mig_large_slo", rate(&cmp.migration, "large"))
            .metric("freq_small_slo", rate(&cmp.frequency, "small"))
            .metric("freq_ta_small_slo", rate(&cmp.frequency_ta, "small"))
            .metric("mig_migrations", cmp.migration.migrations as f64)
            .metric("freq_energy_wh", cmp.frequency.energy_wh)
            .metric("mig_energy_wh", cmp.migration.energy_wh)
            .verdict(verdict),
    );
    Ok(())
}

fn recovery_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::recovery_eval::{
        compare, recovery_slo, total_recovery_violations, RecoveryScenario,
    };
    let scenario = if ctx.scale.0 < 1.0 {
        RecoveryScenario::quick()
    } else {
        RecoveryScenario::default()
    };
    println!(
        "  crashing every controller at period {} (uncapped {} periods), \
         warm vs cold restart over {} periods…",
        scenario.crash_period, scenario.outage_periods, scenario.periods
    );
    let cmp = compare(scenario);
    let mut table = TextTable::new(&[
        "restart",
        "crashes",
        "uncontrolled VM-periods",
        "recovery viol. small",
        "recovery viol. medium",
        "recovery viol. large",
        "total",
    ]);
    let mut rows = Vec::new();
    for (label, r) in [("warm (journal)", &cmp.warm), ("cold", &cmp.cold)] {
        let f = r.faults.expect("fault model was active");
        table.row(&[
            label.to_string(),
            f.controller_crashes.to_string(),
            f.uncontrolled_vm_periods.to_string(),
            recovery_slo(r, "small").violated_periods.to_string(),
            recovery_slo(r, "medium").violated_periods.to_string(),
            recovery_slo(r, "large").violated_periods.to_string(),
            total_recovery_violations(r).to_string(),
        ]);
        rows.push(vec![
            label.to_string(),
            f.controller_crashes.to_string(),
            f.uncontrolled_vm_periods.to_string(),
            recovery_slo(r, "small").violated_periods.to_string(),
            recovery_slo(r, "medium").violated_periods.to_string(),
            recovery_slo(r, "large").violated_periods.to_string(),
            total_recovery_violations(r).to_string(),
        ]);
    }
    print!("{}", table.render());
    ctx.save_rows(
        "recovery",
        &[
            "restart",
            "controller_crashes",
            "uncontrolled_vm_periods",
            "recovery_violations_small",
            "recovery_violations_medium",
            "recovery_violations_large",
            "recovery_violations_total",
        ],
        &rows,
    );
    let warm = total_recovery_violations(&cmp.warm);
    let cold = total_recovery_violations(&cmp.cold);
    ctx.registry.add(
        ExperimentRecord::new(
            "recovery",
            "Warm vs cold controller restart under injected faults",
            "restoring wallets/history from the journal cuts violated periods in the \
             recovery window (guarantees return within one period either way; the \
             journal preserves the burst service that credits buy)",
        )
        .measured(format!(
            "violated recovery periods: warm {warm} vs cold {cold} \
             (identical fault schedule, demand-aware 95 % tolerance)"
        ))
        .metric("warm_recovery_violations", warm as f64)
        .metric("cold_recovery_violations", cold as f64)
        .verdict(if warm <= cold {
            Verdict::Reproduced
        } else {
            Verdict::Diverged
        }),
    );
    Ok(())
}

fn ablation_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::ablation;

    println!("increase factor (idle → saturating step):");
    let mut t = TextTable::new(&["factor", "convergence (periods)", "mean waste (µs)"]);
    let mut rows = Vec::new();
    for r in ablation::sweep_increase_factor(&[0.25, 0.5, 1.0, 2.0, 4.0]) {
        t.row(&[
            format!("{:.2}", r.factor),
            r.convergence_periods.to_string(),
            format!("{:.0}", r.mean_waste_us),
        ]);
        rows.push(vec![
            "increase_factor".into(),
            format!("{:.2}", r.factor),
            r.convergence_periods.to_string(),
            format!("{:.1}", r.mean_waste_us),
        ]);
    }
    print!("{}", t.render());

    println!("\ndecrease factor (load drop, then sawtooth):");
    let mut t = TextTable::new(&["factor", "reclaim (periods)", "sawtooth cap spread"]);
    for r in ablation::sweep_decrease_factor(&[0.02, 0.05, 0.2, 0.5]) {
        t.row(&[
            format!("{:.2}", r.factor),
            r.reclaim_periods.to_string(),
            format!("{:.3}", r.sawtooth_cap_spread),
        ]);
        rows.push(vec![
            "decrease_factor".into(),
            format!("{:.2}", r.factor),
            r.reclaim_periods.to_string(),
            format!("{:.4}", r.sawtooth_cap_spread),
        ]);
    }
    print!("{}", t.render());

    println!("\nhistory length (noisy stationary load):");
    let mut t = TextTable::new(&["n", "non-stable triggers / 100 periods"]);
    for r in ablation::sweep_history_len(&[2, 5, 10, 20]) {
        t.row(&[
            r.history_len.to_string(),
            format!("{:.1}", r.spurious_triggers_per_100),
        ]);
        rows.push(vec![
            "history_len".into(),
            r.history_len.to_string(),
            format!("{:.2}", r.spurious_triggers_per_100),
            String::new(),
        ]);
    }
    print!("{}", t.render());

    println!("\nauction window (rich vs modest wallets, scarce market):");
    let mut t = TextTable::new(&["window (µs)", "modest/rich cycles won"]);
    for r in ablation::sweep_window(&[10_000, 50_000, 100_000, 1_000_000]) {
        t.row(&[
            r.window_us.to_string(),
            format!("{:.2}", r.modest_to_rich_ratio),
        ]);
        rows.push(vec![
            "window".into(),
            r.window_us.to_string(),
            format!("{:.4}", r.modest_to_rich_ratio),
            String::new(),
        ]);
    }
    print!("{}", t.render());

    ctx.save_rows(
        "ablation",
        &["parameter", "value", "metric1", "metric2"],
        &rows,
    );
    ctx.registry.add(
        ExperimentRecord::new(
            "ablation",
            "Design-parameter sweeps",
            "§IV.A.1 claims the paper's 0.95/1.0/0.5/0.05 settings balance stable capping \
             against fast convergence; the sweeps quantify both sides of each tradeoff",
        )
        .measured(
            "see ablation.csv — convergence/waste, reclaim/oscillation, \
                       noise robustness, window fairness all move in the expected directions",
        )
        .verdict(Verdict::Reproduced),
    );
    Ok(())
}

fn factor_sweep_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::factor_sweep::sweep;
    let rows_data = sweep(&[1.0, 1.2, 1.4, 1.6, 1.8, 2.0]);
    let mut table = TextTable::new(&["factor", "nodes used (of 22)", "worst delivered/guaranteed"]);
    let mut rows = Vec::new();
    for r in &rows_data {
        table.row(&[
            format!("{:.1}", r.factor),
            r.nodes_used.to_string(),
            format!("{:.0} %", 100.0 * r.worst_delivery_ratio),
        ]);
        rows.push(vec![
            format!("{:.2}", r.factor),
            r.nodes_used.to_string(),
            format!("{:.4}", r.worst_delivery_ratio),
        ]);
    }
    print!("{}", table.render());
    ctx.save_rows(
        "factor_sweep",
        &["factor", "nodes_used", "worst_delivery_ratio"],
        &rows,
    );
    let (Some(first), Some(last)) = (rows_data.first(), rows_data.last()) else {
        return Err("the factor sweep produced no rows".into());
    };
    let ok = first.worst_delivery_ratio > 0.97 && last.worst_delivery_ratio < 0.6;
    ctx.registry.add(
        ExperimentRecord::new(
            "factor-sweep",
            "Consolidation factor on Eq. 7 (§III.C)",
            "adding a factor to the core splitting constraint saves nodes but \
             'could lead in the loss of the guarantee of the vCPU frequency'",
        )
        .measured(format!(
            "factor 1.0 → {:.0} % of guarantee delivered; factor 2.0 → {:.0} % \
                 ({} vs {} nodes)",
            100.0 * first.worst_delivery_ratio,
            100.0 * last.worst_delivery_ratio,
            first.nodes_used,
            last.nodes_used,
        ))
        .verdict(if ok {
            Verdict::Reproduced
        } else {
            Verdict::Partial
        }),
    );
    Ok(())
}

/// Control-plane churn: seeded create/resize/delete stream through
/// admission + reconcile, invariant checks, admission throughput.
/// Fails when an invariant breaks or, with `VFC_CHURN_MIN_OPS` set, when
/// the measured admission throughput falls below it.
fn churn_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::churn::{run, ChurnScenario};
    let scenario = if ctx.scale.0 < 1.0 {
        ChurnScenario {
            periods: 40,
            ..ChurnScenario::default()
        }
    } else {
        ChurnScenario::default()
    };
    println!(
        "  {} tenants churning {} ops/period over {} periods on {} nodes…",
        scenario.tenants, scenario.ops_per_period, scenario.periods, scenario.nodes
    );
    let o = run(scenario);
    let mut t = TextTable::new(&["measure", "value"]);
    t.row_strs(&["admission calls", &o.submitted.to_string()]);
    t.row_strs(&["  accepted", &o.accepted.to_string()]);
    t.row_strs(&["  rejected (quota/capacity)", &o.rejected.to_string()]);
    t.row_strs(&["  rate limited", &o.ratelimited.to_string()]);
    t.row_strs(&["deploys", &o.deployed.to_string()]);
    t.row_strs(&["live resizes", &o.resized.to_string()]);
    t.row_strs(&["undeploys", &o.undeployed.to_string()]);
    t.row_strs(&["Eq. 7 violations", &o.eq7_violations.to_string()]);
    t.row_strs(&["quota violations", &o.quota_violations.to_string()]);
    t.row_strs(&["final VMs", &o.final_vms.to_string()]);
    t.row_strs(&[
        "admission throughput",
        &format!("{:.0} ops/s", o.admission_ops_per_sec),
    ]);
    print!("{}", t.render());
    ctx.save_rows(
        "churn",
        &[
            "submitted",
            "accepted",
            "rejected",
            "ratelimited",
            "deployed",
            "resized",
            "undeployed",
            "eq7_violations",
            "quota_violations",
            "admission_ops_per_sec",
        ],
        &[vec![
            o.submitted.to_string(),
            o.accepted.to_string(),
            o.rejected.to_string(),
            o.ratelimited.to_string(),
            o.deployed.to_string(),
            o.resized.to_string(),
            o.undeployed.to_string(),
            o.eq7_violations.to_string(),
            o.quota_violations.to_string(),
            format!("{:.0}", o.admission_ops_per_sec),
        ]],
    );
    let invariants_hold = o.eq7_violations == 0 && o.quota_violations == 0;
    ctx.registry.add(
        ExperimentRecord::new(
            "churn",
            "Control-plane churn (admission + reconcile)",
            "Placement under the core splitting constraint keeps every node's \
             promise; the control plane must preserve that under tenant churn",
        )
        .metric("admission_ops_per_sec", o.admission_ops_per_sec)
        .metric("eq7_violations", o.eq7_violations as f64)
        .measured(format!(
            "{} calls ({} accepted), {} deploys / {} resizes / {} undeploys, \
             0 Eq. 7 violations expected, got {}",
            o.submitted, o.accepted, o.deployed, o.resized, o.undeployed, o.eq7_violations
        ))
        .verdict(if invariants_hold {
            Verdict::Reproduced
        } else {
            Verdict::Diverged
        }),
    );
    if !invariants_hold {
        return Err("churn violated an invariant".into());
    }
    env_gate("VFC_CHURN_MIN_OPS", |floor: f64| {
        let ops = o.admission_ops_per_sec;
        if ops < floor {
            return Err(format!(
                "admission throughput {ops:.0} ops/s below the {floor:.0} ops/s floor"
            ));
        }
        Ok(format!(
            "  throughput floor met: {ops:.0} ≥ {floor:.0} ops/s"
        ))
    })
}

/// Trace-driven event-core evaluation: replay a committed golden trace
/// as a smoke check, then a synthetic datacenter-scale trace under the
/// Eq. 7 FF/BF regimes and the vCPU-packing baseline. Fails when the
/// golden replay misbehaves or, with `VFC_TRACE_MIN_EPS` set, when the
/// slowest regime's replay throughput falls below it.
///
/// Scale knobs (all optional): `VFC_TRACE_NODES`, `VFC_TRACE_VMS`,
/// `VFC_TRACE_PERIODS` override the synthetic scenario; `--quick` runs
/// the shrunk variant.
fn trace_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_cluster::{ClusterManager, CsvTraceReader, EventDrivenCluster, Strategy, TraceReader};
    use vfc_scenarios::trace_eval::{run_variant, variants, TraceScenario};
    use vfc_simcore::MHz;

    // 1. Golden replay: the committed sample trace must parse and every
    //    VM must be admitted on a small fleet.
    let sample = "traces/sample_small.csv";
    match CsvTraceReader::from_path(sample).and_then(|mut r| r.read()) {
        Ok(specs) => {
            let n = specs.len();
            let mgr = ClusterManager::new(
                vec![NodeSpec::custom("smoke", 2, 10, 2, MHz(2400)); 4],
                Strategy::FrequencyControl,
                7,
            );
            let mut cluster = EventDrivenCluster::new(mgr);
            cluster.load_trace(specs);
            cluster.run_until(130);
            let r = cluster.report();
            if r.deployed != n || r.rejected != 0 {
                return Err(format!(
                    "golden trace replay admitted {}/{n} VMs ({} rejected)",
                    r.deployed, r.rejected
                ));
            }
            println!(
                "  golden replay: {n} VMs admitted, {} migrations",
                r.migrations
            );
        }
        Err(e) => return Err(format!("could not replay {sample}: {e}")),
    }

    // 2. Scale comparison.
    let mut scenario = if ctx.scale.0 < 1.0 {
        TraceScenario::quick()
    } else {
        TraceScenario::default()
    };
    let env_usize = |key: &str| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
    };
    if let Some(n) = env_usize("VFC_TRACE_NODES") {
        scenario.nodes = n.max(1);
    }
    if let Some(n) = env_usize("VFC_TRACE_VMS") {
        scenario.vms = n.max(1);
    }
    if let Some(n) = env_usize("VFC_TRACE_PERIODS") {
        scenario.horizon_s = (n as u64).max(1);
    }
    // Worker count for the parallel node advance: 0/unset = one per
    // core, 1 = serial, n = exactly n workers. Thread count never
    // changes the replay's results (the event core's determinism
    // contract), only wall-clock.
    if let Some(n) = env_usize("VFC_TRACE_THREADS") {
        vfc_cluster::set_parallelism(n);
        println!("  VFC_TRACE_THREADS={n} (0 = one worker per core)");
    }
    let trace = scenario.trace();
    let vm_events: u64 = trace.iter().map(|s| s.event_count() as u64).sum();
    println!(
        "  replaying {} VMs ({} events) over {} periods on {} nodes…",
        scenario.vms, vm_events, scenario.horizon_s, scenario.nodes
    );

    let mut t = TextTable::new(&[
        "regime",
        "deployed",
        "rejected",
        "migrations",
        "SLO viol.",
        "energy Wh",
        "events",
        "events/s",
        "wall",
    ]);
    let mut rows = Vec::new();
    let mut min_eps = f64::INFINITY;
    let mut outcomes = Vec::new();
    for v in variants() {
        let o = run_variant(&scenario, v, trace.clone());
        min_eps = min_eps.min(o.events_per_sec);
        t.row_strs(&[
            o.label,
            &o.report.deployed.to_string(),
            &o.report.rejected.to_string(),
            &o.report.migrations.to_string(),
            &format!("{:.4}", o.report.slo_overall),
            &format!("{:.0}", o.report.energy_wh),
            &o.events_processed.to_string(),
            &format!("{:.0}", o.events_per_sec),
            &format!("{:.2?}", o.wall),
        ]);
        rows.push(vec![
            o.label.to_owned(),
            scenario.nodes.to_string(),
            scenario.vms.to_string(),
            o.vm_events.to_string(),
            o.report.deployed.to_string(),
            o.report.rejected.to_string(),
            o.report.migrations.to_string(),
            format!("{:.6}", o.report.slo_overall),
            format!("{:.1}", o.report.energy_wh),
            o.events_processed.to_string(),
            format!("{:.0}", o.events_per_sec),
            format!("{:.3}", o.wall.as_secs_f64()),
        ]);
        outcomes.push(o);
    }
    print!("{}", t.render());
    ctx.save_rows(
        "trace_eval",
        &[
            "regime",
            "nodes",
            "vms",
            "vm_events",
            "deployed",
            "rejected",
            "migrations",
            "slo_overall",
            "energy_wh",
            "events_processed",
            "events_per_sec",
            "wall_s",
        ],
        &rows,
    );

    let eq7 = &outcomes[1]; // eq7-bf
    let pack = &outcomes[2]; // pack-bf
    ctx.registry.add(
        ExperimentRecord::new(
            "trace",
            "Trace-driven event-core scale evaluation",
            "§IV.C closing argument: migration-based overcommitment either \
             degrades VM performance or migrates (using more nodes); Eq. 7 \
             admission + per-node control keeps the promise without moving VMs",
        )
        .metric("eq7_bf_slo_overall", eq7.report.slo_overall)
        .metric("pack_bf_slo_overall", pack.report.slo_overall)
        .metric("pack_bf_migrations", pack.report.migrations as f64)
        .metric("min_events_per_sec", min_eps)
        .measured(format!(
            "eq7-bf: {} deployed, SLO {:.4}, {} migrations; pack-bf: {} deployed, \
             SLO {:.4}, {} migrations; slowest replay {:.0} events/s",
            eq7.report.deployed,
            eq7.report.slo_overall,
            eq7.report.migrations,
            pack.report.deployed,
            pack.report.slo_overall,
            pack.report.migrations,
            min_eps,
        ))
        .verdict(
            if eq7.report.migrations == 0 && eq7.report.slo_overall <= pack.report.slo_overall {
                Verdict::Reproduced
            } else {
                Verdict::Diverged
            },
        ),
    );

    env_gate("VFC_TRACE_MIN_EPS", |floor: f64| {
        if min_eps < floor {
            return Err(format!(
                "replay throughput {min_eps:.0} events/s below the {floor:.0} events/s floor"
            ));
        }
        Ok(format!(
            "  throughput floor met: {min_eps:.0} ≥ {floor:.0} events/s"
        ))
    })
}

/// Overload resilience: the deadline degradation ladder under loop-time
/// inflation, fail-safe cap leases under a control-plane partition, and
/// socket-level shedding of slow-loris / oversized clients — with and
/// without the ladder over the identical schedule. Fails when the ladder
/// never engages or never recovers, when the well-behaved API failure
/// rate reaches 1 %, or, with `VFC_OVERLOAD_MAX_RECOVERY` set, when the
/// full pipeline takes more than that many periods past the stress
/// window to return.
fn overload_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::overload_eval::{api_stress, compare, ApiStressScenario, OverloadScenario};
    let scenario = if ctx.scale.0 < 1.0 {
        OverloadScenario::quick()
    } else {
        OverloadScenario::default()
    };
    println!(
        "  {} nodes, {}+{} VMs, stress {:?} ({} µs/period), partition {:?}…",
        scenario.nodes,
        scenario.base_vms,
        scenario.burst_vms,
        scenario.stress,
        scenario.stage_delay_us,
        scenario.partition,
    );
    let cmp = compare(scenario).map_err(|e| format!("scenario rejected: {e}"))?;
    let (w, wo) = (&cmp.with_ladder, &cmp.without_ladder);
    let viol = |r: &vfc_scenarios::overload_eval::OverloadRun| -> u64 {
        r.points.iter().map(|p| p.violations).sum()
    };
    let mut t = TextTable::new(&["measure", "with ladder", "without"]);
    t.row_strs(&[
        "deadline overruns",
        &w.total_overruns.to_string(),
        &wo.total_overruns.to_string(),
    ]);
    t.row_strs(&[
        "worst ladder rung",
        &w.max_rung.to_string(),
        &wo.max_rung.to_string(),
    ]);
    t.row_strs(&[
        "recovered at period",
        &w.recovered_at.map_or("never".into(), |p| p.to_string()),
        "n/a",
    ]);
    t.row_strs(&[
        "SLO-violated VM-periods",
        &viol(w).to_string(),
        &viol(wo).to_string(),
    ]);
    t.row_strs(&[
        "partitioned node-periods",
        &w.faults.partitioned_node_periods.to_string(),
        &wo.faults.partitioned_node_periods.to_string(),
    ]);
    print!("{}", t.render());

    let rows: Vec<Vec<String>> = w
        .points
        .iter()
        .zip(&wo.points)
        .map(|(a, b)| {
            vec![
                a.period.to_string(),
                a.rung.to_string(),
                a.overruns.to_string(),
                a.violations.to_string(),
                a.leases_degraded.to_string(),
                b.violations.to_string(),
                b.leases_degraded.to_string(),
            ]
        })
        .collect();
    ctx.save_rows(
        "overload_eval",
        &[
            "period",
            "ladder_rung",
            "deadline_overruns",
            "violations_with_ladder",
            "leases_degraded_with_ladder",
            "violations_without_ladder",
            "leases_degraded_without_ladder",
        ],
        &rows,
    );

    let api = api_stress(ApiStressScenario::default())
        .map_err(|e| format!("api stress could not bind: {e}"))?;
    println!(
        "  api: {} probes ok / {} failed ({:.2} % failure), {} loris shed (408), {} oversized shed (413)",
        api.good_ok,
        api.good_failed,
        api.good_failure_rate * 100.0,
        api.shed_read_timeout,
        api.shed_body_too_large,
    );

    let ladder_worked = w.max_rung > 0 && w.recovered_at.is_some();
    let api_ok =
        api.good_failure_rate < 0.01 && api.shed_read_timeout > 0 && api.shed_body_too_large > 0;
    ctx.registry.add(
        ExperimentRecord::new(
            "overload",
            "Overload resilience (deadline ladder, cap leases, API shedding)",
            "A controller too slow to decide must degrade instead of enforcing \
             stale caps, a partitioned node must fail safe, and the API front \
             end must shed abusive clients without hurting well-behaved ones",
        )
        .metric("deadline_overruns_with_ladder", w.total_overruns as f64)
        .metric("worst_rung", w.max_rung as f64)
        .metric("violations_with_ladder", viol(w) as f64)
        .metric("violations_without_ladder", viol(wo) as f64)
        .metric("api_good_failure_rate", api.good_failure_rate)
        .measured(format!(
            "ladder descended to rung {} and recovered at period {:?}; \
             violations {} (ladder) vs {} (none); api shed {}×408 / {}×413 \
             at {:.2} % well-behaved failures",
            w.max_rung,
            w.recovered_at,
            viol(w),
            viol(wo),
            api.shed_read_timeout,
            api.shed_body_too_large,
            api.good_failure_rate * 100.0,
        ))
        .verdict(if ladder_worked && api_ok {
            Verdict::Reproduced
        } else {
            Verdict::Diverged
        }),
    );
    if !ladder_worked {
        return Err(format!(
            "ladder never engaged or never recovered (worst rung {}, recovered {:?})",
            w.max_rung, w.recovered_at
        ));
    }
    if !api_ok {
        return Err(format!(
            "api shedding misbehaved ({:.2} % well-behaved failures, {}×408, {}×413)",
            api.good_failure_rate * 100.0,
            api.shed_read_timeout,
            api.shed_body_too_large
        ));
    }
    let lag = w
        .recovered_at
        .map(|p| p.saturating_sub(cmp.scenario.stress.1));
    env_gate("VFC_OVERLOAD_MAX_RECOVERY", |max: u64| match lag {
        Some(lag) if lag <= max => Ok(format!(
            "  recovery floor met: {lag} ≤ {max} periods past the stress window"
        )),
        lag => Err(format!(
            "ladder recovery lag {lag:?} exceeds the {max}-period ceiling"
        )),
    })
}

/// Revenue-vs-SLO pricing sweep: every `vfc-billing` price curve ×
/// every SLA-class mix over the churn fleet on the event-driven core,
/// with a light crash model supplying the SLO pressure. Emits the
/// frontier to `pricing_eval.csv`. Fails when a cell meters nothing,
/// bills zero revenue, or — with `VFC_PRICING_MIN_PERIODS` set — meters
/// fewer distinct periods than the floor.
fn pricing_cmd(ctx: &mut Ctx) -> Result<(), String> {
    use vfc_scenarios::pricing_eval::{run, PricingScenario};
    let scenario = if ctx.scale.0 < 1.0 {
        PricingScenario {
            periods: 40,
            vms: 16,
            ..PricingScenario::default()
        }
    } else {
        PricingScenario::default()
    };
    println!(
        "  {} VMs / {} tenants over {} periods on {} nodes (crash rate {}), 3 curves × 3 mixes…",
        scenario.vms, scenario.tenants, scenario.periods, scenario.nodes, scenario.node_crash_rate
    );
    let outcomes = run(&scenario);

    let mut t = TextTable::new(&[
        "curve",
        "mix",
        "class",
        "revenue µ¢",
        "penalty µ¢",
        "net µ¢",
        "SLO viol.",
    ]);
    let mut rows = Vec::new();
    let mut min_periods = u64::MAX;
    let mut total_net = 0i64;
    let mut total_violated = 0u64;
    let mut total_demanding = 0u64;
    for o in &outcomes {
        min_periods = min_periods.min(o.periods_metered);
        for r in &o.rollups {
            t.row_strs(&[
                o.curve,
                o.mix,
                r.class,
                &r.revenue_microcents.to_string(),
                &r.penalty_microcents.to_string(),
                &r.net_microcents.to_string(),
                &format!("{:.4}", r.violation_rate()),
            ]);
            rows.push(vec![
                o.curve.to_owned(),
                o.mix.to_owned(),
                r.class.to_owned(),
                r.tenants.to_string(),
                o.periods_metered.to_string(),
                r.guaranteed_mhz_s.to_string(),
                r.delivered_mhz_s.to_string(),
                r.auction_usec.to_string(),
                r.revenue_microcents.to_string(),
                r.penalty_microcents.to_string(),
                r.net_microcents.to_string(),
                r.demanding_vm_periods.to_string(),
                r.violated_vm_periods.to_string(),
                format!("{:.6}", r.violation_rate()),
            ]);
            total_net += r.net_microcents;
            total_violated += r.violated_vm_periods;
            total_demanding += r.demanding_vm_periods;
        }
    }
    print!("{}", t.render());
    ctx.save_rows("pricing_eval", PRICING_EVAL_HEADERS, &rows);

    let metered = min_periods != u64::MAX && min_periods > 0;
    let billed = outcomes
        .iter()
        .all(|o| o.rollups.iter().any(|r| r.revenue_microcents > 0));
    let overall_violation_rate = if total_demanding > 0 {
        total_violated as f64 / total_demanding as f64
    } else {
        0.0
    };
    ctx.registry.add(
        ExperimentRecord::new(
            "pricing",
            "Performance-based pricing (revenue vs SLO frontier)",
            "Charging for the virtual frequency actually provisioned turns the \
             credit/market economy into revenue; penalties must track violated \
             guarantees, and burstable tenants must pay spot for auction cycles",
        )
        .metric("net_revenue_microcents", total_net as f64)
        .metric("violation_rate", overall_violation_rate)
        .metric("min_periods_metered", min_periods as f64)
        .measured(format!(
            "{} frontier points over {} curve×mix cells; net {total_net} µ¢, \
             overall violation rate {overall_violation_rate:.4}",
            rows.len(),
            outcomes.len(),
        ))
        .verdict(if metered && billed {
            Verdict::Reproduced
        } else {
            Verdict::Diverged
        }),
    );
    if !metered || !billed {
        return Err("a pricing cell metered no periods or billed no revenue".into());
    }
    env_gate("VFC_PRICING_MIN_PERIODS", |floor: u64| {
        if min_periods < floor {
            return Err(format!(
                "a cell metered only {min_periods} distinct periods, \
                 below the {floor}-period floor"
            ));
        }
        Ok(format!(
            "  metering floor met: {min_periods} ≥ {floor} periods"
        ))
    })
}

/// Header row of `pricing_eval.csv`; the CI smoke job asserts the
/// committed artifact's header matches the regenerated one.
const PRICING_EVAL_HEADERS: &[&str] = &[
    "curve",
    "mix",
    "class",
    "tenants",
    "periods",
    "guaranteed_mhz_s",
    "delivered_mhz_s",
    "auction_usec",
    "revenue_microcents",
    "penalty_microcents",
    "net_microcents",
    "demanding_vm_periods",
    "violated_vm_periods",
    "violation_rate",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str) -> ExperimentRecord {
        ExperimentRecord::new(id, "stub", "stub claim").verdict(Verdict::Reproduced)
    }

    #[test]
    fn dispatch_fails_commands_that_err_or_leave_no_record_and_keeps_going() {
        let stubs: &[Command] = &[
            ("good", "records itself", |c| {
                c.registry.add(record("good"));
                Ok(())
            }),
            ("silent", "records nothing", |_| Ok(())),
            ("misnamed", "records under another id", |c| {
                c.registry.add(record("other"));
                Ok(())
            }),
            ("broken", "records, then fails", |c| {
                c.registry.add(record("broken"));
                Err("gate tripped".into())
            }),
            ("after", "runs after the failures", |c| {
                c.registry.add(record("after"));
                Ok(())
            }),
        ];
        let mut ctx = Ctx::new(std::env::temp_dir(), Scale::quick());
        let failures = dispatch(stubs, &mut ctx);
        assert_eq!(
            failures,
            [
                "silent finished without adding its record",
                "misnamed finished without adding its record",
                "gate tripped",
            ]
        );
        let ids: Vec<&str> = ctx.registry.records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["good", "other", "broken", "after"]);
    }

    /// The gate as `churn` uses it, against a measured 1500 ops/s.
    fn churn_gate(value: Result<String, VarError>) -> Result<(), String> {
        gate("VFC_CHURN_MIN_OPS", value, |floor: f64| {
            if 1500.0 < floor {
                return Err(format!("below the {floor} floor"));
            }
            Ok(format!("floor {floor} met"))
        })
    }

    #[test]
    fn gate_is_off_when_unset_and_fails_when_malformed() {
        assert_eq!(churn_gate(Err(VarError::NotPresent)), Ok(()));
        let err = churn_gate(Ok("2k".into())).unwrap_err();
        assert!(
            err.contains("VFC_CHURN_MIN_OPS") && err.contains("2k"),
            "{err}"
        );
    }

    #[test]
    fn gate_fails_below_the_floor_and_passes_when_met() {
        assert_eq!(
            churn_gate(Ok("2000".into())),
            Err("below the 2000 floor".into())
        );
        assert_eq!(churn_gate(Ok("1500".into())), Ok(()));
    }
}
