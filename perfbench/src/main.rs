//! Command-line entry of the benchmark. Usually started through
//! `perfbench/run.py`, which builds it first:
//!
//! ```text
//! vfc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!               [--quick] [--bless] [--out-dir DIR] [--golden FILE]
//! ```
//!
//! Prints a readable report, then one JSON result line last; `all`
//! runs every workload in turn, each ending with its result line.

use std::path::PathBuf;
use std::process::ExitCode;
use vfc_perfbench::report::{self, Meta};
use vfc_perfbench::{run, Golden, RunConfig, Tier, Workload};

struct Args {
    workloads: Vec<Workload>,
    cfg: RunConfig,
    golden: PathBuf,
    bless: bool,
}

fn parse() -> Result<Args, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut traced) = (None, None, false);
    let (mut tier, mut bless) = (Tier::Full, false);
    let mut out_dir = PathBuf::from(".bench_out");
    let mut golden = PathBuf::from("perfbench/golden.txt");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?],
                };
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--quick" => tier = Tier::Quick,
            "--bless" => bless = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--golden" => golden = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        cfg: RunConfig {
            workload: *workloads.first().ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced,
            tier,
            out_dir,
        },
        workloads,
        golden,
        bless,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vfc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut golden = match Golden::load(&args.golden) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("vfc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = Meta::from_env();
    for &workload in &args.workloads {
        let cfg = RunConfig {
            workload,
            ..args.cfg.clone()
        };
        if let Err(e) = run_one(cfg, &args, &mut golden, &meta) {
            eprintln!("vfc-perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// Run one workload, write its results (and spans), bless if asked,
/// and print its report and result line.
fn run_one(cfg: RunConfig, args: &Args, golden: &mut Golden, meta: &Meta) -> Result<(), String> {
    let check_against = if args.bless {
        Golden::default()
    } else {
        golden.clone()
    };
    let result = run(cfg, &check_against);
    let cfg = &result.cfg;
    let stem = format!(
        "{}-s{}-{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        cfg.tier.name(),
        cfg.traced as u8
    );
    let results = cfg.out_dir.join("results");
    std::fs::create_dir_all(&results)
        .and_then(|()| {
            std::fs::write(
                results.join(format!("{stem}.json")),
                report::results_json(&result, meta),
            )
        })
        .map_err(|e| format!("writing results: {e}"))?;
    if let Some(tracer) = &result.out.tracer {
        let spans = cfg.out_dir.join("spans");
        std::fs::create_dir_all(&spans)
            .and_then(|()| std::fs::write(spans.join(format!("{stem}.jsonl")), tracer.to_jsonl()))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    if args.bless {
        if !result.correct {
            return Err("not blessing an output that failed its checks".into());
        }
        golden.insert(cfg.tier, cfg.workload, cfg.seed, &result.digest);
        std::fs::write(&args.golden, golden.render())
            .map_err(|e| format!("writing {}: {e}", args.golden.display()))?;
        eprintln!(
            "blessed {} {} {} {}",
            cfg.tier.name(),
            cfg.workload.name(),
            cfg.seed,
            result.digest
        );
    }
    print!("{}", report::human(&result, meta));
    println!("{}", report::result_line(&result));
    Ok(())
}
