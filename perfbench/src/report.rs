//! Rendering a run: the result line the benchmark ends with, a readable
//! table, and a detailed results file with the run's metadata.

use crate::stats::Metric;
use crate::{GoldenCheck, RunResult, HELD_OUT_SEED};
use std::fmt::Write as _;

/// Facts about the build and machine recorded with every result.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Commit of the measured tree, when it is a git checkout.
    pub git_commit: String,
    /// Digest of the measured sources (identifies non-git checkouts).
    pub source_digest: String,
    /// `rustc --version` of the build.
    pub rustc: String,
    /// Cores available to the process.
    pub nproc: usize,
}

impl Meta {
    /// Read the build facts the launcher exports (`VFC_BENCH_GIT_COMMIT`,
    /// `VFC_BENCH_SOURCE_DIGEST`, `VFC_BENCH_RUSTC`); absent ones read
    /// `unknown`.
    pub fn from_env() -> Meta {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Meta {
            git_commit: var("VFC_BENCH_GIT_COMMIT"),
            source_digest: var("VFC_BENCH_SOURCE_DIGEST"),
            rustc: var("VFC_BENCH_RUSTC"),
            nproc: crate::util::nproc(),
        }
    }
}

/// A finite JSON number (non-finite values render as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and the run's metrics (end-to-end untraced, per-layer traced).
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .line_metrics()
        .iter()
        .map(|m| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn golden_label(g: GoldenCheck) -> &'static str {
    match g {
        GoldenCheck::Matched => "matched",
        GoldenCheck::Mismatched => "MISMATCHED",
        GoldenCheck::Absent => "absent (self-consistency only)",
    }
}

fn table(out: &mut String, title: &str, metrics: &[Metric]) {
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<38} {:>14} {:<9} {:>7} {:>12} {:>12} {:>12}",
        "metric", "value", "unit", "n", "q1", "median", "q3"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<38} {:>14.6} {:<9} {:>7} {:>12.4} {:>12.4} {:>12.4}",
            m.name, m.value, m.unit, m.stats.n, m.stats.q1, m.stats.median, m.stats.q3
        );
    }
}

/// The human-readable report printed before the result line.
pub fn human(r: &RunResult, meta: &Meta) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} · seed {} · tier {} · traced {} · {} s window",
        r.cfg.workload.name(),
        r.cfg.seed,
        r.cfg.tier.name(),
        r.cfg.traced,
        r.cfg.seconds
    );
    let _ = writeln!(
        out,
        "nproc {} · commit {} · sources {} · {}",
        meta.nproc, meta.git_commit, meta.source_digest, meta.rustc
    );
    let params: Vec<String> = r
        .out
        .params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let _ = writeln!(out, "params {}", params.join(" "));
    let _ = writeln!(
        out,
        "digest {} · golden {} · held-out seed {HELD_OUT_SEED}",
        if r.digest.is_empty() {
            "INCONSISTENT"
        } else {
            &r.digest
        },
        golden_label(r.golden)
    );
    for (label, ok) in &r.out.checks {
        let _ = writeln!(
            out,
            "check {:<48} {}",
            label,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    table(&mut out, "workload metrics", &r.out.named);
    if r.cfg.traced {
        table(&mut out, "per-layer metrics (traced)", &r.line_metrics());
    } else {
        table(&mut out, "end-to-end metrics", &r.line_metrics());
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}: {{"value": {}, "unit": {}, "samples": {}, "q1": {}, "median": {}, "q3": {}, "p95": {}}}"#,
                string(&m.name),
                num(m.value),
                string(m.unit),
                m.stats.n,
                num(m.stats.q1),
                num(m.stats.median),
                num(m.stats.q3),
                num(m.stats.p95)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(",\n    "))
}

/// The detailed results file: metadata, checks and every metric with
/// its sample size, median and quartiles.
pub fn results_json(r: &RunResult, meta: &Meta) -> String {
    let params: Vec<String> = r
        .out
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    let checks: Vec<String> = r
        .out
        .checks
        .iter()
        .map(|(k, ok)| format!("{}: {ok}", string(k)))
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"held_out_seed\": {HELD_OUT_SEED},\n  \"tier\": {},\n  \"traced\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"git_commit\": {},\n  \"source_digest\": {},\n  \"rustc\": {},\n  \"params\": {{{}}},\n  \"digest\": {},\n  \"golden\": {},\n  \"checks\": {{{}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"workload_metrics\": {},\n  \"metrics\": {}\n}}\n",
        string(r.cfg.workload.name()),
        r.cfg.seed,
        string(r.cfg.tier.name()),
        r.cfg.traced,
        num(r.cfg.seconds),
        meta.nproc,
        string(&meta.git_commit),
        string(&meta.source_digest),
        string(&meta.rustc),
        params.join(", "),
        string(&r.digest),
        string(golden_label(r.golden)),
        checks.join(", "),
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.out.named),
        metrics_json(&r.line_metrics()),
    )
}
