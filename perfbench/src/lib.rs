//! The repository benchmark: four workloads that exercise the vfc stack
//! end to end, each measured untraced for the end-to-end metrics and,
//! in a separate traced run, per layer. See `perfbench/README.md`.

pub mod cplane;
pub mod dense;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod tracewl;
pub mod util;

use spans::Tracer;
use stats::{median, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed claim checks use and no change tunes against.
pub const HELD_OUT_SEED: u64 = 90_210;

/// End-to-end metrics: printed by every untraced run, in this order.
/// Each workload gives them its own meaning (see the benchmark doc).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("ready_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, in this order. A
/// layer a workload does not exercise reads 0 with an empty sample.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("simcore.events", "count"),
    ("simcore.queue_depth.max", "count"),
    ("simcore.push_pop_ns", "ns"),
    ("placement.placements", "count"),
    ("placement.query_ns", "ns"),
    ("placement.update_ns", "ns"),
    ("placement.rejected_frac", "fraction"),
    ("vmm.advance_period_us", "us"),
    ("vmm.advance_period_us_per_vcpu", "us"),
    ("controller.iterate_us", "us"),
    ("controller.monitor_us", "us"),
    ("controller.estimate_us", "us"),
    ("controller.enforce_us", "us"),
    ("controller.auction_us", "us"),
    ("controller.distribute_us", "us"),
    ("controller.apply_us", "us"),
    ("controller.cap_writes", "count"),
    ("controller.cap_writes_elided_frac", "fraction"),
    ("cluster.node_periods", "count"),
    ("cluster.active_node_frac", "fraction"),
    ("cluster.migrations", "count"),
    ("cluster.landings", "count"),
    ("cluster.report_ms", "ms"),
    ("cluster.unattributed_frac", "fraction"),
    ("controlplane.post_vms_ms.p50", "ms"),
    ("controlplane.put_vfreq_ms.p50", "ms"),
    ("controlplane.delete_vm_ms.p50", "ms"),
    ("controlplane.get_vm_ms.p50", "ms"),
    ("controlplane.get_bill_ms.p50", "ms"),
    ("controlplane.get_metrics_ms.p50", "ms"),
    ("controlplane.step_ms.p50", "ms"),
    ("controlplane.step_growth", "ratio"),
    ("controlplane.spec_log_save_ms", "ms"),
    ("controlplane.spec_log_bytes", "bytes"),
    ("controlplane.unattributed_frac", "fraction"),
    ("billing.checkpoint_ms", "ms"),
    ("billing.ledger_records", "count"),
    ("billing.ledger_bytes", "bytes"),
    ("telemetry.metrics_bytes", "bytes"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
    ("bench.episodes", "count"),
    ("bench.serial_replay_ms", "ms"),
    ("bench.spans", "count"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Trace replay under Eq. 7 best-fit with the paper's controller.
    TraceEq7,
    /// The same trace under migration-based packing, no controller.
    TracePack,
    /// One ~1000-vCPU host: host simulation then one controller period.
    DenseNode,
    /// Closed-loop HTTP clients against the loopback control plane.
    ControlPlane,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::TraceEq7,
        Workload::TracePack,
        Workload::DenseNode,
        Workload::ControlPlane,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceEq7 => "trace_eq7",
            Workload::TracePack => "trace_pack",
            Workload::DenseNode => "dense_node",
            Workload::ControlPlane => "control_plane",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size, or the shortened smoke tier the benchmark's tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The measured benchmark.
    Full,
    /// A few-second smoke version of every workload.
    Quick,
}

impl Tier {
    /// Tier label used in golden keys and results.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Quick => "quick",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Workload size.
    pub tier: Tier,
    /// Where results, spans and scratch files go.
    pub out_dir: PathBuf,
}

/// What a workload hands back to [`run`].
#[derive(Default)]
pub struct Output {
    /// Workload parameters, for the run metadata.
    pub params: Vec<(&'static str, String)>,
    /// Operations attempted (events, periods or requests).
    pub attempted: u64,
    /// Operations that failed on their own (unexpected HTTP statuses).
    pub failed: u64,
    /// Output digest of every episode; all must agree.
    pub digests: Vec<String>,
    /// Further correctness checks: label and verdict.
    pub checks: Vec<(String, bool)>,
    /// The [`END_TO_END`] metrics except `peak_rss_mb`.
    pub end_to_end: Vec<Metric>,
    /// The workload's own names for its end-to-end metrics.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Spans recorded during traced episodes.
    pub tracer: Option<Tracer>,
}

/// Drive episodes until `cfg.seconds` have passed (at least one, and in
/// a traced run at least one traced and one untraced). A traced run
/// alternates untraced and traced episodes so that their walls compare
/// like for like. `episode(n, traced)` returns its wall time.
pub fn drive_episodes(cfg: &RunConfig, mut episode: impl FnMut(usize, bool) -> Duration) -> Walls {
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let min = if cfg.traced { 2 } else { 1 };
    let mut walls = Walls::default();
    let mut n = 0;
    while n < min || Instant::now() < deadline {
        let traced = cfg.traced && n % 2 == 1;
        let wall = episode(n, traced).as_secs_f64();
        if traced {
            walls.traced.push(wall);
        } else {
            walls.untraced.push(wall);
        }
        n += 1;
    }
    walls
}

/// Episode wall times, seconds.
#[derive(Debug, Default)]
pub struct Walls {
    /// Untraced episodes.
    pub untraced: Vec<f64>,
    /// Traced episodes.
    pub traced: Vec<f64>,
}

impl Walls {
    /// Traced against untraced median wall, minus one.
    pub fn trace_overhead_frac(&self) -> f64 {
        stats::ratio(median(&self.traced), median(&self.untraced)) - 1.0
    }

    /// Episodes run.
    pub fn count(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }
}

/// Golden output digests, keyed `(tier, workload, seed)`.
#[derive(Debug, Default, Clone)]
pub struct Golden(BTreeMap<(String, String, u64), String>);

impl Golden {
    /// Parse `tier workload seed digest` lines (`#` comments allowed).
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [tier, wl, seed, digest] = f[..] else {
                return Err(format!("golden line {}: want 4 fields", i + 1));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("golden line {}: bad seed", i + 1))?;
            map.insert((tier.to_owned(), wl.to_owned(), seed), digest.to_owned());
        }
        Ok(Golden(map))
    }

    /// Load from `path`; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<Golden, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Golden::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Golden::default()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// The blessed digest, if any.
    pub fn get(&self, tier: Tier, wl: Workload, seed: u64) -> Option<&str> {
        self.0
            .get(&(tier.name().to_owned(), wl.name().to_owned(), seed))
            .map(String::as_str)
    }

    /// Record a digest.
    pub fn insert(&mut self, tier: Tier, wl: Workload, seed: u64, digest: &str) {
        self.0.insert(
            (tier.name().to_owned(), wl.name().to_owned(), seed),
            digest.to_owned(),
        );
    }

    /// Render in the file format, sorted.
    pub fn render(&self) -> String {
        let mut out = String::from("# tier workload seed digest — written by `run.py --bless`\n");
        for ((tier, wl, seed), d) in &self.0 {
            out.push_str(&format!("{tier} {wl} {seed} {d}\n"));
        }
        out
    }
}

/// How the run's digest compared with the golden set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenCheck {
    /// Matched the blessed digest.
    Matched,
    /// Differed from the blessed digest.
    Mismatched,
    /// No digest is blessed for this seed; only self-consistency holds.
    Absent,
}

/// Everything one run measured and checked.
pub struct RunResult {
    /// The invocation.
    pub cfg: RunConfig,
    /// The workload's output.
    pub out: Output,
    /// The episodes' common digest (empty if they disagreed).
    pub digest: String,
    /// Comparison with the golden set.
    pub golden: GoldenCheck,
    /// Outputs correct: digests agree, match any golden, checks pass,
    /// and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (all of them when an output check failed).
    pub failed: u64,
}

impl RunResult {
    /// The metrics the last output line carries: [`END_TO_END`] when
    /// untraced, [`PER_LAYER`] when traced, each exactly once in list
    /// order (a metric the workload did not produce reads 0).
    pub fn line_metrics(&self) -> Vec<Metric> {
        let (list, have): (&[(&str, &str)], &[Metric]) = if self.cfg.traced {
            (&PER_LAYER, &self.out.layers)
        } else {
            (&END_TO_END, &self.out.end_to_end)
        };
        list.iter()
            .map(|(name, unit)| {
                have.iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .unwrap_or_else(|| Metric {
                        name: (*name).to_owned(),
                        unit,
                        value: 0.0,
                        stats: stats::Summary::of(&[]),
                    })
            })
            .collect()
    }
}

/// Run one workload and check its outputs against `golden`.
pub fn run(cfg: RunConfig, golden: &Golden) -> RunResult {
    let mut out = match cfg.workload {
        Workload::TraceEq7 | Workload::TracePack => tracewl::run(&cfg),
        Workload::DenseNode => dense::run(&cfg),
        Workload::ControlPlane => cplane::run(&cfg),
    };
    let rss = util::peak_rss_mb();
    out.end_to_end
        .push(Metric::single("peak_rss_mb", "MB", rss));
    out.named.push(Metric::single("peak_rss_mb", "MB", rss));

    let consistent = !out.digests.is_empty() && out.digests.windows(2).all(|w| w[0] == w[1]);
    let digest = if consistent {
        out.digests[0].clone()
    } else {
        String::new()
    };
    let golden_check = match golden.get(cfg.tier, cfg.workload, cfg.seed) {
        None => GoldenCheck::Absent,
        Some(g) if consistent && g == digest => GoldenCheck::Matched,
        Some(_) => GoldenCheck::Mismatched,
    };
    out.checks
        .push(("episode digests agree".into(), consistent));
    out.checks.push((
        "digest matches golden".into(),
        golden_check != GoldenCheck::Mismatched,
    ));
    let outputs_ok = out.checks.iter().all(|(_, ok)| *ok);
    let attempted = out.attempted.max(1);
    let failed = if outputs_ok {
        out.failed.min(attempted)
    } else {
        attempted
    };
    out.named.push(Metric::single(
        "failed_frac",
        "fraction",
        failed as f64 / attempted as f64,
    ));
    RunResult {
        correct: outputs_ok && failed == 0,
        cfg,
        out,
        digest,
        golden: golden_check,
        attempted,
        failed,
    }
}
