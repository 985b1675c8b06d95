//! `control_plane`: one closed-loop client thread against an
//! `ApiServer` on loopback, one connection per request, calling
//! `ControlPlaneRuntime::step()` between rounds. Billing is attached
//! with a persistent ledger and the spec log is persisted, both in a
//! fresh directory per episode.

use crate::spans::Tracer;
use crate::stats::{ratio, Metric};
use crate::util::{class_workload, draw_template, sum_family, Digest};
use crate::{drive_episodes, Output, RunConfig, Tier};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vfc_billing::{BillingEngine, PricingConfig, SlaClass};
use vfc_cluster::{ClusterManager, Strategy};
use vfc_controlplane::{
    spec_audit, ApiServer, ApiServerConfig, ControlPlane, ControlPlaneRuntime, RateLimit,
    Reconciler, ReconcilerConfig, TenantQuota,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, SplitMix64};

/// Shape of the control-plane workload.
#[derive(Debug, Clone, Copy)]
pub struct CpParams {
    /// Cluster nodes (1 socket × 4 cores × 2 threads @ 2.4 GHz each).
    pub nodes: usize,
    /// VMs created through the library while building the start state.
    pub prepopulate: usize,
    /// Request rounds per episode; each ends with one `step()`.
    pub rounds: usize,
    /// Deletions stop below this many live VMs.
    pub live_min: usize,
    /// Creations stop at this many live VMs.
    pub live_max: usize,
}

impl CpParams {
    /// The tier's size.
    pub fn new(tier: Tier) -> CpParams {
        match tier {
            Tier::Full => CpParams {
                nodes: 16,
                prepopulate: 24,
                rounds: 40,
                live_min: 16,
                live_max: 40,
            },
            Tier::Quick => CpParams {
                nodes: 4,
                prepopulate: 4,
                rounds: 8,
                live_min: 2,
                live_max: 8,
            },
        }
    }

    /// Desired state never exceeds this share of the Eq. 7 capacity,
    /// so admission's first-fit-decreasing check always passes.
    fn mhz_limit(&self) -> u64 {
        self.nodes as u64 * 19_200 * 55 / 100
    }
}

/// Four tenants alternating the two SLA classes.
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

fn sla(tenant_idx: usize) -> SlaClass {
    if tenant_idx.is_multiple_of(2) {
        SlaClass::default()
    } else {
        SlaClass::Burstable {
            base_discount_pct: 30,
            spot_multiplier_pct: 150,
        }
    }
}

/// Virtual frequencies resizes choose from.
const VFREQS: [u32; 4] = [500, 800, 1200, 1800];

/// The request kinds the client sends, with their span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    PostVms,
    PutVfreq,
    DeleteVm,
    GetVm,
    GetBill,
    GetMetrics,
}

impl Req {
    const ALL: [Req; 6] = [
        Req::PostVms,
        Req::PutVfreq,
        Req::DeleteVm,
        Req::GetVm,
        Req::GetBill,
        Req::GetMetrics,
    ];

    fn span(self) -> &'static str {
        match self {
            Req::PostVms => "controlplane.post_vms",
            Req::PutVfreq => "controlplane.put_vfreq",
            Req::DeleteVm => "controlplane.delete_vm",
            Req::GetVm => "controlplane.get_vm",
            Req::GetBill => "controlplane.get_bill",
            Req::GetMetrics => "controlplane.get_metrics",
        }
    }
}

/// One request, one connection (the server does not keep-alive):
/// `(status, body)`, status 0 on a transport error.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let exchange = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: vfc\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };
    let Ok(response) = exchange() else {
        return (0, String::new());
    };
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// A VM the client believes exists.
struct LiveVm {
    id: u64,
    vcpus: u32,
    vfreq: u32,
    /// `POST` send time until the VM is seen converged, then `None`.
    pending_since: Option<Instant>,
}

/// The client's side of one episode.
struct Client<'a> {
    addr: SocketAddr,
    runtime: &'a Mutex<ControlPlaneRuntime>,
    tracer: &'a mut Tracer,
    parent: Option<u32>,
    rng: SplitMix64,
    live: Vec<LiveVm>,
    mhz: u64,
    /// Client-measured round trips, ms, with their kind.
    rtt: Vec<(Req, f64)>,
    ready_ms: Vec<f64>,
    step_ms: Vec<f64>,
    save_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    metrics_bytes: usize,
    failed: u64,
}

impl Client<'_> {
    fn lock(&self) -> MutexGuard<'_, ControlPlaneRuntime> {
        self.runtime
            .lock()
            .expect("no thread panics holding the runtime")
    }

    fn send(&mut self, kind: Req, method: &str, path: &str, body: &str, want: u16) -> String {
        let span = self.tracer.begin(kind.span(), self.parent);
        let (status, reply) = http(self.addr, method, path, body);
        let took = self.tracer.end(span);
        self.rtt.push((kind, took.as_nanos() as f64 / 1e6));
        if status != want {
            self.failed += 1;
        }
        reply
    }

    fn create(&mut self, tenant: &str, limit: u64) {
        let t = draw_template(&mut self.rng);
        let demand = t.freq_demand_mhz();
        if self.mhz + demand > limit {
            return;
        }
        let body = format!(
            r#"{{"tenant":"{tenant}","name":"{}","vcpus":{},"vfreq_mhz":{}}}"#,
            t.name,
            t.vcpus,
            t.vfreq.as_u32()
        );
        let sent = Instant::now();
        let reply = self.send(Req::PostVms, "POST", "/vms", &body, 201);
        let id = serde_json::from_str::<serde_json::Value>(&reply)
            .ok()
            .and_then(|v| v.get("id").and_then(|id| id.as_u64()));
        if let Some(id) = id {
            self.mhz += demand;
            self.live.push(LiveVm {
                id,
                vcpus: t.vcpus,
                vfreq: t.vfreq.as_u32(),
                pending_since: Some(sent),
            });
        }
    }

    /// A converged VM, chosen by the seeded RNG.
    fn pick_ready(&mut self) -> Option<usize> {
        let ready: Vec<usize> = (0..self.live.len())
            .filter(|&i| self.live[i].pending_since.is_none())
            .collect();
        (!ready.is_empty()).then(|| ready[self.rng.next_below(ready.len() as u64) as usize])
    }

    fn resize(&mut self, limit: u64) {
        let Some(i) = self.pick_ready() else { return };
        let vfreq = VFREQS[self.rng.next_below(VFREQS.len() as u64) as usize];
        let vm = &self.live[i];
        let (old, new) = (
            vm.vfreq as u64 * vm.vcpus as u64,
            vfreq as u64 * vm.vcpus as u64,
        );
        if vfreq == vm.vfreq || self.mhz - old + new > limit {
            return;
        }
        let path = format!("/vms/{}/vfreq", vm.id);
        self.send(
            Req::PutVfreq,
            "PUT",
            &path,
            &format!(r#"{{"vfreq_mhz":{vfreq}}}"#),
            200,
        );
        self.mhz = self.mhz - old + new;
        self.live[i].vfreq = vfreq;
    }

    fn delete(&mut self) {
        let Some(i) = self.pick_ready() else { return };
        let vm = self.live.remove(i);
        self.mhz -= vm.vfreq as u64 * vm.vcpus as u64;
        self.send(Req::DeleteVm, "DELETE", &format!("/vms/{}", vm.id), "", 200);
    }

    /// One control period, then poll every pending VM: a VM converged
    /// after this step was ready at the step's end.
    fn step(&mut self, dir: &Path) {
        let span = self.tracer.begin("controlplane.step", self.parent);
        self.lock().step();
        let took = self.tracer.end(span);
        let step_end = Instant::now();
        self.step_ms.push(took.as_nanos() as f64 / 1e6);
        if self.tracer.is_on() {
            // The persistence calls inside step() and admission are not
            // public; re-issue them here to price them.
            let span = self.tracer.begin("controlplane.spec_log_save", self.parent);
            let saved = self
                .lock()
                .plane
                .store()
                .save(&dir.join("specs.probe.json"));
            let took = self.tracer.end(span);
            self.save_ms.push(took.as_nanos() as f64 / 1e6);
            let span = self.tracer.begin("billing.checkpoint", self.parent);
            let checkpointed = self.lock().billing.as_ref().map(|b| b.checkpoint());
            let took = self.tracer.end(span);
            self.checkpoint_ms.push(took.as_nanos() as f64 / 1e6);
            if saved.is_err() || !matches!(checkpointed, Some(Ok(()))) {
                self.failed += 1;
            }
        }
        for i in 0..self.live.len() {
            let Some(sent) = self.live[i].pending_since else {
                continue;
            };
            let reply = self.send(
                Req::GetVm,
                "GET",
                &format!("/vms/{}", self.live[i].id),
                "",
                200,
            );
            if reply.contains("\"converged\":true") {
                self.ready_ms
                    .push((step_end - sent).as_nanos() as f64 / 1e6);
                self.live[i].pending_since = None;
            }
        }
    }

    fn round(&mut self, r: usize, p: &CpParams, dir: &Path) {
        let limit = p.mhz_limit();
        for k in 0..2 {
            if self.live.len() < p.live_max {
                self.create(TENANTS[(2 * r + k) % TENANTS.len()], limit);
            }
        }
        self.resize(limit);
        if self.live.len() > p.live_min {
            self.delete();
        }
        if !self.live.is_empty() {
            let i = self.rng.next_below(self.live.len() as u64) as usize;
            let path = format!("/vms/{}", self.live[i].id);
            self.send(Req::GetVm, "GET", &path, "", 200);
        }
        let bill = format!("/tenants/{}/bill", TENANTS[r % TENANTS.len()]);
        self.send(Req::GetBill, "GET", &bill, "", 200);
        if r.is_multiple_of(4) {
            self.metrics_bytes = self.send(Req::GetMetrics, "GET", "/metrics", "", 200).len();
        }
        self.step(dir);
    }
}

/// Build an episode's starting state in `dir`: tenants, a persisted
/// spec log, billing with a persistent ledger, and a prepopulated,
/// reconciled fleet. Returns the runtime and the client's view of it.
fn build(p: &CpParams, seed: u64, dir: &Path) -> (ControlPlaneRuntime, Vec<LiveVm>, u64) {
    std::fs::create_dir_all(dir).expect("the output directory is writable");
    let mut plane =
        ControlPlane::with_persistence(dir.join("specs.json")).expect("a fresh spec log opens");
    plane.set_rate_limit(RateLimit {
        burst: 1 << 20,
        per_tick: 1 << 20,
    });
    for (i, t) in TENANTS.iter().enumerate() {
        plane.add_tenant_with_sla(t, TenantQuota::unlimited(), sla(i));
    }
    let cluster = ClusterManager::new(
        vec![NodeSpec::custom("cp", 1, 4, 2, MHz(2400)); p.nodes],
        Strategy::FrequencyControl,
        seed,
    );
    let reconciler = Reconciler::with_workloads(
        ReconcilerConfig::default(),
        Box::new(move |spec| class_workload(&spec.template.name, seed ^ spec.id.0)),
    );
    let mut rt = ControlPlaneRuntime::new(plane, cluster, reconciler);
    let engine =
        BillingEngine::with_ledger(PricingConfig::linear(1_000, 2400), dir.join("ledger.jsonl"))
            .expect("a fresh ledger opens");
    rt.attach_billing(engine);

    let mut rng = SplitMix64::new(seed ^ 0xC0_97A1);
    let (mut live, mut mhz) = (Vec::new(), 0);
    for i in 0..p.prepopulate {
        let t = draw_template(&mut rng);
        let loads = rt.cluster.node_loads();
        let id = rt
            .plane
            .create_vm(TENANTS[i % TENANTS.len()], t.clone(), &loads)
            .expect("prepopulation stays within capacity");
        mhz += t.freq_demand_mhz();
        live.push(LiveVm {
            id: id.0,
            vcpus: t.vcpus,
            vfreq: t.vfreq.as_u32(),
            pending_since: None,
        });
    }
    for _ in 0..32 {
        if rt.step().converged {
            break;
        }
    }
    (rt, live, mhz)
}

/// The episode's output: ledger file, spec log and every invoice.
fn digest(rt: &ControlPlaneRuntime, dir: &Path) -> String {
    let mut d = Digest::default();
    for file in ["ledger.jsonl", "specs.json"] {
        d.update(&std::fs::read(dir.join(file)).unwrap_or_default());
    }
    let engine = rt.billing.as_ref().expect("billing is attached");
    for t in TENANTS {
        let audit = spec_audit(rt.plane.store().log(), t);
        d.update(engine.invoice(t, audit).render_json().as_bytes());
    }
    d.hex()
}

fn file_len(path: PathBuf) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Run `control_plane` for the configured window.
pub fn run(cfg: &RunConfig) -> Output {
    let p = CpParams::new(cfg.tier);
    let mut out = Output {
        params: vec![
            ("nodes", p.nodes.to_string()),
            ("tenants", TENANTS.len().to_string()),
            ("prepopulated_vms", p.prepopulate.to_string()),
            ("rounds_per_episode", p.rounds.to_string()),
            ("live_vms", format!("{}..{}", p.live_min, p.live_max)),
            (
                "clients",
                "1 (closed loop, one connection per request)".into(),
            ),
        ],
        ..Output::default()
    };
    let scratch = cfg.out_dir.join("tmp");
    let placeholder = ControlPlaneRuntime::new(
        ControlPlane::new(),
        ClusterManager::new(
            vec![NodeSpec::custom("cp", 1, 4, 2, MHz(2400))],
            Strategy::FrequencyControl,
            0,
        ),
        Reconciler::default(),
    );
    let runtime = Arc::new(Mutex::new(placeholder));
    // One closed-loop client never needs a second worker.
    let server_cfg = ApiServerConfig {
        workers: 1,
        ..ApiServerConfig::default()
    };
    let addr = ApiServer::bind_with("127.0.0.1:0", Arc::clone(&runtime), server_cfg)
        .expect("bind a loopback port")
        .local_addr();

    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let (mut api_ms, mut ready_ms, mut requests_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); Req::ALL.len()];
    let (mut step_ms, mut growth, mut save_ms, mut ckpt_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sizes = (0.0, 0.0, 0.0);
    let mut cap_counts = (0.0, 0.0);
    let mut metrics_bytes = 0;

    let walls = drive_episodes(cfg, |n, traced| {
        let dir = scratch.join(format!("cp-{}-{n}", std::process::id()));
        let t = Instant::now();
        let (rt, live, mhz) = build(&p, cfg.seed, &dir);
        *runtime.lock().expect("runtime lock") = rt;
        setup_s.push(t.elapsed().as_secs_f64());

        tracer.set_on(traced);
        let episode = tracer.begin("bench.episode", None);
        let parent = episode.id();
        let mut client = Client {
            addr,
            runtime: &runtime,
            tracer: &mut tracer,
            parent,
            rng: SplitMix64::new(cfg.seed),
            live,
            mhz,
            rtt: Vec::new(),
            ready_ms: Vec::new(),
            step_ms: Vec::new(),
            save_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
            metrics_bytes: 0,
            failed: 0,
        };
        for r in 0..p.rounds {
            client.round(r, &p, &dir);
        }
        let Client {
            rtt,
            ready_ms: ready,
            step_ms: steps,
            save_ms: saves,
            checkpoint_ms: ckpts,
            metrics_bytes: mbytes,
            failed,
            ..
        } = client;
        let wall = tracer.end(episode);
        tracer.set_on(false);

        out.attempted += rtt.len() as u64;
        out.failed += failed;
        {
            let rt = runtime.lock().expect("runtime lock");
            out.digests.push(digest(&rt, &dir));
            if traced {
                let page = rt.cluster.telemetry_prometheus();
                cap_counts = (
                    sum_family(&page, "vfc_cap_writes_total"),
                    sum_family(&page, "vfc_cap_writes_elided_total"),
                );
                sizes = (
                    file_len(dir.join("specs.json")),
                    rt.billing.as_ref().map_or(0.0, |b| b.ledger().len() as f64),
                    file_len(dir.join("ledger.jsonl")),
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if traced {
            for (kind, ms) in &rtt {
                let i = Req::ALL.iter().position(|k| k == kind).expect("known kind");
                per_kind[i].push(*ms);
            }
            let decile = (steps.len() / 10).max(1);
            growth.push(ratio(
                steps[steps.len() - decile..].iter().sum(),
                steps[..decile].iter().sum(),
            ));
            step_ms.extend(steps);
            save_ms.extend(saves);
            ckpt_ms.extend(ckpts);
            metrics_bytes = mbytes;
        } else {
            requests_per_s.push(rtt.len() as f64 / wall.as_secs_f64());
            api_ms.extend(rtt.iter().map(|(_, ms)| ms));
            ready_ms.extend(ready);
        }
        wall
    });
    let _ = std::fs::remove_dir(&scratch);

    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::median("throughput_per_s", "1/s", &requests_per_s),
        Metric::median("latency_ms.p50", "ms", &api_ms),
        Metric::median("ready_ms.p50", "ms", &ready_ms),
    ];
    out.named = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::median("requests_per_s", "requests/s", &requests_per_s),
    ];
    out.named.extend(Metric::p50_p95("api_ms", "ms", &api_ms));
    out.named
        .extend(Metric::p50_p95("vm_ready_ms", "ms", &ready_ms));

    if cfg.traced {
        for (kind, samples) in Req::ALL.iter().zip(&per_kind) {
            out.layers.push(Metric::median(
                &format!("{}_ms.p50", kind.span()),
                "ms",
                samples,
            ));
        }
        let self_ns = tracer.self_times_ns("bench.episode");
        let total_ms = tracer.durations_ms("bench.episode");
        let unattributed: Vec<f64> = self_ns
            .iter()
            .zip(&total_ms)
            .map(|(s, t)| s / 1e6 / t)
            .collect();
        let (writes, elided) = cap_counts;
        out.layers.extend([
            Metric::median("controlplane.step_ms.p50", "ms", &step_ms),
            Metric::median("controlplane.step_growth", "ratio", &growth),
            Metric::median("controlplane.spec_log_save_ms", "ms", &save_ms),
            Metric::single("controlplane.spec_log_bytes", "bytes", sizes.0),
            Metric::median("controlplane.unattributed_frac", "fraction", &unattributed),
            Metric::median("bench.unattributed_frac", "fraction", &unattributed),
            Metric::median("billing.checkpoint_ms", "ms", &ckpt_ms),
            Metric::single("billing.ledger_records", "count", sizes.1),
            Metric::single("billing.ledger_bytes", "bytes", sizes.2),
            Metric::single("telemetry.metrics_bytes", "bytes", metrics_bytes as f64),
            Metric::single("controller.cap_writes", "count", writes),
            Metric::single(
                "controller.cap_writes_elided_frac",
                "fraction",
                ratio(elided, writes + elided),
            ),
            Metric::single(
                "bench.trace_overhead_frac",
                "fraction",
                walls.trace_overhead_frac(),
            ),
            Metric::single("bench.episodes", "count", walls.count() as f64),
            Metric::single("bench.spans", "count", tracer.spans().len() as f64),
        ]);
        out.tracer = Some(tracer);
    }
    out
}
