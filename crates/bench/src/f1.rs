//! F1 — the Figure 1 walkthrough.
//!
//! Reproduces the paper's architecture figure as an executable trace: an
//! application opens a connection through the kernel control plane, a
//! peer's packet traverses the on-NIC dataplane into the app's ring, the
//! blocked app is woken through the notification queue, and a reply
//! leaves through the NIC scheduler. Every hop of Figure 1 appears in
//! the recorded component trace.
//!
//! The walkthrough runs with lifecycle tracing enabled, so alongside the
//! narrative log it records the *typed* per-stage trace of the request
//! frame (frame id, stage, verdict, owner) — the introspection the paper
//! says interposition buys back.

use norman::tools::trace as ktrace;
use norman::{Host, HostConfig, NormanSocket, TraceFilter};
use oskernel::Uid;
use pkt::{IpProto, Mac};
use serde::Serialize;
use sim::{Dur, Time};

use crate::scenario::{udp_to_host, PEER_IP};
use crate::{claim, Mode, Outcome};

#[derive(Serialize)]
struct Step {
    t_us: f64,
    component: String,
    event: String,
}

#[derive(Serialize)]
struct TypedStep {
    frame_id: u64,
    t_us: f64,
    stage: String,
    verdict: String,
    uid: Option<u32>,
    pid: Option<u32>,
    comm: Option<String>,
}

#[derive(Serialize)]
struct Output {
    steps: Vec<Step>,
    lifecycle: Vec<TypedStep>,
}

pub(crate) fn run(_: Mode) -> Outcome {
    let mut steps: Vec<Step> = Vec::new();
    let mut log = |t: Time, component: &str, event: String| {
        steps.push(Step {
            t_us: t.as_us_f64(),
            component: component.to_string(),
            event,
        });
    };

    let mut host = Host::new(HostConfig::default());
    host.start_trace();
    let mut now = Time::ZERO;

    // --- Control plane: connection setup ---------------------------------
    let bob = host.spawn(Uid(1001), "bob", "server");
    log(
        now,
        "app(server)",
        "connect() syscall -> kernel control plane".into(),
    );
    let sock = NormanSocket::connect(
        &mut host,
        bob,
        IpProto::UDP,
        7000,
        PEER_IP,
        9000,
        Mac::local(9),
        true, // blocking I/O via notification queue
    )
    .expect("connect");
    log(
        now,
        "kernel(control)",
        "policy check OK; pinned RX/TX ring pair; flow-table entry bound to (uid=1001, pid=1, comm=server)".into(),
    );
    log(
        now,
        "kernel(control)",
        format!(
            "granted app MMIO doorbells at {:#x}/{:#x}",
            nicsim::SmartNic::rx_doorbell_addr(sock.conn()),
            nicsim::SmartNic::tx_doorbell_addr(sock.conn())
        ),
    );

    // --- App blocks on recv ----------------------------------------------
    now += Dur::from_us(5);
    let r = sock.recv(&mut host, now, true);
    assert!(r.blocked);
    log(
        now,
        "app(server)",
        "recv(): RX ring empty -> arm NIC interrupt, block in scheduler".into(),
    );

    // --- Wire -> NIC dataplane -> ring -> wakeup --------------------------
    now += Dur::from_us(45);
    let request = udp_to_host(&host, 9000, 7000, b"ping");
    log(
        now,
        "wire",
        format!("frame arrives ({} bytes)", request.len()),
    );
    let report = host.deliver_from_wire(&request, now);
    log(
        now + report.nic_latency,
        "nic(dataplane)",
        format!(
            "parse -> flow match -> filter PASS -> DMA to RX ring (pipeline {}, DMA {})",
            report.nic_latency, report.mem_cost
        ),
    );
    assert!(matches!(
        report.outcome,
        norman::host::DeliveryOutcome::FastPath(_)
    ));
    assert_eq!(report.woke, Some(bob));
    log(
        now + report.nic_latency,
        "nic(notify)",
        "notification posted; interrupt fired -> kernel wakes pid 1".into(),
    );
    let zero_kernel_cpu = report.kernel_cpu == Dur::ZERO;
    log(
        now + report.nic_latency,
        "kernel(control)",
        "NOTE: zero kernel CPU on the data path (packets do not pass through the software kernel)"
            .into(),
    );

    // --- App receives and replies -----------------------------------------
    now += Dur::from_us(2);
    let r = sock.recv(&mut host, now, true);
    assert_eq!(r.len, Some(request.len()));
    log(
        now,
        "app(server)",
        format!(
            "recv() returns {} bytes straight from the ring (app CPU {})",
            request.len(),
            r.cpu
        ),
    );
    let s = sock.send(&mut host, b"pong", now);
    assert!(s.queued);
    log(
        now,
        "app(server)",
        format!(
            "send(): payload written to TX ring + doorbell (app CPU {})",
            s.cpu
        ),
    );
    let deps = host.pump_tx(now);
    assert_eq!(deps.len(), 1);
    log(
        deps[0].arrives_at,
        "nic(scheduler)",
        format!(
            "egress filter PASS -> WFQ -> wire; arrives at peer at {}",
            deps[0].arrives_at
        ),
    );

    // --- Admin tools still work (the point of the paper) -------------------
    let root = oskernel::Cred::root();
    let rows = norman::tools::knetstat::connections(&host, &root).unwrap();
    log(
        now,
        "tool(knetstat)",
        format!(
            "sees {} connection(s) with process attribution: {} owned by uid {}",
            rows.len(),
            rows[0].comm,
            rows[0].uid
        ),
    );

    // --- The typed lifecycle trace (ktrace) --------------------------------
    // BPF-ish owner filter: every stage the server's traffic touched,
    // with uid/pid/comm attribution joined at the kernel boundary.
    let owned = ktrace::query(&host, &root, &TraceFilter::any().with_comm("server")).unwrap();
    assert!(!owned.is_empty(), "owner filter must match traced stages");
    // The request frame's full lifecycle, ingress -> app delivery.
    let fid = owned[0].frame_id;
    let life = ktrace::lifecycle(&host, &root, fid).unwrap();
    let has = |stage| life.iter().any(|e| e.stage == stage);
    let claims = vec![
        claim("f1/zero-kernel-cpu-on-datapath", zero_kernel_cpu),
        claim(
            "f1/lifecycle-runs-ingress-to-app",
            has(norman::Stage::RxIngress) && has(norman::Stage::AppDeliver),
        ),
        // The telemetry ledger agrees with every layer's counters.
        claim("f1/audit-clean", host.audit().is_empty()),
    ];

    let lifecycle: Vec<TypedStep> = life
        .iter()
        .map(|e| TypedStep {
            frame_id: e.frame_id,
            t_us: e.at.as_us_f64(),
            stage: e.stage.name().to_string(),
            verdict: e.verdict.to_string(),
            uid: e.owner.as_ref().map(|o| o.uid),
            pid: e.owner.as_ref().map(|o| o.pid),
            comm: e.owner.as_ref().map(|o| o.comm.to_string()),
        })
        .collect();
    Outcome::new(&Output { steps, lifecycle }, claims)
}
