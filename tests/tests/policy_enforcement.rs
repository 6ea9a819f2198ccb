//! Cross-crate integration: the §2 policies enforced end-to-end, plus the
//! §3 isolation requirement (tools and NIC configuration are privileged).

use nicsim::SnifferFilter;
use norman::host::DeliveryOutcome;
use norman::policy::{PortReservation, ShapingPolicy};
use norman::tools::{knetstat, kqdisc, ksniff, npolicy, ToolError};
use oskernel::Cred;
use pkt::PacketBuilder;
use sim::{Dur, Time};
use workloads::{AliceTestbed, BOB, CHARLIE};

#[test]
fn port_partition_holds_in_both_planes() {
    let mut tb = AliceTestbed::new();
    let root = Cred::root();
    npolicy::apply(&mut tb.host, &root, Time::ZERO, |p| {
        p.reservations.push(PortReservation::new(5432, BOB))
    })
    .unwrap();

    // Control plane: charlie cannot open 5432.
    assert!(tb
        .host
        .connect(tb.mysql.pid, pkt::IpProto::UDP, 5432, tb.peer_ip, 1, false)
        .is_err());
    // Control plane: bob can.
    assert!(tb
        .host
        .connect(
            tb.postgres.pid,
            pkt::IpProto::UDP,
            5433,
            tb.peer_ip,
            1,
            false
        )
        .is_ok());

    // Dataplane egress: charlie's spoofed source port is dropped.
    let spoof = PacketBuilder::new()
        .ether(tb.host.cfg.mac, tb.peer_mac)
        .ipv4(tb.host.cfg.ip, tb.peer_ip)
        .udp(5432, 9000, b"spoof")
        .build();
    let d = tb
        .host
        .nic
        .tx_enqueue(tb.mysql.conn, &spoof, Time::ZERO)
        .unwrap();
    assert!(matches!(d, nicsim::TxDisposition::Drop { .. }));

    // Dataplane ingress: bob's legitimate traffic still flows.
    let legit = tb.inbound(&tb.postgres.clone(), 64);
    let rep = tb.host.deliver_from_wire(&legit, Time::ZERO);
    assert!(matches!(rep.outcome, DeliveryOutcome::FastPath(_)));
}

#[test]
fn tools_require_privilege() {
    let mut tb = AliceTestbed::new();
    let bob = Cred::new(BOB, "bob");
    assert!(matches!(
        ksniff::start(&mut tb.host, &bob, SnifferFilter::all(), Time::ZERO),
        Err(ToolError::PermissionDenied { .. })
    ));
    assert!(npolicy::apply(&mut tb.host, &bob, Time::ZERO, |p| {
        p.reservations.push(PortReservation::new(1, BOB))
    })
    .is_err());
    assert!(
        kqdisc::install_wfq(&mut tb.host, &bob, ShapingPolicy::new(vec![]), Time::ZERO).is_err()
    );
    assert!(knetstat::connections(&tb.host, &bob).is_err());
}

#[test]
fn apps_cannot_touch_other_apps_doorbells_or_kernel_registers() {
    let tb = &mut AliceTestbed::new();
    let postgres_pid = tb.postgres.pid.0;
    let mysql_pid = tb.mysql.pid.0;
    let postgres_doorbell = nicsim::SmartNic::rx_doorbell_addr(tb.postgres.conn);

    // Owner works.
    assert!(tb
        .host
        .nic
        .regs
        .write(postgres_doorbell, 1, Some(postgres_pid))
        .is_ok());
    // Another tenant's process faults.
    assert!(tb
        .host
        .nic
        .regs
        .write(postgres_doorbell, 1, Some(mysql_pid))
        .is_err());
    // Kernel registers reject all apps.
    tb.host.nic.regs.define_kernel(0xC0FFEE);
    assert!(tb
        .host
        .nic
        .regs
        .write(0xC0FFEE, 1, Some(postgres_pid))
        .is_err());
    assert!(tb.host.nic.regs.write(0xC0FFEE, 1, None).is_ok());
    assert!(tb.host.nic.regs.violations() >= 2);
}

#[test]
fn knetstat_sees_every_tenant_connection() {
    let tb = AliceTestbed::new();
    let rows = knetstat::connections(&tb.host, &Cred::root()).unwrap();
    assert_eq!(rows.len(), 4);
    let comms: Vec<&str> = rows.iter().map(|r| r.comm.as_str()).collect();
    assert!(comms.contains(&"postgres"));
    assert!(comms.contains(&"mysqld"));
    assert_eq!(rows.iter().filter(|r| r.comm == "game").count(), 2);
    // All attributed, all on the NIC fast path.
    assert!(rows.iter().all(|r| r.via == "nic"));
    assert!(rows.iter().all(|r| r.uid == BOB.0 || r.uid == CHARLIE.0));
}

#[test]
fn sniffer_uid_filter_isolates_one_tenant() {
    let mut tb = AliceTestbed::new();
    let root = Cred::root();
    ksniff::start(
        &mut tb.host,
        &root,
        SnifferFilter {
            uid: Some(CHARLIE.0),
            ..SnifferFilter::all()
        },
        Time::ZERO,
    )
    .unwrap();
    for app in [tb.postgres.clone(), tb.mysql.clone()] {
        let pkt = tb.outbound(&app, 100);
        let _ = tb.host.nic.tx_enqueue(app.conn, &pkt, Time::ZERO);
    }
    let entries = ksniff::dump(&mut tb.host, &root).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].comm.as_deref(), Some("mysqld"));
}

#[test]
fn shaping_policy_survives_policy_updates_without_drops() {
    // Install shaping, then churn the filter program mid-traffic: the
    // overlay swap must not disturb the flow.
    let mut tb = AliceTestbed::new();
    let root = Cred::root();
    kqdisc::install_wfq(
        &mut tb.host,
        &root,
        ShapingPolicy::new(vec![(BOB, 2.0), (CHARLIE, 1.0)]),
        Time::ZERO,
    )
    .unwrap();
    let frame = tb.outbound(&tb.postgres.clone(), 1000);
    let mut sent = 0;
    for i in 0..200u64 {
        let now = Time::from_us(i * 10);
        if i == 100 {
            npolicy::apply(&mut tb.host, &root, now, |p| {
                p.reservations.push(PortReservation::new(2222, BOB))
            })
            .unwrap();
        }
        if let Ok(nicsim::TxDisposition::Queued { .. }) =
            tb.host.nic.tx_enqueue(tb.postgres.conn, &frame, now)
        {
            sent += 1;
        }
        while tb.host.nic.tx_poll(now + Dur::from_us(5)).is_some() {}
    }
    assert_eq!(sent, 200, "no drops across the policy update");
}
