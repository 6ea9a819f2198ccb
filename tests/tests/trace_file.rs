//! The durable event-series format, exercised against a *real* recorded
//! run rather than hand-built records: a traced host under ring
//! overload records to disk through `ktrace collect`, a policy commit
//! bumps the generation mid-recording, and the file is then read back,
//! sorted, damaged, and seeked entirely offline.
//!
//! Format-level unit tests (exact corruption offsets, version checks)
//! live in `telemetry::file`; these tests pin the end-to-end contract:
//! what the dataplane wrote is what post-hoc tooling reads.

use std::net::Ipv4Addr;

use norman::tools::trace as ktrace;
use norman::{Host, HostConfig, PortReservation, Stage};
use oskernel::{Cred, Uid};
use pkt::{IpProto, Mac, PacketBuilder};
use sim::{Dur, Time};
use telemetry::file::{EventSeries, FileError};

const GAP: Dur = Dur(1_000_000);

/// Records a short overload run under the `full-lifecycle` profile with
/// a mid-run policy commit, returning the scratch dir and recorded path.
fn record_run(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("norman_trace_file_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ntrace");

    let mut host = Host::new(HostConfig::default()); // ring_slots: 2
    let bob = host.spawn(Uid(1001), "bob", "postgres");
    let conn = host
        .connect(
            bob,
            IpProto::UDP,
            5432,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    let root = Cred::root();
    ktrace::collect(&mut host, &root, "full-lifecycle", &path).unwrap();

    let pkt = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp(9000, 5432, &[0u8; 256])
        .build();
    for i in 0..40u64 {
        let t = Time::ZERO + GAP * i;
        if i == 20 {
            // A policy commit mid-recording: subsequent events carry the
            // next generation, so one file spans a generation boundary.
            host.update_policy(t, |p| {
                p.reservations.push(PortReservation::new(5432, Uid(1001)))
            })
            .unwrap();
        }
        host.deliver_from_wire(&pkt, t);
        if i % 4 == 3 {
            let _ = host.app_recv(conn, t, false);
        }
    }
    ktrace::collect_stop(&mut host, &root).unwrap();
    (dir, path)
}

#[test]
fn recorded_run_round_trips_with_generation_boundary() {
    let (dir, path) = record_run("roundtrip");
    let series = EventSeries::load(&path).unwrap();
    assert_eq!(series.header.profile, "full-lifecycle");
    assert!(!series.header.sorted, "raw recording is in write order");
    assert!(series.fin.is_some(), "cleanly closed file carries a fin");
    assert!(!series.events.is_empty());

    // The mid-run commit split the recording across two policy epochs.
    let generations: std::collections::BTreeSet<u64> =
        series.events.iter().map(|e| e.event.generation).collect();
    assert!(
        generations.len() >= 2,
        "expected a generation boundary, got {generations:?}"
    );
    // Write order means monotone sequence numbers and a full lifecycle:
    // ingress events and the ring stages all present.
    let mut last_seq = None;
    for e in &series.events {
        assert!(last_seq.is_none_or(|s| e.seq > s), "seq must be monotone");
        last_seq = Some(e.seq);
    }
    for stage in [Stage::RxIngress, Stage::RingEnqueue, Stage::RingDequeue] {
        assert!(
            series.events.iter().any(|e| e.event.stage == stage),
            "no {} event in recording",
            stage.name()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sort_orders_by_time_then_seq_across_generations() {
    let (dir, path) = record_run("sort");
    let sorted_path = dir.join("run.sorted.ntrace");
    let raw = EventSeries::load(&path).unwrap();
    let stats = ktrace::sort(&path, &sorted_path).unwrap();
    assert_eq!(stats.events as usize, raw.events.len());

    let sorted = EventSeries::load(&sorted_path).unwrap();
    assert!(sorted.header.sorted, "sorted flag must be set");
    assert_eq!(sorted.header.generation, raw.header.generation);
    assert_eq!(sorted.events.len(), raw.events.len());
    // Total order (at, seq); equal timestamps keep write order, which
    // holds even where the stream crosses the generation boundary.
    for w in sorted.events.windows(2) {
        assert!(
            (w[0].event.at, w[0].seq) < (w[1].event.at, w[1].seq),
            "sort must be a stable total order"
        );
    }
    // Sorting rearranges, never drops: same multiset of seqs.
    let mut raw_seqs: Vec<u64> = raw.events.iter().map(|e| e.seq).collect();
    let mut sorted_seqs: Vec<u64> = sorted.events.iter().map(|e| e.seq).collect();
    raw_seqs.sort_unstable();
    sorted_seqs.sort_unstable();
    assert_eq!(raw_seqs, sorted_seqs);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_recording_is_rejected_with_typed_error() {
    let (dir, path) = record_run("trunc");
    let bytes = std::fs::read(&path).unwrap();
    // Chop mid-record (the fin record's tail among others): a recorder
    // that died mid-write must surface as Truncated, not a panic or a
    // silently short series.
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    match EventSeries::load(&path) {
        Err(FileError::Truncated { offset }) => {
            assert!(offset < bytes.len() as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_recording_is_rejected_with_typed_error() {
    let (dir, path) = record_run("corrupt");
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte in the middle of the stream. Depending on whether it
    // lands in a payload (checksum mismatch), a length prefix (oversized
    // or short record), or a kind tag, the reader reports Corrupt or
    // Truncated — always a typed error, never garbage events.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match EventSeries::load(&path) {
        Err(FileError::Corrupt { .. }) | Err(FileError::Truncated { .. }) => {}
        Ok(series) => {
            // A flip inside string padding can escape the checksum only
            // if the checksum itself was flipped consistently — not
            // possible with one bit — so loading must have failed.
            panic!(
                "corrupt file loaded cleanly with {} events",
                series.events.len()
            );
        }
        Err(other) => panic!("expected Corrupt/Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
