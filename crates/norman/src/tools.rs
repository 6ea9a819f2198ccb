//! Administrative tools: `ksniff`, `kfilter`, `kqdisc`, `knetstat`,
//! `npolicy`, `trace` (`ktrace`).
//!
//! Each tool is the Norman analogue of a classic utility (tcpdump,
//! iptables, tc, netstat) and works the way Figure 1 prescribes: the
//! tool calls into the **in-kernel control plane**, which updates the
//! on-NIC dataplane — the data path itself is never detoured. All tools
//! require privileged credentials; an unprivileged user cannot inspect
//! global traffic or rewrite policy (the isolation requirement of §3).
//!
//! Every policy-writing tool is a front-end over one transaction path:
//! [`Host::update_policy`], the two-phase epoch-versioned commit of
//! `crate::ctrl`. `npolicy` is the unified view onto that machinery —
//! the live generation number, commit/rollback/reconcile history, and a
//! whole-store apply.

use nicsim::sniff::CaptureEntry;
use nicsim::SnifferFilter;
use oskernel::Cred;
use pkt::IpProto;
use sim::Time;

use crate::host::Host;
use crate::policy::{PortReservation, ShapingPolicy};

/// Tool failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ToolError {
    /// The credentials are not privileged.
    PermissionDenied {
        /// Which tool refused.
        tool: &'static str,
    },
    /// The control plane rejected the operation.
    Control(String),
    /// The trace pipeline (collection, event file, offline report)
    /// failed.
    Trace(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::PermissionDenied { tool } => {
                write!(f, "{tool}: permission denied (requires root)")
            }
            ToolError::Control(e) => write!(f, "control plane error: {e}"),
            ToolError::Trace(e) => write!(f, "trace pipeline error: {e}"),
        }
    }
}

impl std::error::Error for ToolError {}

fn require_root(cred: &Cred, tool: &'static str) -> Result<(), ToolError> {
    if cred.is_privileged() {
        Ok(())
    } else {
        Err(ToolError::PermissionDenied { tool })
    }
}

fn control(e: impl std::fmt::Display) -> ToolError {
    ToolError::Control(e.to_string())
}

/// `ksniff` — the tcpdump equivalent, reading the NIC capture tap.
pub mod ksniff {
    use super::*;

    /// Starts capturing with `filter` (a policy commit: the tap is part
    /// of the kernel policy store and survives NIC reprograms).
    pub fn start(
        host: &mut Host,
        cred: &Cred,
        filter: SnifferFilter,
        now: Time,
    ) -> Result<(), ToolError> {
        require_root(cred, "ksniff")?;
        host.update_policy(now, |p| p.sniffer = Some(filter))
            .map(|_| ())
            .map_err(control)
    }

    /// Stops capturing.
    pub fn stop(host: &mut Host, cred: &Cred, now: Time) -> Result<(), ToolError> {
        require_root(cred, "ksniff")?;
        host.update_policy(now, |p| p.sniffer = None)
            .map(|_| ())
            .map_err(control)
    }

    /// Drains and returns captured entries.
    pub fn dump(host: &mut Host, cred: &Cred) -> Result<Vec<CaptureEntry>, ToolError> {
        require_root(cred, "ksniff")?;
        Ok(host.nic.sniffer.drain())
    }

    /// Aggregates ARP frames by originating process — the §2 debugging
    /// scenario's one-command answer to "who is flooding ARP?".
    /// Returns (comm, pid, count) sorted by count descending.
    pub fn top_arp_talkers(entries: &[CaptureEntry]) -> Vec<(String, u32, u64)> {
        use std::collections::HashMap;
        let mut counts: HashMap<(String, u32), u64> = HashMap::new();
        for e in entries.iter().filter(|e| e.is_arp) {
            let comm = e.comm.clone().unwrap_or_else(|| "<unknown>".to_string());
            let pid = e.pid.unwrap_or(0);
            *counts.entry((comm, pid)).or_insert(0) += 1;
        }
        let mut out: Vec<(String, u32, u64)> = counts
            .into_iter()
            .map(|((comm, pid), n)| (comm, pid, n))
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
        out
    }
}

/// `kfilter` — the iptables equivalent (owner-aware port policy).
pub mod kfilter {
    use super::*;

    /// Installs a port reservation (setup check + NIC dataplane filter).
    pub fn reserve(
        host: &mut Host,
        cred: &Cred,
        r: PortReservation,
        now: Time,
    ) -> Result<(), ToolError> {
        require_root(cred, "kfilter")?;
        host.update_policy(now, |p| p.reservations.push(r))
            .map(|_| ())
            .map_err(control)
    }

    /// Lists active reservations.
    pub fn list(host: &Host, cred: &Cred) -> Result<Vec<PortReservation>, ToolError> {
        require_root(cred, "kfilter")?;
        Ok(host.reservations().to_vec())
    }
}

/// `kqdisc` — the tc equivalent (per-user WFQ on the NIC scheduler).
pub mod kqdisc {
    use super::*;

    /// Installs a per-user WFQ policy.
    pub fn install_wfq(
        host: &mut Host,
        cred: &Cred,
        policy: ShapingPolicy,
        now: Time,
    ) -> Result<(), ToolError> {
        require_root(cred, "kqdisc")?;
        host.update_policy(now, |p| p.shaping = Some(policy))
            .map(|_| ())
            .map_err(control)
    }
}

/// `npolicy` — the unified policy front-end over the `crate::ctrl`
/// control plane: apply whole-store transactions, read the live
/// generation, and inspect commit/rollback/reconcile history.
pub mod npolicy {
    use super::*;
    use crate::ctrl::{CommitRecord, PolicyStore};

    /// Applies one policy transaction (two-phase commit). Returns the
    /// new generation.
    pub fn apply(
        host: &mut Host,
        cred: &Cred,
        now: Time,
        mutate: impl FnOnce(&mut PolicyStore),
    ) -> Result<u64, ToolError> {
        require_root(cred, "npolicy")?;
        host.update_policy(now, mutate).map_err(control)
    }

    /// A point-in-time view of the control plane.
    #[derive(Clone, Debug)]
    pub struct Status {
        /// The live policy generation.
        pub generation: u64,
        /// Successful commits.
        pub commits: u64,
        /// Mid-commit failures recovered by rollback.
        pub rollbacks: u64,
        /// Bundle reinstalls after bitstream reprograms.
        pub reconciles: u64,
        /// Active port reservations.
        pub reservations: usize,
        /// Whether shaping policy is in force.
        pub shaping: bool,
        /// Whether the capture tap is on.
        pub sniffer: bool,
        /// Static NAT forwards in force.
        pub nat_rules: usize,
        /// Commit history, oldest first (bounded).
        pub history: Vec<CommitRecord>,
    }

    /// Reads control-plane status.
    pub fn status(host: &Host, cred: &Cred) -> Result<Status, ToolError> {
        require_root(cred, "npolicy")?;
        let store = host.policy();
        let stats = host.ctrl().stats();
        Ok(Status {
            generation: host.policy_generation(),
            commits: stats.commits,
            rollbacks: stats.rollbacks,
            reconciles: stats.reconciles,
            reservations: store.reservations.len(),
            shaping: store.shaping.is_some(),
            sniffer: store.sniffer.is_some(),
            nat_rules: store.nat_rules.len(),
            history: host.ctrl().history().to_vec(),
        })
    }

    /// Renders status as a human-readable report.
    pub fn render(s: &Status) -> String {
        let mut out = format!(
            "generation {}  (commits {}, rollbacks {}, reconciles {})\n\
             reservations {}  shaping {}  sniffer {}  nat-rules {}\n",
            s.generation,
            s.commits,
            s.rollbacks,
            s.reconciles,
            s.reservations,
            if s.shaping { "on" } else { "off" },
            if s.sniffer { "on" } else { "off" },
            s.nat_rules,
        );
        for r in &s.history {
            out.push_str(&format!(
                "  gen {:<4} t={:<12} {:<11} {}\n",
                r.generation,
                r.at.to_string(),
                r.action.to_string(),
                r.detail
            ));
        }
        out
    }
}

/// `knetstat` — the netstat equivalent: every connection on the host
/// with process attribution, read from the NIC flow table (fast path)
/// and the kernel socket table (slow path).
pub mod knetstat {
    use super::*;

    /// One connection row.
    #[derive(Clone, Debug)]
    pub struct ConnRow {
        /// Transport protocol.
        pub(crate) proto: IpProto,
        /// Local port.
        pub(crate) local_port: u16,
        /// Owning uid.
        pub uid: u32,
        /// Owning pid.
        pub(crate) pid: u32,
        /// Owning command.
        pub comm: String,
        /// `"nic"` for fast-path connections, `"kernel"` for slow-path
        /// sockets.
        pub via: &'static str,
    }

    /// Lists all connections.
    pub fn connections(host: &Host, cred: &Cred) -> Result<Vec<ConnRow>, ToolError> {
        require_root(cred, "knetstat")?;
        let mut rows: Vec<ConnRow> = host
            .nic
            .flows
            .entries()
            .map(|e| ConnRow {
                proto: e.tuple.proto,
                local_port: e.tuple.dst_port,
                uid: e.uid,
                pid: e.pid,
                comm: e.comm.to_string(),
                via: "nic",
            })
            .collect();
        rows.extend(host.stack.socket_stats().into_iter().map(|s| ConnRow {
            proto: s.proto,
            local_port: s.port,
            uid: s.uid,
            pid: s.pid.0,
            comm: s.comm,
            via: "kernel",
        }));
        rows.sort_by_key(|r| (r.proto.0, r.local_port, r.pid));
        Ok(rows)
    }

    /// Lists the kernel ARP cache (`arp -a` / `ip neigh`): the first
    /// thing Alice inspects in the §2 debugging scenario.
    pub fn arp_cache(
        host: &Host,
        cred: &Cred,
    ) -> Result<Vec<(std::net::Ipv4Addr, oskernel::ArpEntry)>, ToolError> {
        require_root(cred, "knetstat")?;
        Ok(host.arp.entries())
    }
}

/// `trace` (`ktrace`) — the paper's missing tool: per-packet lifecycle
/// introspection across the whole dataplane with process attribution.
///
/// Where `ksniff` gives the *global view* (every frame on the wire) and
/// `knetstat` the *process view* (who owns which connection), `ktrace`
/// joins them per packet: one query shows a frame's full path — NIC
/// pipeline stages, NAT rewrites, ring DMA, notification, kernel
/// delivery — with the owning (uid, pid, comm) and per-stage timing,
/// filtered BPF-style by flow, owner, stage, or verdict.
pub mod trace {
    use super::*;
    use std::path::Path;
    use telemetry::{
        sort_file, DropCause, EventFileReader, FlowReport, FlowTracker, Header, Profile, SinkStats,
        Snapshot, SortStats, TraceEvent, TraceFilter, TrackerConfig,
    };

    fn pipeline(e: impl std::fmt::Display) -> ToolError {
        ToolError::Trace(e.to_string())
    }

    /// Starts (or restarts) lifecycle tracing.
    pub fn start(host: &mut Host, cred: &Cred) -> Result<(), ToolError> {
        require_root(cred, "ktrace")?;
        host.start_trace();
        Ok(())
    }

    /// Stops tracing; captured events stay queryable.
    pub fn stop(host: &mut Host, cred: &Cred) -> Result<(), ToolError> {
        require_root(cred, "ktrace")?;
        host.stop_trace();
        Ok(())
    }

    /// Returns every captured event matching `filter`, in emission
    /// order.
    pub fn query(
        host: &Host,
        cred: &Cred,
        filter: &TraceFilter,
    ) -> Result<Vec<TraceEvent>, ToolError> {
        require_root(cred, "ktrace")?;
        Ok(host.telemetry().query(filter))
    }

    /// Returns the full lifecycle of one frame id.
    pub fn lifecycle(
        host: &Host,
        cred: &Cred,
        frame_id: u64,
    ) -> Result<Vec<TraceEvent>, ToolError> {
        require_root(cred, "ktrace")?;
        Ok(host.telemetry().lifecycle(frame_id))
    }

    /// Returns the unified cross-layer metrics snapshot.
    pub fn metrics(host: &Host, cred: &Cred) -> Result<Snapshot, ToolError> {
        require_root(cred, "ktrace")?;
        Ok(host.metrics_snapshot())
    }

    /// `ktrace collect` — starts a durable collection under the named
    /// built-in profile (`full-lifecycle`, `drop-forensics`,
    /// `flow-churn`, `recovery`), streaming selected events into the
    /// event-series file at `path`.
    pub fn collect(
        host: &mut Host,
        cred: &Cred,
        profile_name: &str,
        path: &Path,
    ) -> Result<(), ToolError> {
        require_root(cred, "ktrace")?;
        let profile = Profile::builtin(profile_name).ok_or_else(|| {
            ToolError::Trace(format!(
                "unknown profile: {profile_name} (built-in: {})",
                Profile::builtin_names().join(", ")
            ))
        })?;
        host.start_collect(&profile, path).map_err(pipeline)
    }

    /// Ends a `ktrace collect`, closing the file cleanly (final ledger
    /// snapshot + fin record) and returning writer statistics.
    pub fn collect_stop(host: &mut Host, cred: &Cred) -> Result<SinkStats, ToolError> {
        require_root(cred, "ktrace")?;
        host.stop_collect()
            .map_err(pipeline)?
            .ok_or_else(|| ToolError::Trace("no collection is running".to_string()))
    }

    /// `ktrace sort` — rewrites a recorded file ordered by `(time, seq)`
    /// with the sorted header flag set. Entirely offline: needs only the
    /// file, no host.
    pub fn sort(input: &Path, output: &Path) -> Result<SortStats, ToolError> {
        sort_file(input, output).map_err(pipeline)
    }

    /// The offline forensic answer assembled by [`report`].
    #[derive(Clone, Debug)]
    pub struct Forensics {
        /// The recorded file's header (profile, generation, sortedness).
        pub header: Header,
        /// Per-flow drop forensics from the flow tracker.
        pub report: FlowReport,
        /// Nonzero per-cause drop totals from the file's final ledger
        /// snapshot, when the profile wrote one.
        pub ledger_drops: Option<Vec<(DropCause, u64)>>,
        /// Drop-conservation violations: causes where the ledger
        /// snapshot and the recorded events disagree (empty = every
        /// ledgered drop is accounted for in the file).
        pub conservation: Vec<String>,
    }

    /// `ktrace report` — replays a recorded file through the flow
    /// tracker and cross-checks drop conservation against the file's
    /// ledger snapshot. Entirely offline: answers "which flows dropped,
    /// where, and whose were they" from the file alone.
    pub fn report(path: &Path) -> Result<Forensics, ToolError> {
        report_with(path, TrackerConfig::default())
    }

    /// [`report`] with explicit tracker sizing (live-flow cap, idle GC
    /// horizon) for traces with huge flow churn.
    pub(crate) fn report_with(path: &Path, cfg: TrackerConfig) -> Result<Forensics, ToolError> {
        let mut reader = EventFileReader::open(path).map_err(pipeline)?;
        let header = reader.header.clone();
        let (tracker, ledger) = FlowTracker::from_reader(&mut reader, cfg).map_err(pipeline)?;
        let report = tracker.report();
        let mut conservation = Vec::new();
        let ledger_drops = ledger.as_ref().map(|l| {
            for cause in DropCause::ALL {
                let want = l.drop_counts[cause.index()];
                let got = tracker.drops_by_cause(cause);
                if want != got {
                    conservation.push(format!(
                        "drop conservation: {} — ledger {want} != recorded events {got}",
                        cause.name()
                    ));
                }
            }
            DropCause::ALL
                .iter()
                .filter(|c| l.drop_counts[c.index()] != 0)
                .map(|c| (*c, l.drop_counts[c.index()]))
                .collect()
        });
        Ok(Forensics {
            header,
            report,
            ledger_drops,
            conservation,
        })
    }

    /// Renders a [`Forensics`] for terminal output.
    pub fn render_report(f: &Forensics) -> String {
        let mut out = format!(
            "profile {} (generation {}, {})\n",
            f.header.profile,
            f.header.generation,
            if f.header.sorted {
                "sorted"
            } else {
                "unsorted"
            }
        );
        out.push_str(&f.report.render());
        match (&f.ledger_drops, f.conservation.is_empty()) {
            (Some(_), true) => out.push_str("drop conservation: ok (ledger == recorded events)\n"),
            (Some(_), false) => {
                for v in &f.conservation {
                    out.push_str(&format!("VIOLATION: {v}\n"));
                }
            }
            (None, _) => out.push_str("drop conservation: no ledger snapshot in file\n"),
        }
        out
    }

    /// Renders events as a human-readable trace, one line per stage,
    /// with the virtual-time delta from the previous stage of the *same
    /// frame* in the right-hand column.
    pub fn render(events: &[TraceEvent]) -> String {
        use std::collections::HashMap;
        let mut out = String::from(
            "frame     time_us      stage             verdict       owner              +delta_ns\n",
        );
        let mut last_at: HashMap<u64, sim::Time> = HashMap::new();
        for e in events {
            let delta = last_at
                .get(&e.frame_id)
                .map(|&prev| format!("{:+.1}", (e.at.0.saturating_sub(prev.0)) as f64 / 1000.0))
                .unwrap_or_else(|| "-".to_string());
            last_at.insert(e.frame_id, e.at);
            let owner = e
                .owner
                .as_ref()
                .map(|o| format!("{}/{}({})", o.uid, o.pid, o.comm))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<9} {:<12.3} {:<17} {:<13} {:<18} {}\n",
                e.frame_id,
                e.at.0 as f64 / 1e6,
                e.stage.name(),
                e.verdict.to_string(),
                owner,
                delta
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostConfig;
    use oskernel::Uid;
    use pkt::{Mac, PacketBuilder};
    use std::net::Ipv4Addr;

    fn host_with_conn() -> (Host, oskernel::Pid) {
        let mut h = Host::new(HostConfig::default());
        let bob = h.spawn(Uid(1001), "bob", "postgres");
        h.connect(
            bob,
            IpProto::UDP,
            5432,
            Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
        (h, bob)
    }

    #[test]
    fn unprivileged_users_are_refused_everywhere() {
        let (mut h, _) = host_with_conn();
        let bob = Cred::new(Uid(1001), "bob");
        assert_eq!(
            ksniff::start(&mut h, &bob, SnifferFilter::all(), Time::ZERO),
            Err(ToolError::PermissionDenied { tool: "ksniff" })
        );
        assert!(kfilter::list(&h, &bob).is_err());
        assert!(knetstat::connections(&h, &bob).is_err());
        assert!(npolicy::status(&h, &bob).is_err());
    }

    #[test]
    fn knetstat_lists_fast_path_connections_with_attribution() {
        let (h, _) = host_with_conn();
        let rows = knetstat::connections(&h, &Cred::root()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].local_port, 5432);
        assert_eq!(rows[0].comm, "postgres");
        assert_eq!(rows[0].uid, 1001);
        assert_eq!(rows[0].via, "nic");
    }

    #[test]
    fn ksniff_captures_with_attribution_via_control_plane() {
        let (mut h, _) = host_with_conn();
        let root = Cred::root();
        ksniff::start(&mut h, &root, SnifferFilter::all(), Time::ZERO).unwrap();
        let pkt = PacketBuilder::new()
            .ether(Mac::local(9), h.cfg.mac)
            .ipv4(Ipv4Addr::new(10, 0, 0, 2), h.cfg.ip)
            .udp(9000, 5432, b"query")
            .build();
        h.deliver_from_wire(&pkt, Time::ZERO);
        let entries = ksniff::dump(&mut h, &root).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].comm.as_deref(), Some("postgres"));
        ksniff::stop(&mut h, &root, Time::ZERO).unwrap();
    }

    #[test]
    fn top_arp_talkers_ranks_flooders() {
        use nicsim::sniff::Direction;
        let mk = |comm: &str, pid: u32, is_arp: bool| CaptureEntry {
            at: Time::ZERO,
            direction: Direction::Tx,
            len: 42,
            tuple: None,
            is_arp,
            summary: String::new(),
            uid: Some(1001),
            pid: Some(pid),
            comm: Some(comm.to_string()),
        };
        let mut entries = Vec::new();
        for _ in 0..50 {
            entries.push(mk("flooder", 99, true));
        }
        for _ in 0..3 {
            entries.push(mk("innocent", 7, true));
        }
        entries.push(mk("tcp-app", 8, false));
        let top = ksniff::top_arp_talkers(&entries);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], ("flooder".to_string(), 99, 50));
        assert_eq!(top[1], ("innocent".to_string(), 7, 3));
    }

    #[test]
    fn knetstat_arp_view_requires_root_and_lists_entries() {
        let (mut h, _) = host_with_conn();
        // Learn a neighbour through the kernel responder.
        let req =
            pkt::PacketBuilder::arp_request(Mac::local(9), Ipv4Addr::new(10, 0, 0, 2), h.cfg.ip);
        h.deliver_from_wire(&req, Time::ZERO);
        let rows = knetstat::arp_cache(&h, &Cred::root()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Ipv4Addr::new(10, 0, 0, 2));
        assert!(knetstat::arp_cache(&h, &Cred::new(Uid(1001), "bob")).is_err());
    }

    #[test]
    fn ktrace_requires_root_and_traces_a_lifecycle() {
        use telemetry::{Stage, TraceFilter};
        let (mut h, _) = host_with_conn();
        let bob = Cred::new(Uid(1001), "bob");
        assert_eq!(
            trace::start(&mut h, &bob),
            Err(ToolError::PermissionDenied { tool: "ktrace" })
        );
        let root = Cred::root();
        trace::start(&mut h, &root).unwrap();
        let pkt = PacketBuilder::new()
            .ether(Mac::local(9), h.cfg.mac)
            .ipv4(Ipv4Addr::new(10, 0, 0, 2), h.cfg.ip)
            .udp(9000, 5432, b"query")
            .build();
        h.deliver_from_wire(&pkt, Time::ZERO);
        // Owner filter: everything postgres touched.
        let events = trace::query(&h, &root, &TraceFilter::any().with_comm("postgres")).unwrap();
        assert!(!events.is_empty());
        // The frame's lifecycle runs ingress → ring enqueue.
        let fid = events[0].frame_id;
        let life = trace::lifecycle(&h, &root, fid).unwrap();
        let stages: Vec<Stage> = life.iter().map(|e| e.stage).collect();
        assert_eq!(stages.first(), Some(&Stage::RxIngress));
        assert_eq!(stages.last(), Some(&Stage::RingEnqueue));
        let table = trace::render(&life);
        assert!(table.contains("rx_ingress"));
        assert!(table.contains("ring_enqueue"));
        // Unified metrics include NIC counters and trace ledger keys.
        let snap = trace::metrics(&h, &root).unwrap();
        assert_eq!(snap.counter("nic.rx.frames"), Some(1));
        assert_eq!(snap.counter("trace.stage.rx_ingress"), Some(1));
        assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
    }

    #[test]
    fn ktrace_collect_sort_report_offline_forensics() {
        use telemetry::{DropCause, Stage};
        let (mut h, _) = host_with_conn();
        let root = Cred::root();
        let dir = std::env::temp_dir().join("norman_ktrace_forensics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("run.ntrace");
        let sorted = dir.join("run.sorted.ntrace");

        // Unknown profiles and unprivileged users are refused up front.
        let bob = Cred::new(Uid(1001), "bob");
        assert_eq!(
            trace::collect(&mut h, &bob, "drop-forensics", &raw),
            Err(ToolError::PermissionDenied { tool: "ktrace" })
        );
        match trace::collect(&mut h, &root, "no-such-profile", &raw) {
            Err(ToolError::Trace(msg)) => assert!(msg.contains("unknown profile")),
            other => panic!("expected trace error, got {other:?}"),
        }

        // Record: overrun the 2-slot ring so RingFull drops land in the
        // file with postgres attribution.
        trace::collect(&mut h, &root, "drop-forensics", &raw).unwrap();
        for i in 0..10u64 {
            let pkt = PacketBuilder::new()
                .ether(Mac::local(9), h.cfg.mac)
                .ipv4(Ipv4Addr::new(10, 0, 0, 2), h.cfg.ip)
                .udp(9000, 5432, b"query")
                .build();
            h.deliver_from_wire(&pkt, Time(i * 1_000_000));
        }
        let ring_drops = h.stats().ring_drops;
        assert!(ring_drops > 0, "overrun did not fill the ring");
        assert!(h.audit().is_empty(), "audit: {:?}", h.audit());
        let stats = trace::collect_stop(&mut h, &root).unwrap();
        assert!(stats.events > 0);
        assert_eq!(
            trace::collect_stop(&mut h, &root),
            Err(ToolError::Trace("no collection is running".to_string()))
        );

        // Offline from here on: sort, then report from the file alone.
        let sstats = trace::sort(&raw, &sorted).unwrap();
        assert_eq!(sstats.events, stats.events);
        let f = trace::report(&sorted).unwrap();
        assert!(f.header.sorted);
        assert_eq!(f.header.profile, "drop-forensics");
        assert!(
            f.conservation.is_empty(),
            "conservation violations: {:?}",
            f.conservation
        );
        assert_eq!(f.report.total_drops, ring_drops);
        // The top drop site names the stage, cause, flow, and owner.
        let site = &f.report.sites[0];
        assert_eq!(site.stage, Stage::RingEnqueue);
        assert_eq!(site.cause, DropCause::RingFull);
        assert_eq!(site.count, ring_drops);
        assert_eq!(site.tuple.dst_port, 5432);
        let owner = site.owner.as_ref().expect("drop site is attributed");
        assert_eq!(owner.uid, 1001);
        assert_eq!(owner.comm, "postgres");
        assert_eq!(f.report.owners[0].drops, ring_drops);
        let rendered = trace::render_report(&f);
        assert!(rendered.contains("drop conservation: ok"));
        assert!(rendered.contains("postgres"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kfilter_roundtrip() {
        let (mut h, _) = host_with_conn();
        let root = Cred::root();
        kfilter::reserve(
            &mut h,
            &root,
            PortReservation::new(5432, Uid(1001)),
            Time::ZERO,
        )
        .unwrap();
        let rules = kfilter::list(&h, &root).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].port, 5432);
    }

    #[test]
    fn kqdisc_installs_and_reports() {
        let (mut h, _) = host_with_conn();
        let root = Cred::root();
        kqdisc::install_wfq(
            &mut h,
            &root,
            ShapingPolicy::new(vec![(Uid(1001), 2.0)]),
            Time::ZERO,
        )
        .unwrap();
        assert_eq!(h.nic.scheduler_class_bytes().len(), 2);
    }

    #[test]
    fn npolicy_reports_generation_and_history() {
        let (mut h, _) = host_with_conn();
        let root = Cred::root();
        npolicy::apply(&mut h, &root, Time::ZERO, |p| {
            p.reservations.push(PortReservation::new(5432, Uid(1001)));
        })
        .unwrap();
        npolicy::apply(&mut h, &root, Time::from_us(5), |p| {
            p.shaping = Some(ShapingPolicy::new(vec![(Uid(1001), 2.0)]));
        })
        .unwrap();
        let s = npolicy::status(&h, &root).unwrap();
        assert_eq!(s.generation, 2);
        assert_eq!(s.commits, 2);
        assert_eq!(s.rollbacks, 0);
        assert_eq!(s.reservations, 1);
        assert!(s.shaping);
        assert_eq!(s.history.len(), 2);
        let report = npolicy::render(&s);
        assert!(report.contains("generation 2"));
        assert!(report.contains("committed"));
    }
}
