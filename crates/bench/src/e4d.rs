//! E4d — the QoS scenario: shaping the game without touching ports.
//!
//! Paper anchor (§2, QoS): Bob and Charlie "SSH into the server to play
//! an online-multiplayer game, and \[Alice\] decides to apply traffic
//! shaping to the game's network bandwidth, so that more productive
//! applications are unaffected … the game server uses different ports in
//! each session, hence one cannot simply set a policy [by port].
//! Applications cannot individually enforce any work-conserving shaping
//! policy (such as weighted fair queuing) without viewing all rates from
//! all competing traffic sources."
//!
//! On the testbed, the productive apps (postgres, mysql) and both game
//! clients all offer saturating load. Alice installs per-user WFQ with
//! the games de-prioritized 8:1. We measure egress byte shares with and
//! without the policy, and show work conservation when the games go
//! idle.

use norman::policy::ShapingPolicy;
use norman::tools::kqdisc;
use oskernel::{Cred, Uid};
use serde::Serialize;
use sim::{Dur, Time};
use workloads::{AliceTestbed, TenantApp};

use crate::{claim, Mode, Outcome};

#[derive(Serialize)]
struct Row {
    config: &'static str,
    productive_share: f64,
    game_share: f64,
    total_gbps: f64,
}

/// Game traffic gets its own "user" class by running the game under a
/// dedicated uid via cgroup/net_cls in real life; here Alice keys the
/// policy on the game processes' effective class uid. To stay faithful
/// to "ports change every session", the policy never mentions ports.
const GAME_CLASS_UID: Uid = Uid(900);

fn drive(tb: &mut AliceTestbed, seconds: u64) -> (u64, u64) {
    // All four apps keep their TX queues backlogged; the NIC scheduler
    // decides who gets the wire.
    let apps: Vec<TenantApp> = vec![
        tb.postgres.clone(),
        tb.mysql.clone(),
        tb.bob_game.clone(),
        tb.charlie_game.clone(),
    ];
    let frames: Vec<pkt::Packet> = apps.iter().map(|a| tb.outbound(a, 1458)).collect();
    let mut inflight: std::collections::HashMap<nicsim::ConnId, usize> =
        apps.iter().map(|a| (a.conn, 0)).collect();
    let mut productive = 0u64;
    let mut game = 0u64;
    let mut now = Time::ZERO;
    let end = Time::from_secs(seconds);
    while now < end {
        // Every app keeps up to 16 of its own frames queued (backlogged
        // sources), so the scheduler — not arrival order — picks shares.
        for (app, frame) in apps.iter().zip(&frames) {
            while inflight[&app.conn] < 16 {
                match tb.host.nic.tx_enqueue(app.conn, frame, now) {
                    Ok(nicsim::TxDisposition::Queued { .. }) => {
                        *inflight.get_mut(&app.conn).unwrap() += 1;
                    }
                    _ => break,
                }
            }
        }
        match tb.host.nic.tx_poll(now) {
            Some(dep) => {
                if let Some(n) = inflight.get_mut(&dep.conn) {
                    *n -= 1;
                }
                let is_game = dep.conn == tb.bob_game.conn || dep.conn == tb.charlie_game.conn;
                if is_game {
                    game += u64::from(dep.len);
                } else {
                    productive += u64::from(dep.len);
                }
            }
            None => {
                now = tb
                    .host
                    .nic
                    .tx_next_ready(now)
                    .unwrap_or(now + Dur::from_us(1))
                    .max(now + Dur::from_ps(1));
            }
        }
    }
    (productive, game)
}

fn run_shaping(shaped: bool) -> Row {
    let mut tb = AliceTestbed::new();
    if shaped {
        // Alice moves the game processes into the game cgroup/uid class
        // and installs 8:1 WFQ: productive users (Bob, Charlie) get
        // weight 4 each, the game class weight 1.
        for pid in [tb.bob_game.pid, tb.charlie_game.pid] {
            tb.host.procs.get_mut(pid).unwrap().cred.uid = GAME_CLASS_UID;
        }
        // Rebind the game connections so the NIC flow table carries the
        // new class uid (in real Norman the cgroup move re-attributes the
        // flows via the control plane).
        let bob_game = tb.bob_game.clone();
        let charlie_game = tb.charlie_game.clone();
        for app in [&bob_game, &charlie_game] {
            tb.host.close(app.conn);
        }
        let reopen = |app: &TenantApp, tb: &mut AliceTestbed| {
            tb.host
                .connect(
                    app.pid,
                    pkt::IpProto::UDP,
                    app.port,
                    tb.peer_ip,
                    9000 + app.port,
                    false,
                )
                .unwrap()
        };
        tb.bob_game.conn = reopen(&bob_game, &mut tb);
        tb.charlie_game.conn = reopen(&charlie_game, &mut tb);
        kqdisc::install_wfq(
            &mut tb.host,
            &Cred::root(),
            ShapingPolicy::new(vec![
                (workloads::BOB, 4.0),
                (workloads::CHARLIE, 4.0),
                (GAME_CLASS_UID, 1.0),
            ]),
            Time::ZERO,
        )
        .unwrap();
    }
    let secs = 1;
    let (productive, game) = drive(&mut tb, secs);
    let total = productive + game;
    Row {
        config: if shaped {
            "kopi-wfq (8:1)"
        } else {
            "no shaping (fifo)"
        },
        productive_share: productive as f64 / total as f64,
        game_share: game as f64 / total as f64,
        total_gbps: total as f64 * 8.0 / secs as f64 / 1e9,
    }
}

/// Work conservation: with the games idle, the productive apps take the
/// whole link despite the WFQ weights.
fn run_work_conserving() -> Row {
    let mut tb = AliceTestbed::new();
    kqdisc::install_wfq(
        &mut tb.host,
        &Cred::root(),
        ShapingPolicy::new(vec![
            (workloads::BOB, 4.0),
            (workloads::CHARLIE, 4.0),
            (GAME_CLASS_UID, 1.0),
        ]),
        Time::ZERO,
    )
    .unwrap();
    let apps = [tb.postgres.clone(), tb.mysql.clone()];
    let frames: Vec<pkt::Packet> = apps.iter().map(|a| tb.outbound(a, 1458)).collect();
    let mut productive = 0u64;
    let mut now = Time::ZERO;
    let end = Time::from_secs(1);
    while now < end {
        for (app, frame) in apps.iter().zip(&frames) {
            while tb.host.nic.tx_backlog() < 64 {
                let _ = tb.host.nic.tx_enqueue(app.conn, frame, now);
            }
        }
        match tb.host.nic.tx_poll(now) {
            Some(dep) => productive += u64::from(dep.len),
            None => {
                now = tb
                    .host
                    .nic
                    .tx_next_ready(now)
                    .unwrap_or(now + Dur::from_us(1))
                    .max(now + Dur::from_ps(1));
            }
        }
    }
    Row {
        config: "wfq, games idle",
        productive_share: 1.0,
        game_share: 0.0,
        total_gbps: productive as f64 * 8.0 / 1e9,
    }
}

pub(crate) fn run(_: Mode) -> Outcome {
    let rows = vec![run_shaping(false), run_shaping(true), run_work_conserving()];
    let [unshaped, shaped, conserving] = [&rows[0], &rows[1], &rows[2]];
    let claims = vec![
        // Without shaping the game takes about its offered share (2 of 4
        // backlogged apps).
        claim(
            "e4d/unshaped-game-near-half",
            (0.35..0.65).contains(&unshaped.game_share),
        ),
        // With 8:1 WFQ the game class gets ~1/9.
        claim("e4d/wfq-pins-the-game", shaped.game_share < 0.15),
        claim(
            "e4d/productive-traffic-unaffected",
            shaped.productive_share > 0.85,
        ),
        // Idle games leave the full link to the others.
        claim(
            "e4d/work-conserving",
            conserving.total_gbps > 0.95 * unshaped.total_gbps,
        ),
    ];
    Outcome::new(&rows, claims)
}
