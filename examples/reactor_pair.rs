//! Two-process reactor deployment: the cross-host smoke test.
//!
//! Runs the same 3-process two-bit register configuration as the
//! quickstart, but split across **two OS processes** wired over real TCP
//! through the reactor transport's listen/join protocol — the shape a
//! genuine multi-host deployment has, compressed onto localhost so CI can
//! run it:
//!
//! ```text
//! reactor_pair left  <dir>   # hosts p0 (the writer)
//! reactor_pair right <dir>   # hosts p1, p2 (the readers)
//! ```
//!
//! Start both (either order); they exchange their OS-assigned port-0
//! listener addresses through files in `<dir>`, join, and run a
//! write/poll-read workload across the process boundary. Each side then
//! verifies its own half: the writer that all writes completed and its
//! links drained un-abandoned, the readers that they observed the final
//! value and every frame reconciled. Exit status is the verdict.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use twobit::{Driver, ProcessId, ReactorNodeBuilder, RegisterId, SystemConfig, TwoBitProcess};

const ROUNDS: u64 = 20;

fn write_file_atomic(path: &Path, contents: &str) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).expect("write rendezvous file");
    std::fs::rename(&tmp, path).expect("publish rendezvous file");
}

fn await_file(path: &Path, deadline: Instant) -> String {
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.trim().is_empty() {
                return s.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let role = args.next().unwrap_or_default();
    let dir = PathBuf::from(args.next().unwrap_or_else(|| ".".into()));
    assert!(
        matches!(role.as_str(), "left" | "right"),
        "usage: reactor_pair <left|right> <rendezvous-dir>"
    );
    let deadline = Instant::now() + Duration::from_secs(60);

    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let reg = RegisterId::ZERO;
    let make = move |_reg: RegisterId, id: ProcessId| TwoBitProcess::new(id, cfg, writer, 0u64);

    // Phase 1: bind (port 0 — the OS picks), publish the bound address,
    // read the peer's. This is the listen/join split working for real:
    // neither process knows the other's port until the file appears.
    let hosted: &[usize] = if role == "left" { &[0] } else { &[1, 2] };
    let listening = ReactorNodeBuilder::new(cfg)
        .host(hosted.iter().copied())
        .pool_size(2)
        .op_timeout(Duration::from_secs(30))
        .listen("127.0.0.1:0")
        .expect("bind an ephemeral loopback port");
    write_file_atomic(
        &dir.join(format!("{role}.addr")),
        &listening.local_addr().to_string(),
    );
    let peer_role = if role == "left" { "right" } else { "left" };
    let peer_addr: SocketAddr = await_file(&dir.join(format!("{peer_role}.addr")), deadline)
        .parse()
        .expect("peer published a valid address");

    // Phase 2: join. Every process not hosted here lives at the peer.
    let peers: HashMap<ProcessId, SocketAddr> = (0..3)
        .filter(|i| !hosted.contains(i))
        .map(|i| (ProcessId::new(i), peer_addr))
        .collect();
    let mut node = listening.join(&peers, 0u64, make).expect("join the mesh");

    if role == "left" {
        // The writer: every write needs a majority ack, and the other two
        // processes live across the process boundary — each completed
        // write proves the cross-process links both ways.
        for v in 1..=ROUNDS {
            node.write(writer, reg, v).expect("cross-process write");
        }
        // Hold the node up until the readers are done with us, then let
        // the drain protocol settle the trailing acks.
        await_file(&dir.join("right.done"), deadline);
        let (history, stats) = node.shutdown();
        assert_eq!(history.total_ops() as u64, ROUNDS, "all writes recorded");
        assert_eq!(stats.links_abandoned(), 0, "left drained cleanly");
        assert!(stats.wire_bytes() > 0, "left sent real bytes");
        write_file_atomic(&dir.join("left.done"), "ok");
        println!(
            "left ok: {ROUNDS} writes, {} bytes on the wire, {} threads",
            stats.wire_bytes(),
            node_threads(hosted.len())
        );
    } else {
        // The readers: poll p1 until the final value lands, then confirm
        // p2 agrees (a second independent reader of the same register).
        let mut seen = 0u64;
        loop {
            let v = node
                .read(ProcessId::new(1), reg)
                .expect("cross-process read");
            assert!(v >= seen, "register went backwards: {v} < {seen}");
            seen = v;
            if seen == ROUNDS {
                break;
            }
            assert!(Instant::now() < deadline, "never observed the final write");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            node.read(ProcessId::new(2), reg).expect("second reader"),
            ROUNDS
        );
        write_file_atomic(&dir.join("right.done"), "ok");
        // Let the writer begin its drain first (the realistic teardown
        // order: a peer disappears while this node is still up).
        await_file(&dir.join("left.done"), deadline);
        let (history, stats) = node.shutdown();
        assert!(history.total_ops() >= 2, "reads recorded");
        assert_eq!(stats.links_abandoned(), 0, "right drained cleanly");
        assert!(stats.wire_bytes() > 0, "right sent real bytes");
        println!(
            "right ok: final value {seen} observed, {} bytes on the wire, {} threads",
            stats.wire_bytes(),
            node_threads(hosted.len())
        );
    }
}

/// min(pool(2), procs) + dialer — the flat thread budget each side runs.
fn node_threads(hosted: usize) -> usize {
    hosted.min(2) + 1
}
