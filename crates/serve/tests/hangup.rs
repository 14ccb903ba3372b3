//! A peer that hangs up while its answers are pending leaves the event
//! loop idle: epoll reports a hang-up whatever the interest, so a
//! connection that wants neither input nor output must leave the poller
//! until a completion needs it. (A test binary of its own: it reads the
//! CPU time of the whole process, so no other test may run beside it.)

mod common;

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use common::{distinct_job, gated_engine, Gate};
use rect_addr_serve::{connect, serve_socket_event, BindAddr, Service, ServiceConfig};

/// User plus system CPU time of the whole process, in the clock ticks of
/// `/proc/self/stat` (100 per second on Linux).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // utime and stime are fields 14 and 15: the 12th and 13th after the
    // parenthesized command name.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn hung_up_peer_leaves_the_loop_idle() {
    let gate = Gate::new();
    let service = Arc::new(Service::new(
        gated_engine(&gate, 1),
        ServiceConfig {
            queue_depth: 8,
            persist: None,
        },
    ));
    let path = std::env::temp_dir().join(format!("rect-addr-hangup-{}.sock", std::process::id()));
    let mut server = serve_socket_event(Arc::clone(&service), &BindAddr::Unix(path)).unwrap();

    let mut stream = connect(server.local_addr()).unwrap();
    let line = format!("{}\n", distinct_job("held", 0).to_json_line());
    stream.write_all(line.as_bytes()).unwrap();
    gate.wait_started(1);
    drop(stream);
    // Let the loop read the end of input before the measurement starts.
    std::thread::sleep(Duration::from_millis(50));
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_millis(300));
    let spent = cpu_ticks() - before;

    gate.open();
    server.shutdown();
    server.join().unwrap();
    assert!(
        spent < 10,
        "the loop burned {spent} ticks of 10 ms over 300 ms after the peer hung up"
    );
}
