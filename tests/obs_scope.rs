//! `Obs` scopes keep runs apart: two pipelines on concurrent threads,
//! each under its own handle, each reconcile exactly against their own
//! run, and a third run with no scope records into neither. A thread
//! with no scope follows the global slot instead, which is what a
//! harness that installs one recorder around a daemon's jobs relies on.
//!
//! The global slot is process-wide, so the one test here is the only
//! code in this binary that records without a scope.

use reuselens::core::{analyze_buffer, capture_program};
use reuselens::obs::{self, Counter, MetricsRecorder, Obs};
use reuselens::serve::{Daemon, DaemonConfig};
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig};
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

/// Captures `w` and replays the trace at every grain on the calling
/// thread's scope; returns the captured event count.
fn pipeline(w: &BuiltWorkload, grains: &[u64], start: &Barrier) -> u64 {
    start.wait();
    let (buffer, _exec) = capture_program(&w.program, w.index_arrays.clone()).expect("capture");
    analyze_buffer(&w.program, &buffer, grains).expect("replay");
    buffer.stats().events
}

/// Sends one ping over a fresh connection and checks the reply.
fn ping(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"kind\":\"ping\"}\n").expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    assert!(reply.contains("\"pong\":true"), "{reply}");
}

fn assert_reconciles(recorder: &MetricsRecorder, grains: usize, events: u64) {
    let grains = grains as u64;
    assert_eq!(recorder.counter(Counter::GrainsRequested), grains);
    assert_eq!(recorder.counter(Counter::GrainsCompleted), grains);
    assert_eq!(recorder.counter(Counter::EventsCaptured), events);
    assert_eq!(recorder.counter(Counter::EventsDecoded), grains * events);
}

#[test]
fn scopes_isolate_concurrent_runs_and_unscoped_threads_follow_the_global_slot() {
    let sweep = build_sweep(&SweepConfig::new(6));
    let gtc = build_gtc(&GtcConfig::new(128, 4));
    let (grains_a, grains_b) = ([64, 128, 4096], [64, 16384]);
    let a = Arc::new(MetricsRecorder::new());
    let b = Arc::new(MetricsRecorder::new());
    let (scope_a, scope_b) = (Obs::from(a.clone()), Obs::from(b.clone()));
    let start = &Barrier::new(3);
    let (events_a, events_b) = std::thread::scope(|s| {
        let run_a = s.spawn(|| {
            let _scope = scope_a.enter();
            pipeline(&sweep, &grains_a, start)
        });
        let run_b = s.spawn(|| {
            let _scope = scope_b.enter();
            pipeline(&gtc, &grains_b, start)
        });
        // The same pipeline as `run_a`, with no scope.
        s.spawn(|| pipeline(&sweep, &grains_a, start));
        (run_a.join().expect("run a"), run_b.join().expect("run b"))
    });
    assert_reconciles(&a, grains_a.len(), events_a);
    assert_reconciles(&b, grains_b.len(), events_b);

    // A daemon started with no scope: its workers and connection threads
    // follow the global slot, so only the job sent while a recorder is
    // installed is counted.
    let dir = std::env::temp_dir().join(format!("reuselens-obs-scope-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Arc::new(Daemon::start(DaemonConfig::new(&dir)).expect("start daemon"));
    let addr = daemon.serve("127.0.0.1:0").expect("bind");
    ping(addr); // warm-up: nothing installed
    let global = Arc::new(MetricsRecorder::new());
    assert!(obs::install(global.clone()).is_none());
    ping(addr);
    obs::uninstall();
    ping(addr);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(global.counter(Counter::JobsAccepted), 1);
    assert_eq!(global.counter(Counter::JobsCompleted), 1);
}
