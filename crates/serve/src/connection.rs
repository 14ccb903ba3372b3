//! One protocol connection over any `BufRead`/`Write` pair — the CLI's
//! stdin/stdout, a file, in-memory buffers.
//!
//! [`serve_connection`] drives a protocol [`Session`] (framing, v1/v2
//! dispatch, tallies, trailer) and only moves bytes. A reader thread
//! feeds each input chunk to the session in place, so a job goes from the
//! input straight to the queue, and a v1 job blocked on a full queue
//! ([`Backpressure::Block`]) stalls the input. The calling thread hands
//! the session every worker completion and writes each line it produces,
//! with a flush after every line — so an input that stays open and idle
//! still gets its answers.

use std::io::{self, BufRead, Write};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};

use crate::service::{OutEvent, ResponseSink, Service};
use crate::session::{Backpressure, ConnectionSummary, Session};

/// What wakes the writing thread: a delivery into the session's sink, or
/// output the reader's input produced.
#[allow(clippy::large_enum_variant)] // as `OutEvent`: one trip, no boxing
enum Event {
    Done(OutEvent),
    Output,
}

impl ResponseSink for Sender<Event> {
    fn deliver(&self, event: OutEvent) -> bool {
        self.send(Event::Done(event)).is_ok()
    }
}

/// Drives one connection end-to-end; see the module docs. Returns once
/// the input reached end-of-stream, every dispatched job was answered,
/// and the final summary frame was written — the graceful-drain
/// guarantee. On a write error (peer hung up) the connection's queued
/// work is abandoned and the error is returned; no summary is emitted
/// into a dead stream.
pub fn serve_connection<R: BufRead + Send, W: Write>(
    service: &Service,
    mut input: R,
    output: &mut W,
) -> io::Result<ConnectionSummary> {
    let (tx, rx) = mpsc::channel();
    let session = Mutex::new(Session::new(
        service,
        Arc::new(tx.clone()),
        Backpressure::Block,
    ));
    let session = &session;
    let lock = || session.lock().expect("session poisoned");
    std::thread::scope(|scope| {
        scope.spawn(move || loop {
            let (used, more, wrote) = match input.fill_buf() {
                Ok(chunk) => {
                    let mut session = lock();
                    if chunk.is_empty() {
                        session.close_input();
                    } else {
                        session.receive(chunk);
                    }
                    (chunk.len(), session.wants_input(), session.has_output())
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let mut session = lock();
                    session.read_error(&e);
                    (0, false, session.has_output())
                }
            };
            input.consume(used);
            if (wrote && tx.send(Event::Output).is_err()) || !more {
                return;
            }
        });
        let mut lines = Vec::new();
        // The session's sink holds a sender, so the channel stays open.
        while let Ok(event) = rx.recv() {
            let done = {
                let mut session = lock();
                if let Event::Done(event) = event {
                    session.complete(event);
                }
                lines.extend(session.drain_output());
                session.is_done()
            };
            for line in lines.drain(..) {
                if let Err(e) = writeln!(output, "{line}").and_then(|()| output.flush()) {
                    lock().abandon();
                    return Err(e);
                }
            }
            if done {
                break;
            }
        }
        Ok(lock().summary())
    })
}
