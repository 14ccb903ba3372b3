//! A line-oriented protocol client over the socket front-end — used by
//! the CLI's `client` subcommand, the benchmark's socket phase, the CI
//! smoke test and the integration tests.

use std::io::{self, Read, Write};

use proto::{
    ClientFrame, HelloAck, JobRequest, MAX_LINE_BYTES, MAX_RESPONSE_LINE_BYTES, PROTOCOL_VERSION,
};

use crate::session::{Frame, Framer};
use crate::socket::{connect, BindAddr, SocketStream};

/// Reads lines of at most `max` bytes through the server session's
/// [`Framer`], so client and server frame by one set of rules: the byte
/// cap, CRLF, UTF-8 and the unterminated final line.
#[derive(Debug)]
struct LineReader<R> {
    input: R,
    framer: Framer,
    max: usize,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    fn new(input: R, max: usize) -> Self {
        LineReader {
            input,
            framer: Framer::default(),
            max,
            eof: false,
        }
    }

    /// The next line, `None` at end of stream. A line over the cap (the
    /// stream is then no longer framed) and bytes that are not UTF-8 are
    /// [`io::ErrorKind::InvalidData`] errors.
    fn next_line(&mut self) -> io::Result<Option<String>> {
        let mut chunk = [0u8; 8192];
        loop {
            let mut line = None;
            self.framer.drain(self.max, self.eof, |frame| {
                line = Some(match frame {
                    Frame::Line(line) => Ok(line.to_string()),
                    Frame::TooLong => Err(format!("line exceeds {} bytes", self.max)),
                    Frame::NotUtf8 => Err("stream did not contain valid UTF-8".to_string()),
                });
                false
            });
            if let Some(line) = line {
                return line
                    .map(Some)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            if self.eof {
                return Ok(None);
            }
            match self.input.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One client connection speaking JSON lines to a [`SocketServer`]
/// (v1 by default; [`LineClient::handshake`] upgrades to v2).
///
/// [`SocketServer`]: crate::SocketServer
#[derive(Debug)]
pub struct LineClient {
    reader: LineReader<SocketStream>,
    writer: SocketStream,
}

impl LineClient {
    /// Connects to a listening server.
    pub fn connect(addr: &BindAddr) -> io::Result<LineClient> {
        let stream = connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(LineClient {
            reader: LineReader::new(stream, MAX_RESPONSE_LINE_BYTES),
            writer,
        })
    }

    /// Performs the v2 handshake and returns the server's ack.
    pub fn handshake(&mut self) -> io::Result<HelloAck> {
        self.handshake_opts(false, false)
    }

    /// [`LineClient::handshake`] with the explicit handshake opt-ins:
    /// `timing: true` makes every v2 response carry its stage trace, and
    /// `certificate: true` lets responses to `certify` jobs carry their
    /// DRAT certificate object.
    pub fn handshake_opts(&mut self, timing: bool, certificate: bool) -> io::Result<HelloAck> {
        self.send_line(
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                timing,
                certificate,
            }
            .to_json_line(),
        )?;
        let line = self
            .recv_line()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no hello ack"))?;
        HelloAck::parse_line(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one frame line.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Sends one job request.
    pub fn send_job(&mut self, req: &JobRequest) -> io::Result<()> {
        self.send_line(&req.to_json_line())
    }

    /// Receives one server line; `None` at end-of-stream. Bounded: a
    /// server line longer than [`MAX_RESPONSE_LINE_BYTES`] (a loose cap —
    /// response partitions legitimately outgrow their job lines) errors
    /// instead of growing client memory without limit.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        self.reader.next_line()
    }

    /// Half-closes the write side — "no more jobs" — after which the
    /// server drains in-flight work, emits its summary frame and closes.
    pub fn finish_jobs(&mut self) -> io::Result<()> {
        self.writer.shutdown_write()
    }
}

/// Pumps a whole job stream through a server: forwards every line of
/// `input`, half-closes, and streams every response line (summary frame
/// included) to `output` with a flush per line — responses arrive while
/// jobs are still being sent, so a stream larger than the socket buffers
/// cannot deadlock. Returns the number of server lines received.
pub fn pump<R: Read + Send, W: Write>(
    addr: &BindAddr,
    input: R,
    output: &mut W,
) -> io::Result<usize> {
    let stream = connect(addr)?;
    let mut sender = stream.try_clone()?;
    // Looser cap than the send side: response partitions legitimately
    // outgrow their job lines.
    let mut responses = LineReader::new(stream, MAX_RESPONSE_LINE_BYTES);
    std::thread::scope(|scope| -> io::Result<usize> {
        let send = scope.spawn(move || -> io::Result<()> {
            // Bounded like the server side: the server would reject an
            // oversized line anyway, so fail it here without first
            // buffering it whole.
            let mut input = LineReader::new(input, MAX_LINE_BYTES);
            while let Some(line) = input.next_line()? {
                writeln!(sender, "{line}")?;
                sender.flush()?;
            }
            sender.shutdown_write()
        });
        let mut count = 0usize;
        while let Some(line) = responses.next_line()? {
            writeln!(output, "{line}")?;
            output.flush()?;
            count += 1;
        }
        send.join().expect("sender thread panicked")?;
        Ok(count)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line of `input` framed at a `max`-byte cap, up to the end of
    /// the stream or the first error.
    fn lines(input: &[u8], max: usize) -> io::Result<Vec<String>> {
        let mut reader = LineReader::new(input, max);
        let mut lines = Vec::new();
        while let Some(line) = reader.next_line()? {
            lines.push(line);
        }
        Ok(lines)
    }

    fn invalid_data(result: io::Result<Vec<String>>) -> bool {
        result.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }

    #[test]
    fn reads_lines_like_buf_read_lines() {
        assert_eq!(
            lines(b"a\nbb\r\n\nfinal-no-newline", 64).unwrap(),
            ["a", "bb", "", "final-no-newline"]
        );
        assert!(lines(b"", 64).unwrap().is_empty());
    }

    #[test]
    fn oversized_lines_stop_at_the_cap() {
        assert!(invalid_data(lines(b"0123456789\n", 4)), "terminated");
        assert!(invalid_data(lines(&[b'x'; 1024], 100)), "no newline");
        // Exactly at the cap is fine; the carriage return counts.
        assert_eq!(lines(b"abcd\n", 4).unwrap(), ["abcd"]);
        assert!(invalid_data(lines(b"abc\r\n", 3)));
    }

    #[test]
    fn invalid_utf8_errors_like_lines() {
        assert!(invalid_data(lines(b"\xff\xfe garbage\n", 64)));
    }
}
