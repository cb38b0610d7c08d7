//! Blocking client for the JSON-lines protocol, plus the latency helpers
//! the load generator reports with.

use crate::protocol::{
    decode_response, encode_request, Frame, FrameReader, ProtoError, Request, Response,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A connected client (one TCP stream, requests answered in order).
pub struct Client {
    writer: TcpStream,
    frames: FrameReader<TcpStream>,
    next_id: u64,
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server closed the connection.
    Closed,
    /// An undecodable or mismatched response frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Closed => f.write_str("server closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Protocol(e.message)
    }
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7411`).
    ///
    /// # Errors
    /// Propagates connect errors.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { writer, frames: FrameReader::new(stream), next_id: 1 })
    }

    /// Sets the socket read timeout (a hang backstop — both directions of
    /// the connection share the underlying socket). `None` blocks forever.
    ///
    /// # Errors
    /// Propagates `set_read_timeout` I/O errors.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(dur)?;
        Ok(())
    }

    /// Sends one request and blocks for its response. The response `id`
    /// must echo the request's.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(encode_request(id, req).as_bytes())?;
        match self.frames.next_frame()? {
            None => Err(ClientError::Closed),
            Some(Frame::Oversized(n)) => {
                Err(ClientError::Protocol(format!("oversized response frame ({n}+ bytes)")))
            }
            Some(Frame::Line(line)) => {
                let (rid, resp) = decode_response(&line)?;
                if rid != id {
                    return Err(ClientError::Protocol(format!(
                        "response id {rid} does not echo request id {id}"
                    )));
                }
                Ok(resp)
            }
        }
    }

    /// Pipelining half 1: send one request without waiting for its reply,
    /// returning the frame id. The server answers a connection's requests
    /// strictly in order, so interleave [`recv`](Client::recv) calls FIFO.
    ///
    /// # Errors
    /// Transport failures.
    pub fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(encode_request(id, req).as_bytes())?;
        Ok(id)
    }

    /// Pipelining half 2: block for the next response frame, `(id,
    /// response)`. A read timeout set via
    /// [`set_read_timeout`](Client::set_read_timeout) surfaces as
    /// [`ClientError::Io`] with `WouldBlock`/`TimedOut`; a partial frame
    /// survives in the buffer, so calling again resumes cleanly.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        match self.frames.next_frame()? {
            None => Err(ClientError::Closed),
            Some(Frame::Oversized(n)) => {
                Err(ClientError::Protocol(format!("oversized response frame ({n}+ bytes)")))
            }
            Some(Frame::Line(line)) => Ok(decode_response(&line)?),
        }
    }

    /// Sends a raw pre-encoded frame (replay mode) and decodes the reply.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation.
    pub fn request_raw(&mut self, frame: &str) -> Result<(u64, Response), ClientError> {
        self.writer.write_all(frame.as_bytes())?;
        if !frame.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        match self.frames.next_frame()? {
            None => Err(ClientError::Closed),
            Some(Frame::Oversized(n)) => {
                Err(ClientError::Protocol(format!("oversized response frame ({n}+ bytes)")))
            }
            Some(Frame::Line(line)) => Ok(decode_response(&line)?),
        }
    }
}

/// Latency percentile over an **unsorted** sample set (sorts a copy):
/// nearest-rank, `p` in [0, 100].
///
/// # Panics
/// On a non-finite or out-of-range `p`. The old behavior silently clamped
/// (NaN ceiled to rank 0 and reported the *minimum* as "p99"); a caller
/// holding a bad percentile has a bug that must not masquerade as a
/// latency number.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    assert!(
        p.is_finite() && (0.0..=100.0).contains(&p),
        "percentile p must be finite and in [0, 100], got {p}"
    );
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a duration as fractional milliseconds.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 90.0), Duration::from_millis(90));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 100.0), Duration::from_millis(100));
        assert_eq!(percentile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 99.0), Duration::ZERO);
        // Unsorted input is handled.
        let mixed = [3, 1, 2].map(Duration::from_millis);
        assert_eq!(percentile(&mixed, 50.0), Duration::from_millis(2));
    }

    #[test]
    fn percentile_boundaries_are_exact() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        // Finite edges of the valid range are legal, not near-misses.
        assert_eq!(percentile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&ms, 100.0), Duration::from_millis(10));
        // A single sample answers every percentile.
        assert_eq!(percentile(&[Duration::from_millis(7)], 99.9), Duration::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn percentile_rejects_nan() {
        // The old clamp ceiled NaN to rank 0 and silently reported the
        // minimum; a NaN percentile is a caller bug and must be loud.
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let _ = percentile(&ms, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn percentile_rejects_infinity() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let _ = percentile(&ms, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "in [0, 100]")]
    fn percentile_rejects_out_of_range() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let _ = percentile(&ms, 100.5);
    }

    #[test]
    #[should_panic(expected = "in [0, 100]")]
    fn percentile_rejects_negative() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let _ = percentile(&ms, -1.0);
    }
}
