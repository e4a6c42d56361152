//! A framed, timeout-aware wrapper around one `TcpStream`.

use crate::frame::{encode_frame, FrameDecoder, FRAME_OVERHEAD};
use crate::{NetError, NetStats};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Most bytes one `read` takes off the socket.
const READ_CHUNK: usize = 16 * 1024;

/// One TCP connection speaking the frame codec, with byte accounting.
#[derive(Debug)]
pub struct FramedStream {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_timeout: Option<Duration>,
    /// Where `recv` lands socket bytes before the decoder takes them.
    /// Owned by the connection: an array on `recv`'s stack is zeroed on
    /// every call, which at this size costs more than the read.
    chunk: Vec<u8>,
    /// When the decoder first reported an *incomplete* frame with no
    /// newer completion — the clock behind the desync stall check.
    mid_frame_since: Option<Instant>,
}

impl FramedStream {
    /// Wraps a connected socket; `read_timeout` bounds every `recv` and is
    /// also applied as the write timeout (`None` = block forever).
    pub fn new(stream: TcpStream, read_timeout: Option<Duration>) -> Result<Self, NetError> {
        stream.set_nodelay(true).map_err(NetError::Io)?;
        stream.set_read_timeout(read_timeout).map_err(NetError::Io)?;
        stream.set_write_timeout(read_timeout).map_err(NetError::Io)?;
        Ok(FramedStream {
            stream,
            decoder: FrameDecoder::new(),
            read_timeout,
            chunk: vec![0; READ_CHUNK],
            mid_frame_since: None,
        })
    }

    /// How long the stream may sit inside one incomplete frame without
    /// ever completing it before it is declared desynchronized. A bit
    /// flip inside a length field yields a frame the peer will never
    /// finish — while the sender's retransmissions keep *appending* bytes
    /// toward the bogus length, so byte-level progress proves nothing and
    /// only frame completion resets the clock. Blocking streams (no read
    /// timeout) never poll, so they cannot run this check.
    fn stall_window(&self) -> Duration {
        match self.read_timeout {
            Some(t) => (t * 8).max(Duration::from_millis(500)),
            None => Duration::MAX,
        }
    }

    /// The configured read timeout.
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    /// Raw socket access for in-crate tests that need to write hostile
    /// bytes past the frame encoder.
    #[cfg(test)]
    pub(crate) fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Changes the read timeout (e.g. to poll without blocking).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout).map_err(NetError::Io)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Nonblocking probe: whether a `recv` could make progress right now —
    /// the decoder holds buffered bytes, or the kernel has data (or an
    /// EOF) waiting on the socket. Never waits out the read timeout, so
    /// pollers can skip idle lines in microseconds instead of burning the
    /// kernel's timer granularity (~10 ms) per empty pass.
    pub fn ready(&mut self) -> Result<bool, NetError> {
        if self.decoder.pending() > 0 {
            return Ok(true);
        }
        self.stream.set_nonblocking(true).map_err(NetError::Io)?;
        let mut probe = [0u8; 1];
        let ready = match self.stream.peek(&mut probe) {
            // Ok(0) is EOF: report ready so the next recv surfaces it.
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(e) => {
                let _ = self.stream.set_nonblocking(false);
                return Err(NetError::Io(e));
            }
        };
        self.stream.set_nonblocking(false).map_err(NetError::Io)?;
        Ok(ready)
    }

    /// Writes one whole frame, tallying its wire bytes.
    pub fn send(&mut self, kind: u8, payload: &[u8], stats: &mut NetStats) -> Result<(), NetError> {
        let frame = encode_frame(kind, payload);
        self.stream.write_all(&frame).map_err(NetError::Io)?;
        stats.frames_sent += 1;
        stats.bytes_sent += frame.len() as u64;
        Ok(())
    }

    /// Reads the next whole frame, blocking up to the read timeout.
    ///
    /// [`NetError::Timeout`] means nothing (complete) arrived in the
    /// window; the connection is still usable. Any other error means the
    /// connection is dead and must be re-established.
    pub fn recv(&mut self, stats: &mut NetStats) -> Result<(u8, Vec<u8>), NetError> {
        loop {
            if let Some((kind, payload)) = self.decoder.next_frame()? {
                self.mid_frame_since = None;
                stats.frames_received += 1;
                stats.bytes_received += (FRAME_OVERHEAD + payload.len()) as u64;
                return Ok((kind, payload));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                // pprl:allow(panic-path): Read::read guarantees n <= chunk.len()
                Ok(n) => self.decoder.push(&self.chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.decoder.pending() > 0 {
                        // Mid-frame with the window expired and no frame
                        // ever completing: the stream is desynchronized
                        // (e.g. a corrupted length field) and only a fresh
                        // connection can heal it.
                        let since = *self.mid_frame_since.get_or_insert_with(Instant::now);
                        if since.elapsed() >= self.stall_window() {
                            return Err(NetError::Frame(format!(
                                "stalled mid-frame: {} byte(s) pending with no \
                                 frame completing within {:?}",
                                self.decoder.pending(),
                                self.stall_window()
                            )));
                        }
                    } else {
                        self.mid_frame_since = None;
                    }
                    return Err(NetError::Timeout);
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{K_DATA, K_GOODBYE};
    use std::net::TcpListener;

    /// A connected loopback socket pair.
    pub(crate) fn pair() -> (FramedStream, FramedStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let timeout = Some(Duration::from_secs(5));
        (
            FramedStream::new(client, timeout).unwrap(),
            FramedStream::new(server, timeout).unwrap(),
        )
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = pair();
        let mut stats = NetStats::default();
        a.send(K_DATA, &[9; 128], &mut stats).unwrap();
        a.send(K_GOODBYE, &[], &mut stats).unwrap();
        assert_eq!(stats.frames_sent, 2);
        let mut rstats = NetStats::default();
        assert_eq!(b.recv(&mut rstats).unwrap(), (K_DATA, vec![9; 128]));
        assert_eq!(b.recv(&mut rstats).unwrap(), (K_GOODBYE, vec![]));
        assert_eq!(rstats.bytes_received, stats.bytes_sent);
    }

    #[test]
    fn short_timeout_reports_timeout_not_death() {
        let (mut a, _b) = pair();
        a.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        let mut stats = NetStats::default();
        assert!(matches!(a.recv(&mut stats), Err(NetError::Timeout)));
    }

    #[test]
    fn a_frame_that_never_completes_is_a_desync_not_an_eternal_wait() {
        let (mut a, b) = pair();
        a.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        // A plausible header claiming 1 MiB, then silence — exactly what a
        // bit flip inside the length field looks like from the receiver.
        let mut header = vec![K_DATA];
        header.extend_from_slice(&(1u32 << 20).to_le_bytes());
        {
            use std::io::Write;
            let mut raw = b;
            raw.stream.write_all(&header).unwrap();
            // Keep the socket open: the stall must be detected, not EOF.
            let mut stats = NetStats::default();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                match a.recv(&mut stats) {
                    Err(NetError::Timeout) => {
                        assert!(std::time::Instant::now() < deadline, "stall never detected");
                    }
                    Err(NetError::Frame(why)) => {
                        assert!(why.contains("stalled mid-frame"), "unexpected error: {why}");
                        break;
                    }
                    other => panic!("expected a mid-frame stall, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn peer_close_reports_disconnect() {
        let (mut a, b) = pair();
        drop(b);
        let mut stats = NetStats::default();
        assert!(matches!(a.recv(&mut stats), Err(NetError::Disconnected)));
    }
}
