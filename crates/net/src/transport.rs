//! The transport seam: framed envelopes over a real TCP socket behind
//! one trait.
//!
//! The discrete-event fabric ([`Net`](crate::Net),
//! [`HostSched`](crate::HostSched), [`split_envelope`](crate::split_envelope))
//! moves [`Envelope`]s in virtual time. [`Transport`] is the seam the
//! real-clock runtime drives instead; its one backend,
//! [`TcpTransport`], speaks length-prefixed [`Envelope`] frames over a
//! real `TcpStream`, with a reader thread, and (for the connecting
//! side) a per-peer reconnect loop whose exponential backoff mirrors
//! the QRPC RTO policy shape (`initial · backoff^n`, capped).
//!
//! Failures are typed ([`TransportError`]): connection refused, peer
//! reset, timeout, clean close, and protocol violations are distinct
//! variants rather than strings, so callers can make policy (retry
//! versus surface) without parsing messages.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rover_wire::{Bytes, Encoder, Envelope, Wire};

/// Upper bound on one frame's envelope payload. Arrives off the wire
/// before any validation, so it is capped exactly like
/// [`MAX_FRAGMENTS`](crate::MAX_FRAGMENTS) caps reassembly: a hostile
/// length prefix must not size an allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// A typed transport failure.
///
/// IO errors are classified on receipt (see `From<io::Error>`) so
/// callers branch on variants, not on message substrings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer actively refused the connection (nothing listening).
    Refused,
    /// The connection was reset / aborted mid-stream by the peer.
    Reset,
    /// The operation timed out.
    Timeout,
    /// The stream closed cleanly (EOF) or was already shut down.
    Closed,
    /// The peer violated the framing protocol (bad length prefix,
    /// undecodable envelope).
    Protocol(String),
    /// Any other IO failure, preserved as text.
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Refused => write!(f, "connection refused"),
            TransportError::Reset => write!(f, "connection reset by peer"),
            TransportError::Timeout => write!(f, "operation timed out"),
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Protocol(why) => write!(f, "protocol violation: {why}"),
            TransportError::Io(why) => write!(f, "io error: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::ConnectionRefused => TransportError::Refused,
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => TransportError::Reset,
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => TransportError::Timeout,
            io::ErrorKind::UnexpectedEof | io::ErrorKind::NotConnected => TransportError::Closed,
            _ => TransportError::Io(e.to_string()),
        }
    }
}

/// Encodes one length-prefixed envelope frame: `[u32 BE length]
/// [envelope wire form]`, in one buffer allocated at size. The
/// envelope's own CRC travels inside the wire form.
fn encode_frame(env: &Envelope) -> Result<Vec<u8>, TransportError> {
    let body = env.encoded_len();
    let len = u32::try_from(body)
        .ok()
        .filter(|l| *l <= MAX_FRAME_BYTES)
        .ok_or_else(|| TransportError::Protocol(format!("frame too large: {body} B")))?;
    let mut enc = Encoder::with_capacity(4 + body);
    enc.put_u32(len);
    env.encode(&mut enc);
    Ok(enc.into_vec())
}

/// Writes one length-prefixed envelope frame. Prefix and body leave in
/// one write: on a `TCP_NODELAY` socket two writes are two segments and
/// two syscalls.
pub fn write_frame(w: &mut impl Write, env: &Envelope) -> Result<(), TransportError> {
    w.write_all(&encode_frame(env)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed envelope frame (blocking).
pub fn read_frame(r: &mut impl Read) -> Result<Envelope, TransportError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(TransportError::Protocol(format!(
            "frame length {len} out of range"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    // The envelope's body is a view of the frame buffer, not a copy.
    Envelope::from_shared(&Bytes::from(body))
        .map_err(|e| TransportError::Protocol(format!("undecodable envelope: {e:?}")))
}

/// A connectivity or data event surfaced by a transport backend.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportEvent {
    /// The underlying channel came up (TCP connect succeeded).
    Connected,
    /// The underlying channel went down, with the classified cause.
    Disconnected(TransportError),
    /// One whole envelope arrived.
    Frame(Envelope),
}

/// A bidirectional envelope channel to one peer.
///
/// `send` hands a frame to the backend (queueing or blocking write);
/// `poll_event` drains arrivals and connectivity transitions in order.
/// Backends never invoke callbacks — the driver loop owns all dispatch,
/// which is what keeps the state machines single-threaded.
pub trait Transport {
    /// Submits one envelope. `Err` means the frame was *not* accepted
    /// (e.g. the channel is down) — QRPC's retransmission owns recovery.
    fn send(&mut self, env: &Envelope) -> Result<(), TransportError>;

    /// Returns the next pending event, if any (never blocks).
    fn poll_event(&mut self) -> Option<TransportEvent>;

    /// Whether the channel is currently up.
    fn is_connected(&self) -> bool;
}

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

/// Reconnect backoff policy for [`TcpTransport`] — the same exponential
/// shape as the QRPC RTO (`initial · backoff^n`, capped at `max`).
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Multiplier applied per consecutive failure.
    pub backoff: f64,
    /// Ceiling on the delay.
    pub max: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            initial: Duration::from_millis(50),
            backoff: 2.0,
            max: Duration::from_secs(2),
        }
    }
}

impl ReconnectPolicy {
    fn delay(&self, attempt: u32) -> Duration {
        let scaled = self.initial.as_secs_f64() * self.backoff.powi(attempt.min(20) as i32);
        Duration::from_secs_f64(scaled.min(self.max.as_secs_f64()))
    }
}

/// Shared mutable state between the driver, reader and connector threads.
struct TcpShared {
    /// Events in arrival order (frames interleaved with connectivity).
    events: Mutex<VecDeque<TransportEvent>>,
    /// Write half of the live connection, if connected.
    writer: Mutex<Option<TcpStream>>,
    /// Set to stop the connector loop and reader threads.
    stop: AtomicBool,
    /// Wakes the driver loop (e.g. `WallClock::notify`).
    notify: Box<dyn Fn() + Send + Sync>,
}

impl TcpShared {
    fn push_event(&self, ev: TransportEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(ev);
        (self.notify)();
    }

    fn set_writer(&self, w: Option<TcpStream>) {
        *self.writer.lock().unwrap_or_else(|e| e.into_inner()) = w;
    }
}

/// The real backend: length-prefixed envelope frames over one
/// `TcpStream` to a single peer.
///
/// Two construction modes:
/// - [`TcpTransport::connect`] (client side): a connector thread dials
///   the peer and redials on every disconnect with [`ReconnectPolicy`]
///   backoff, forever (QRPC assumes the home server eventually returns).
/// - [`TcpTransport::from_stream`] (server side): adopts an accepted
///   socket; on disconnect the transport stays down (the client redials).
///
/// A reader thread per connection turns inbound frames into
/// [`TransportEvent`]s and fires the notify hook so a blocked driver
/// wakes. Outbound frames are [`queue`](TcpTransport::queue)d and leave
/// in one blocking write per [`flush`](TcpTransport::flush) on the
/// caller's thread; [`Transport::send`] is a queue and a flush.
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    connected: bool,
    /// Frames queued since the last flush, back to back.
    outbox: Vec<u8>,
}

impl TcpTransport {
    /// Dials `addr` and keeps redialling on failure. `notify` is called
    /// whenever a new event is queued (hook it to `WallClock::notify`).
    pub fn connect(
        addr: impl ToSocketAddrs + Send + Clone + 'static,
        policy: ReconnectPolicy,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> TcpTransport {
        let shared = Arc::new(TcpShared {
            events: Mutex::new(VecDeque::new()),
            writer: Mutex::new(None),
            stop: AtomicBool::new(false),
            notify: Box::new(notify),
        });
        let conn_shared = shared.clone();
        std::thread::spawn(move || {
            let mut attempt: u32 = 0;
            while !conn_shared.stop.load(Ordering::Relaxed) {
                match TcpStream::connect(addr.clone()) {
                    Ok(stream) => {
                        attempt = 0;
                        if run_connection(&conn_shared, stream).is_err() {
                            // Classified error already queued by the reader.
                        }
                    }
                    Err(e) => {
                        // Only the first failure in a row is reported:
                        // the driver needs the down transition, not a
                        // heartbeat of refusals.
                        if attempt == 0 {
                            conn_shared.push_event(TransportEvent::Disconnected(e.into()));
                        }
                    }
                }
                let delay = ReconnectPolicy::delay(&policy, attempt);
                attempt = attempt.saturating_add(1);
                sleep_interruptible(&conn_shared.stop, delay);
            }
        });
        TcpTransport {
            shared,
            connected: false,
            outbox: Vec::new(),
        }
    }

    /// Adopts an already-accepted socket (server side). No reconnect:
    /// when the stream dies the transport reports down and stays down.
    pub fn from_stream(
        stream: TcpStream,
        notify: impl Fn() + Send + Sync + 'static,
    ) -> io::Result<TcpTransport> {
        let shared = Arc::new(TcpShared {
            events: Mutex::new(VecDeque::new()),
            writer: Mutex::new(None),
            stop: AtomicBool::new(false),
            notify: Box::new(notify),
        });
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        shared.set_writer(Some(stream));
        shared.push_event(TransportEvent::Connected);
        let rd_shared = shared.clone();
        std::thread::spawn(move || read_loop(&rd_shared, reader));
        Ok(TcpTransport {
            shared,
            connected: false,
            outbox: Vec::new(),
        })
    }

    /// Queues one envelope frame; it leaves at the next
    /// [`flush`](TcpTransport::flush). `Err` only for a frame too large
    /// to send at all.
    pub fn queue(&mut self, env: &Envelope) -> Result<(), TransportError> {
        let frame = encode_frame(env)?;
        if self.outbox.is_empty() {
            self.outbox = frame;
        } else {
            self.outbox.extend_from_slice(&frame);
        }
        Ok(())
    }

    /// Writes every queued frame in one write. `Err` means the channel
    /// is down or just died: the queued frames are dropped, and QRPC's
    /// retransmission owns recovery.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let mut guard = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        let res = match guard.as_mut() {
            None => Err(TransportError::Closed),
            Some(w) => w.write_all(&self.outbox).map_err(TransportError::from),
        };
        if res.is_err() {
            // A failed write means the connection is dead; drop the
            // writer so later flushes fail fast. The reader will queue
            // the Disconnected transition.
            *guard = None;
        }
        self.outbox.clear();
        res
    }

    /// Stops the connector/reader threads and closes the connection.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(w) = self
            .shared
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        self.connected = false;
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    /// Queues `env` and flushes: the frame, and anything queued before
    /// it, is on the wire when this returns.
    fn send(&mut self, env: &Envelope) -> Result<(), TransportError> {
        self.queue(env)?;
        self.flush()
    }

    fn poll_event(&mut self) -> Option<TransportEvent> {
        let ev = self
            .shared
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        match &ev {
            Some(TransportEvent::Connected) => self.connected = true,
            Some(TransportEvent::Disconnected(_)) => self.connected = false,
            _ => {}
        }
        ev
    }

    fn is_connected(&self) -> bool {
        self.connected
    }
}

/// Installs a fresh connection on `shared` and runs its reader to
/// completion (returns when the connection dies).
fn run_connection(shared: &Arc<TcpShared>, stream: TcpStream) -> Result<(), TransportError> {
    stream.set_nodelay(true).map_err(TransportError::from)?;
    let reader = stream.try_clone().map_err(TransportError::from)?;
    shared.set_writer(Some(stream));
    shared.push_event(TransportEvent::Connected);
    read_loop(shared, reader);
    Ok(())
}

/// Reads frames until the stream dies; queues each frame and finally
/// the classified disconnect. Clears the writer so sends fail fast.
fn read_loop(shared: &Arc<TcpShared>, stream: TcpStream) {
    // Buffered: a small frame's prefix and body arrive in one `read`,
    // and frames that queued up behind it come out of the same one.
    let mut stream = BufReader::new(stream);
    let err = loop {
        match read_frame(&mut stream) {
            Ok(env) => shared.push_event(TransportEvent::Frame(env)),
            Err(e) => break e,
        }
    };
    shared.set_writer(None);
    shared.push_event(TransportEvent::Disconnected(err));
}

/// Sleeps up to `total`, returning early if `stop` is set.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while remaining > Duration::ZERO && !stop.load(Ordering::Relaxed) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rover_wire::{Bytes, HostId, MsgKind};
    use std::net::TcpListener;

    fn env(tag: u8, n: usize) -> Envelope {
        Envelope {
            kind: MsgKind::Request,
            src: HostId(1),
            dst: HostId(2),
            body: Bytes::from(vec![tag; n]),
        }
    }

    fn drain_frames(t: &mut impl Transport) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Some(ev) = t.poll_event() {
            if let TransportEvent::Frame(e) = ev {
                out.push(e);
            }
        }
        out
    }

    fn wait_for<T>(mut f: impl FnMut() -> Option<T>, what: &str) -> T {
        for _ in 0..500 {
            if let Some(v) = f() {
                return v;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn frame_roundtrip_over_buffer() {
        let e = env(7, 5000);
        let mut buf = Vec::new();
        write_frame(&mut buf, &e).unwrap();
        // Length prefix + the envelope's own framed wire form.
        assert_eq!(buf.len(), 4 + e.wire_size());
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, e);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"garbage");
        match read_frame(&mut buf.as_slice()) {
            Err(TransportError::Protocol(_)) => {}
            other => panic!("expected Protocol error, got {other:?}"),
        }
        // Zero length is equally invalid.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(TransportError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_reports_closed() {
        let e = env(1, 100);
        let mut buf = Vec::new();
        write_frame(&mut buf, &e).unwrap();
        buf.truncate(buf.len() - 10);
        assert_eq!(read_frame(&mut buf.as_slice()), Err(TransportError::Closed));
    }

    #[test]
    fn io_error_classification() {
        let cases = [
            (io::ErrorKind::ConnectionRefused, TransportError::Refused),
            (io::ErrorKind::ConnectionReset, TransportError::Reset),
            (io::ErrorKind::BrokenPipe, TransportError::Reset),
            (io::ErrorKind::TimedOut, TransportError::Timeout),
            (io::ErrorKind::UnexpectedEof, TransportError::Closed),
        ];
        for (kind, want) in cases {
            assert_eq!(TransportError::from(io::Error::from(kind)), want);
        }
    }

    #[test]
    fn tcp_roundtrip_and_reconnect_after_server_restart() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let mut client = TcpTransport::connect(addr, ReconnectPolicy::default(), || {});
        let (sock, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(sock, || {}).unwrap();

        wait_for(
            || match client.poll_event() {
                Some(TransportEvent::Connected) => Some(()),
                _ => None,
            },
            "client connect",
        );
        assert!(client.is_connected());

        // Envelope frames flow both ways.
        client.send(&env(9, 2000)).unwrap();
        let got = wait_for(
            || match server.poll_event() {
                Some(TransportEvent::Frame(e)) => Some(e),
                _ => None,
            },
            "server frame",
        );
        assert_eq!(got.body.len(), 2000);
        server.send(&env(10, 10)).unwrap();
        let got = wait_for(
            || match client.poll_event() {
                Some(TransportEvent::Frame(e)) => Some(e),
                _ => None,
            },
            "client frame",
        );
        assert_eq!(got.body[0], 10);

        // Kill the server side; the client must classify the drop and
        // then redial once a listener returns on the same port.
        server.shutdown();
        drop(listener);
        wait_for(
            || match client.poll_event() {
                Some(TransportEvent::Disconnected(_)) => Some(()),
                _ => None,
            },
            "client disconnect",
        );
        assert!(!client.is_connected());
        assert!(matches!(
            client.send(&env(0, 1)),
            Err(TransportError::Closed | TransportError::Reset)
        ));

        let listener = TcpListener::bind(addr).unwrap();
        wait_for(
            || match client.poll_event() {
                Some(TransportEvent::Connected) => Some(()),
                _ => None,
            },
            "client reconnect",
        );
        let (sock, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(sock, || {}).unwrap();
        client.send(&env(11, 30)).unwrap();
        let got = wait_for(
            || match server.poll_event() {
                Some(TransportEvent::Frame(e)) => Some(e),
                _ => None,
            },
            "post-reconnect frame",
        );
        assert_eq!(got.body[0], 11);
        client.shutdown();
    }

    #[test]
    fn queued_frames_leave_in_order_at_one_flush() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr, ReconnectPolicy::default(), || {});
        let (sock, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(sock, || {}).unwrap();
        wait_for(
            || match client.poll_event() {
                Some(TransportEvent::Connected) => Some(()),
                _ => None,
            },
            "client connect",
        );

        // Nothing leaves until the flush; then all of it, in order.
        for tag in 1..=3 {
            client.queue(&env(tag, 100 * tag as usize)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(drain_frames(&mut server).is_empty());
        client.flush().unwrap();
        // `send` is a queue and a flush: it also carries what was queued.
        client.queue(&env(4, 10)).unwrap();
        client.send(&env(5, 10)).unwrap();
        let mut got = Vec::new();
        wait_for(
            || {
                got.extend(drain_frames(&mut server));
                (got.len() == 5).then_some(())
            },
            "five frames",
        );
        let tags: Vec<u8> = got.iter().map(|e| e.body[0]).collect();
        assert_eq!(tags, [1, 2, 3, 4, 5]);
        assert_eq!(got[2], env(3, 300));

        // A flush with the channel down drops the queue.
        server.shutdown();
        client.shutdown();
        client.queue(&env(6, 10)).unwrap();
        assert_eq!(client.flush(), Err(TransportError::Closed));
        assert_eq!(client.flush(), Ok(()));
    }

    #[test]
    fn connect_to_dead_port_reports_refused_once_per_outage() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut client = TcpTransport::connect(
            addr,
            ReconnectPolicy {
                initial: Duration::from_millis(10),
                backoff: 2.0,
                max: Duration::from_millis(40),
            },
            || {},
        );
        let ev = wait_for(|| client.poll_event(), "refused event");
        assert_eq!(ev, TransportEvent::Disconnected(TransportError::Refused));
        // Continued refusals are not re-reported while still down.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(client.poll_event(), None);
        client.shutdown();
    }

    #[test]
    fn reconnect_policy_backoff_shape() {
        let p = ReconnectPolicy {
            initial: Duration::from_millis(100),
            backoff: 2.0,
            max: Duration::from_millis(500),
        };
        assert_eq!(p.delay(0), Duration::from_millis(100));
        assert_eq!(p.delay(1), Duration::from_millis(200));
        assert_eq!(p.delay(2), Duration::from_millis(400));
        assert_eq!(p.delay(3), Duration::from_millis(500));
        assert_eq!(p.delay(30), Duration::from_millis(500));
    }
}
