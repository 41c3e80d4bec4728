//! `net`: `TcpTransport` framing over loopback (one-way stream and
//! ping-pong), the simulated link's wall cost, and fragmentation.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use rover_net::{
    split_envelope, LinkSpec, Net, Reassembler, ReconnectPolicy, TcpTransport, Transport,
    TransportEvent,
};
use rover_sim::{Clock, Sim, SimDuration, WallClock};
use rover_wire::{Bytes, Envelope, HostId, MsgKind};

use super::{each_us, Out, Shapes, SAMPLES};
use crate::measure::median;

/// Frames sent before the stream pass waits for all of them to arrive.
const STREAM_CHUNK: usize = 250;
const STREAM_CHUNKS: usize = 400;
const MIB: usize = 1 << 20;
pub const MTU: usize = 1460;

/// One end of a loopback connection and the clock its reader wakes.
struct End {
    transport: TcpTransport,
    clock: WallClock,
}

impl End {
    /// Blocks until the next event, or gives up after five seconds.
    fn next_event(&mut self) -> Result<TransportEvent, String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(ev) = self.transport.poll_event() {
                return Ok(ev);
            }
            if Instant::now() > deadline {
                return Err("no transport event in five seconds".into());
            }
            let tick = self.clock.now() + SimDuration::from_millis(1);
            self.clock.wait_until(Some(tick));
        }
    }

    fn next_frame(&mut self) -> Result<Envelope, String> {
        loop {
            match self.next_event()? {
                TransportEvent::Frame(env) => return Ok(env),
                TransportEvent::Connected => {}
                TransportEvent::Disconnected(e) => return Err(format!("disconnected: {e}")),
            }
        }
    }
}

fn connect_pair() -> Result<(End, End), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let clock = WallClock::new();
    let c = clock.clone();
    let transport = TcpTransport::connect(addr, ReconnectPolicy::default(), move || c.notify());
    let mut dialer = End { transport, clock };
    let (sock, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let clock = WallClock::new();
    let c = clock.clone();
    let transport =
        TcpTransport::from_stream(sock, move || c.notify()).map_err(|e| format!("adopt: {e}"))?;
    let acceptor = End { transport, clock };
    // `send` fails until the dialer has seen its `Connected`.
    match dialer.next_event()? {
        TransportEvent::Connected => Ok((dialer, acceptor)),
        other => Err(format!("dial: {other:?}")),
    }
}

fn stream(shapes: &Shapes, out: &mut Out) -> Result<(), String> {
    let (mut tx, mut rx) = connect_pair()?;
    let frames = shapes.envelopes(true);
    let mut rates = Vec::with_capacity(STREAM_CHUNKS);
    for chunk in 0..STREAM_CHUNKS {
        let t0 = Instant::now();
        for i in 0..STREAM_CHUNK {
            let env = &frames[(chunk * STREAM_CHUNK + i) % frames.len()];
            tx.transport.send(env).map_err(|e| format!("send: {e}"))?;
        }
        for _ in 0..STREAM_CHUNK {
            rx.next_frame()?;
        }
        rates.push(STREAM_CHUNK as f64 / t0.elapsed().as_secs_f64());
    }
    out.put("net.tcp_frames_per_s", median(&rates), rates.len());
    tx.transport.shutdown();
    rx.transport.shutdown();
    Ok(())
}

fn ping_pong(shapes: &Shapes, out: &mut Out) -> Result<(), String> {
    let (mut near, mut far) = connect_pair()?;
    let request = shapes.envelopes(true)[0].clone();
    let reply = shapes.envelopes(false)[0].clone();
    let echo = std::thread::spawn(move || {
        while far.next_frame().is_ok() {
            if far.transport.send(&reply).is_err() {
                break;
            }
        }
        far.transport.shutdown();
    });
    let mut failed = None;
    let rtt = each_us(SAMPLES, || {
        let sent = near.transport.send(&request).map_err(|e| e.to_string());
        if let Err(e) = sent.and_then(|()| near.next_frame().map(drop)) {
            failed.get_or_insert(e);
        }
    });
    // Closing our end ends the echo thread's `next_frame`.
    near.transport.shutdown();
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    if let Some(e) = failed {
        return Err(format!("ping-pong: {e}"));
    }
    out.put_p50_p99("net.tcp_rtt_us_p50", "net.tcp_rtt_us_p99", &rtt);
    Ok(())
}

fn sim_link(shapes: &Shapes, out: &mut Out) {
    const BURST: usize = 100;
    let (a, b) = (HostId(1), HostId(2));
    let mut sim = Sim::new(3);
    let net = Net::new();
    let link = net.add_link(LinkSpec::ETHERNET_10M, a, b);
    net.register_host(b, |_, _, env| {
        std::hint::black_box(env);
    });
    let shaped: Vec<Envelope> = shapes
        .envelopes(true)
        .iter()
        .map(|e| Envelope {
            src: a,
            dst: b,
            ..e.clone()
        })
        .collect();
    let mut next = 0usize;
    let us = each_us(SAMPLES, || {
        for _ in 0..BURST {
            let env = shaped[next % shaped.len()].clone();
            next += 1;
            net.send(&mut sim, link, env).expect("link is up");
        }
        sim.run();
    });
    out.put(
        "net.link_msgs_per_s",
        BURST as f64 / (median(&us) / 1e6),
        us.len(),
    );
}

/// Splits `env` at `mtu` and puts the fragments back together.
pub fn fragment_round_trip(env: &Envelope, mtu: usize, msg_id: u64) -> Option<Envelope> {
    let mut re = Reassembler::new(4);
    let mut whole = None;
    for f in split_envelope(env.clone(), mtu, msg_id) {
        whole = re.accept(f).or(whole);
    }
    whole
}

fn frag(out: &mut Out) -> Result<(), String> {
    let env = Envelope {
        kind: MsgKind::Request,
        src: HostId(1),
        dst: HostId(2),
        body: Bytes::from(vec![0xC3u8; MIB]),
    };
    let mut whole = true;
    let us = each_us(SAMPLES / 4, || {
        whole &= fragment_round_trip(&env, MTU, 9).is_some_and(|e| e.body.len() == MIB);
    });
    if !whole {
        return Err("a fragmented MiB did not reassemble".into());
    }
    out.put(
        "net.frag_mb_per_s",
        MIB as f64 / 1e6 / (median(&us) / 1e6),
        us.len(),
    );
    Ok(())
}

pub fn pass(shapes: &Shapes, out: &mut Out) -> Result<(), String> {
    stream(shapes, out)?;
    ping_pong(shapes, out)?;
    sim_link(shapes, out);
    frag(out)
}
