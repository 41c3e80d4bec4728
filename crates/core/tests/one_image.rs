//! One image per thing. Server: a committed export's reply payload, its
//! commit record's `obj` and the stored object marshal to the same
//! bytes, on the re-execute and the merged-resolver paths, and a fixed
//! scripted run writes the WAL device image it wrote before the two
//! were made to share one buffer. Client: the bytes a request is logged
//! as are the bytes its first transmission carries, and a later copy is
//! re-marshalled once the piggybacked floor has moved.

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, CommitPolicy, ExportPayload, ReexecuteResolver, RoverObject,
    ScriptResolver, Server, ServerConfig, Urn,
};
use rover_log::{FlushPolicy, LogError, MemStore, OpLog, RecordKind, StableStore};
use rover_net::{LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::{
    crc32, decode_commit_batch, Bytes, CommitRecord, Envelope, HostId, MsgKind, OpStatus, Priority,
    QrpcReply, QrpcRequest, ReplyBatch, RequestId, RoverOp, SessionId, Version, Wire,
};

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

fn urn(p: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{p}")).unwrap()
}

/// A WAL device the test keeps a handle to.
#[derive(Clone, Default)]
struct SharedStore(Rc<RefCell<MemStore>>);

impl StableStore for SharedStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.0.borrow_mut().append(bytes)
    }
    fn sync(&mut self) -> Result<usize, LogError> {
        self.0.borrow_mut().sync()
    }
    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        self.0.borrow_mut().read_all()
    }
    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.0.borrow_mut().reset(bytes)
    }
    fn durable_len(&self) -> u64 {
        self.0.borrow().durable_len()
    }
    fn drop_staged(&mut self) {
        self.0.borrow_mut().drop_staged()
    }
}

/// The payload of every commit-batch frame on `device`, in log order.
fn batch_payloads(device: &[u8]) -> Vec<Bytes> {
    let mut store = MemStore::new();
    store.reset(device).unwrap();
    let log = OpLog::open_with(store, FlushPolicy::Manual, false).unwrap();
    log.records()
        .filter(|r| r.kind == RecordKind::Other(0x12))
        .map(|r| r.payload.clone())
        .collect()
}

/// Every commit record on `device`, in log order.
fn commit_records(device: &[u8]) -> Vec<CommitRecord> {
    batch_payloads(device)
        .iter()
        .flat_map(|p| decode_commit_batch(p).unwrap())
        .collect()
}

struct ServerRig {
    sim: Sim,
    net: Net,
    link: rover_net::LinkId,
    server: rover_core::ServerRef,
    device: SharedStore,
    replies: Rc<RefCell<Vec<QrpcReply>>>,
}

/// `c` re-executes (a counter), `m` merges through its own `resolve`
/// proc, `r` has no resolver and reflects conflicts.
fn server_rig(commit: CommitPolicy) -> ServerRig {
    let mut sim = Sim::new(7);
    let net = Net::new();
    let link = net.add_link(LinkSpec::ETHERNET_10M, CLIENT, SERVER);
    let mut cfg = ServerConfig::workstation(SERVER);
    cfg.commit = commit;
    let server = Server::new(&net, cfg);
    {
        let mut s = server.borrow_mut();
        s.register_resolver("counter", Box::new(ReexecuteResolver));
        s.register_resolver("merge", Box::new(ScriptResolver::default()));
        let add = "proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}";
        s.put_object(
            RoverObject::new(urn("c"), "counter")
                .with_code(add)
                .with_field("n", "0"),
        );
        s.put_object(
            RoverObject::new(urn("m"), "merge")
                .with_code(&format!(
                    "{add}\nproc resolve {{method args base}} {{rover::set merged_from $base; return merged}}"
                ))
                .with_field("n", "0"),
        );
        s.put_object(
            RoverObject::new(urn("r"), "plain")
                .with_code(add)
                .with_field("n", "0"),
        );
    }
    let device = SharedStore::default();
    Server::attach_wal(&server, &mut sim, Box::new(device.clone())).unwrap();
    let replies: Rc<RefCell<Vec<QrpcReply>>> = Rc::default();
    let sink = replies.clone();
    net.register_host(CLIENT, move |_sim, _net, env: Envelope| match env.kind {
        MsgKind::Reply => sink
            .borrow_mut()
            .push(QrpcReply::from_shared(&env.body).unwrap()),
        MsgKind::ReplyBatch => sink
            .borrow_mut()
            .extend(ReplyBatch::from_shared(&env.body).unwrap().replies),
        _ => {}
    });
    ServerRig {
        sim,
        net,
        link,
        server,
        device,
        replies,
    }
}

fn request(id: u64, op: RoverOp, object: &str, base: u64, payload: Bytes) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(id),
        client: CLIENT,
        session: SessionId(1),
        op,
        urn: urn(object).as_str().to_owned(),
        base_version: Version(base),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below: id.saturating_sub(2),
        payload,
        read_vector: Vec::new(),
    }
}

fn export(id: u64, object: &str, base: u64, seq: u64) -> QrpcRequest {
    let payload = ExportPayload {
        method: "add".into(),
        args: vec!["5".into()],
        session_seq: seq,
    };
    let op = RoverOp::Export {
        method: "add".into(),
    };
    request(id, op, object, base, payload.to_bytes())
}

/// The fixed script: every reply status that commits bookkeeping, with
/// and without a new object image behind it.
fn script() -> Vec<QrpcRequest> {
    vec![
        export(1, "c", 1, 1),                              // Ok, re-executed
        request(2, RoverOp::Import, "c", 0, Bytes::new()), // no image
        export(3, "c", 1, 2),                              // Resolved, re-executed
        export(4, "m", 1, 0),                              // Ok, re-executed
        export(5, "m", 1, 0),                              // Resolved, merged
        export(6, "r", 0, 0),                              // Conflict: no image
        request(7, RoverOp::Ping, "c", 0, Bytes::new()),   // no image
        export(8, "c", 3, 3),                              // Ok, re-executed
        export(9, "gone", 1, 0),                           // NoSuchObject
    ]
}

fn send(r: &mut ServerRig, req: &QrpcRequest) {
    let env = Envelope::request(CLIENT, SERVER, req);
    r.net.send(&mut r.sim, r.link, env).unwrap();
}

fn stored(r: &ServerRig, req: &QrpcRequest) -> Option<Bytes> {
    let server = r.server.borrow();
    Urn::parse(&req.urn)
        .ok()
        .and_then(|u| server.get_object(&u).map(Wire::to_bytes))
}

/// `crc32` and length of the WAL device after [`script`], one flush per
/// commit: nine groups of one.
const PER_OP_DEVICE: (u32, usize) = (2_357_298_553, 3062);
/// `crc32` and total length of the nine commit records on that device,
/// each as logged. Recorded from commit `066f6f4`, which framed every
/// record on its own: a group of one frames the same bytes behind a
/// count of one.
const PER_OP_RECORDS: (u32, usize) = (1_186_978_669, 2388);
/// `crc32` and length of the WAL device after [`script`] in groups of
/// four, recorded from commit `89e744a`, which marshalled the record's
/// image separately.
const GROUP_DEVICE: (u32, usize) = (3_198_927_767, 2918);

#[test]
fn committed_export_has_one_image_per_operation() {
    let mut r = server_rig(CommitPolicy::PER_OPERATION);
    let mut images = Vec::new();
    for req in script() {
        send(&mut r, &req);
        r.sim.run();
        let reply = r.replies.borrow().last().cloned().unwrap();
        assert_eq!(reply.req_id, req.req_id);
        let committed = matches!(req.op, RoverOp::Export { .. })
            && matches!(reply.status, OpStatus::Ok | OpStatus::Resolved);
        // The reply carries the object as it stands right after this
        // commit; only a committed export leaves an image in the log.
        images.push(committed.then(|| reply.payload.clone()));
        if committed {
            assert_eq!(Some(reply.payload), stored(&r, &req));
        }
    }
    let statuses: Vec<OpStatus> = r.replies.borrow().iter().map(|p| p.status).collect();
    use OpStatus::*;
    assert_eq!(
        statuses,
        [
            Ok,
            Ok,
            Resolved,
            Ok,
            Resolved,
            Conflict,
            Ok,
            Ok,
            NoSuchObject
        ]
    );
    let merged = r.server.borrow().get_object(&urn("m")).cloned().unwrap();
    assert_eq!(merged.field("merged_from"), Some("1"), "merged path ran");

    let device = r.device.0.borrow_mut().read_all().unwrap();
    let records = commit_records(&device);
    assert_eq!(records.len(), images.len());
    for ((rec, image), reply) in records.iter().zip(&images).zip(r.replies.borrow().iter()) {
        assert_eq!(&rec.obj, image);
        assert_eq!(&rec.reply, reply);
    }
    let mut logged = Vec::new();
    for batch in batch_payloads(&device) {
        assert_eq!(
            decode_commit_batch(&batch).unwrap().len(),
            1,
            "a group of one"
        );
        logged.extend_from_slice(&batch[4..]);
    }
    assert_eq!((crc32(&logged), logged.len()), PER_OP_RECORDS);
    assert_eq!((crc32(&device), device.len()), PER_OP_DEVICE);
}

#[test]
fn committed_export_has_one_image_in_a_group() {
    let mut r = server_rig(CommitPolicy::Group {
        max_batch: 4,
        window: SimDuration::from_millis(5),
    });
    // All nine arrive inside one window: two full groups and a tail.
    let script = script();
    for req in &script {
        send(&mut r, req);
    }
    r.sim.run();
    let device = r.device.0.borrow_mut().read_all().unwrap();
    let records = commit_records(&device);
    assert_eq!(records.len(), script.len());
    for (rec, req) in records.iter().zip(&script) {
        assert_eq!(rec.req_id, req.req_id);
        let committed = matches!(req.op, RoverOp::Export { .. })
            && matches!(rec.reply.status, OpStatus::Ok | OpStatus::Resolved);
        assert_eq!(rec.obj, committed.then(|| rec.reply.payload.clone()));
    }
    // The last image of each object is the object as stored.
    for req in &script {
        let last = records
            .iter()
            .rev()
            .find(|rec| rec.urn == req.urn && rec.obj.is_some());
        if let Some(rec) = last {
            assert_eq!(rec.obj, stored(&r, req));
        }
    }
    let mut sent: Vec<QrpcReply> = r.replies.borrow().clone();
    sent.sort_by_key(|p| p.req_id);
    let logged: Vec<QrpcReply> = records.iter().map(|rec| rec.reply.clone()).collect();
    assert_eq!(sent, logged);
    assert_eq!((crc32(&device), device.len()), GROUP_DEVICE);
}

// --- client ---------------------------------------------------------------

/// Request envelopes as they reach the server's host, in arrival order.
type Wiretap = Rc<RefCell<Vec<Envelope>>>;

fn client_rig(rto: SimDuration) -> (Sim, Net, rover_net::LinkId, rover_core::ClientRef, Wiretap) {
    let mut sim = Sim::new(11);
    let net = Net::new();
    let link = net.add_link(LinkSpec::ETHERNET_10M, CLIENT, SERVER);
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = rto;
    let client = Client::new(&mut sim, &net, cfg, vec![link]);
    let tap: Wiretap = Rc::default();
    let sink = tap.clone();
    net.register_host(SERVER, move |_sim, _net, env: Envelope| {
        if env.kind == MsgKind::Request {
            sink.borrow_mut().push(env);
        }
    });
    (sim, net, link, client, tap)
}

#[test]
fn logged_image_is_the_wire_image_until_the_floor_moves() {
    let rto = SimDuration::from_secs(1);
    let (mut sim, net, link, client, tap) = client_rig(rto);
    let session = Client::create_session(&client, rover_core::Guarantees::NONE, false);
    let _p1 = Client::ping(&client, &mut sim, session, Priority::NORMAL);
    let _p2 = Client::ping(&client, &mut sim, session, Priority::NORMAL);
    sim.run_for(SimDuration::from_millis(500));
    let first: Vec<Envelope> = tap.borrow().clone();
    assert_eq!(first.len(), 2, "one transmission each so far");
    let second_req = QrpcRequest::from_shared(&first[1].body).unwrap();
    assert_eq!(
        (second_req.req_id, second_req.acked_below),
        (RequestId(2), 1)
    );

    // Answer request 1 only: the floor rises to 2, and request 2, still
    // unanswered, is retransmitted after two probe intervals.
    let reply = QrpcReply {
        req_id: RequestId(1),
        status: OpStatus::Ok,
        version: Version(0),
        payload: Bytes::new(),
    };
    net.send(&mut sim, link, Envelope::reply(SERVER, CLIENT, &reply))
        .unwrap();
    sim.run_for(SimDuration::from_secs(3));
    let again: Vec<Envelope> = tap.borrow()[2..].to_vec();
    assert_eq!(again.len(), 1, "request 2 retransmitted once");
    let resent = QrpcRequest::from_shared(&again[0].body).unwrap();
    assert_eq!(resent.acked_below, 2, "a stale image went out");
    assert_eq!(
        resent,
        QrpcRequest {
            acked_below: 2,
            ..second_req
        }
    );

    // What the stable log holds is what first went out, byte for byte.
    let log = OpLog::open_with(Client::crash(&client), FlushPolicy::Manual, false).unwrap();
    let logged: Vec<Bytes> = log
        .records()
        .filter(|r| r.kind == RecordKind::Request)
        .map(|r| r.payload.clone())
        .collect();
    let sent: Vec<Bytes> = first.iter().map(|env| env.body.clone()).collect();
    assert_eq!(logged, sent);
}
