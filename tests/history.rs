//! Mutation tests for the history oracle: a small run holds the
//! contract, and each injected violation is flagged by its property's
//! name.

use rover::script::Value;
use rover::{Client, ClientConfig, ClientRef, ExportHandle, Guarantees, History, LinkSpec};
use rover::{HostId, OpStatus, Outcome, Priority, Promise, ReexecuteResolver, ServerConfig};
use rover::{SessionId, SimTime, Urn, Version, World};

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);
const P: Priority = Priority::NORMAL;

/// One client reads a counter, adds 1 three times (awaiting each) and
/// reads it again, every op recorded: the counter ends at n = 3, v4.
struct Run {
    w: World,
    hist: History,
    cl: ClientRef,
    s: SessionId,
    urn: Urn,
}

impl Run {
    fn new() -> Run {
        let mut w = World::new(45);
        let sv = w.server(ServerConfig::workstation(SERVER));
        sv.borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        let (urn, mut hist) = (Urn::parse("urn:rover:t/c").unwrap(), History::default());
        hist.put_counter(&w, &urn, 0).unwrap();
        let cl = w.client(
            ClientConfig::thinkpad(CLIENT, SERVER),
            LinkSpec::ETHERNET_10M,
        );
        let s = Client::create_session(&cl, Guarantees::ALL, true);
        let mut run = Run {
            w,
            hist,
            cl,
            s,
            urn,
        };
        run.read();
        for _ in 0..3 {
            let (now, h) = run.add();
            run.hist.write(now, CLIENT, run.s, 0, 1, &h);
        }
        run.read();
        run
    }

    /// Imports the counter, records the read and runs it to completion.
    fn read(&mut self) {
        let now = self.w.sim.now();
        let p = Client::import(&self.cl, &mut self.w.sim, &self.urn, self.s, P).unwrap();
        self.hist.read(now, CLIENT, self.s, 0, &p);
        self.w.sim.run();
    }

    /// Exports `add 1` and runs it to completion, unrecorded.
    fn add(&mut self) -> (SimTime, ExportHandle) {
        let now = self.w.sim.now();
        let (cl, sim) = (&self.cl, &mut self.w.sim);
        let h = Client::export(cl, sim, &self.urn, self.s, "add", &["1"], P).unwrap();
        self.w.sim.run();
        (now, h)
    }

    /// Records the export `h`, issued at `now`, as settled `status` at `v`.
    fn forge(&mut self, now: SimTime, h: ExportHandle, status: OpStatus, v: u64) {
        let o = Outcome::ok(Value::empty(), Version(v));
        let committed = Promise::resolved(&self.w.sim, Outcome { status, ..o });
        let h = ExportHandle { committed, ..h };
        self.hist.write(now, CLIENT, self.s, 0, 1, &h);
    }

    fn check(&self) -> Result<rover::core::Summary, String> {
        self.hist.check(&self.w, std::slice::from_ref(&self.cl))
    }

    /// Asserts the check fails and names `property` first.
    fn flags(&self, property: &str) {
        let err = self.check().unwrap_err();
        assert!(err.starts_with(&format!("{property}: ")), "{err}");
    }
}

#[test]
fn a_clean_run_holds_the_contract() {
    let s = Run::new().check().unwrap();
    assert_eq!((s.committed, s.totals, s.reexecs), (3, vec![3], 0));
}

#[test]
fn a_reexecution_breaks_exactly_once() {
    let mut run = Run::new();
    run.add();
    run.flags("exactly-once");
}

#[test]
fn a_regressed_read_breaks_monotonic_reads() {
    let mut run = Run::new();
    let p = Promise::resolved(&run.w.sim, Outcome::ok(Value::empty(), Version(2)));
    run.hist.read(run.w.sim.now(), CLIENT, run.s, 0, &p);
    run.flags("monotonic-reads");
}

#[test]
fn a_write_at_the_read_floor_breaks_writes_follow_reads() {
    // The fourth add commits at v5; report it at v4, the version the
    // session last read, as a server that skipped the hold would.
    let mut run = Run::new();
    let (now, h) = run.add();
    run.forge(now, h, OpStatus::Ok, 4);
    run.flags("writes-follow-reads");
}

#[test]
fn a_lost_reply_breaks_the_committed_prefix() {
    // A fresh incarnation on the server's host with the store image but
    // not the executed set: every replied write is gone from it.
    let mut run = Run::new();
    let home = run.w.home(&run.urn).unwrap().borrow();
    let image = home.get_object(&run.urn).unwrap().clone();
    drop(home);
    let fresh = run.w.server(ServerConfig::workstation(SERVER));
    fresh.borrow_mut().put_object(image);
    run.flags("committed-prefix");
}

#[test]
fn a_reused_request_id_breaks_unique_ids() {
    let mut run = Run::new();
    let (now, h) = run.add();
    run.hist.write(now, CLIENT, run.s, 0, 1, &h);
    run.hist.write(now, CLIENT, run.s, 0, 1, &h);
    run.flags("unique-ids");
}

#[test]
fn a_conflicted_write_breaks_settled() {
    let mut run = Run::new();
    let (now, h) = run.add();
    run.forge(now, h, OpStatus::Conflict, 5);
    run.flags("settled");
}
