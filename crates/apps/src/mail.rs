//! The Rover mail reader (the paper's Exmh port), headless.
//!
//! Folders and messages are RDOs at a mail home server:
//!
//! - a *folder* object holds the message-id list and per-message summary
//!   lines, with commutative `add_msg`/`del_msg` methods (its `resolve`
//!   proc accepts them, so two disconnected readers merge cleanly);
//! - each *message* is its own object, fetched on demand and prefetched
//!   ahead of disconnection;
//! - an *outbox* spool object receives composed messages by exported
//!   `deposit` operations — composing while disconnected queues the send
//!   exactly like the paper's QRPC-over-SMTP mail delivery.

use rover_core::{
    collection_object, Client, ClientRef, ExportHandle, Guarantees, Promise, RoverError,
    RoverObject, ServerRef, Urn,
};
use rover_script::{format_list, Value};
use rover_sim::Sim;
use rover_wire::{Priority, SessionId};

use crate::workload::TextGen;

/// Method-definition script for folder objects.
pub const FOLDER_CODE: &str = r#"
proc add_msg {id from size subject} {
    set ids [rover::get ids {}]
    lappend ids $id
    rover::set ids $ids
    rover::set sum$id [list $from $size $subject]
}
proc del_msg {id} {
    set out {}
    foreach m [rover::get ids {}] {
        if {$m ne $id} {lappend out $m}
    }
    rover::set ids $out
    rover::del sum$id
}
proc count {} {llength [rover::get ids {}]}
proc summaries {} {
    set out {}
    foreach m [rover::get ids {}] {
        lappend out [concat [list $m] [rover::get sum$m {}]]
    }
    return $out
}
proc filter_from {who} {
    set out {}
    foreach m [rover::get ids {}] {
        set s [rover::get sum$m {}]
        if {[string match $who [lindex $s 0]]} {lappend out $m}
    }
    return $out
}
proc resolve {method args_list base} {
    if {$method eq "add_msg" || $method eq "del_msg"} {return accept}
    return reject
}
"#;

/// Method-definition script for the outbox spool.
pub const SPOOL_CODE: &str = r#"
proc deposit {id from subject body} {
    rover::set msg$id [list $from $subject $body]
}
proc spooled {} {llength [rover::keys msg*]}
proc resolve {method args_list base} {
    if {$method eq "deposit"} {return accept}
    return reject
}
"#;

/// The headless mail reader.
pub struct MailReader {
    /// Underlying toolkit client.
    pub client: ClientRef,
    /// This reader's session.
    pub session: SessionId,
    user: String,
}

impl MailReader {
    /// Creates a reader for `user`, opening a session with the given
    /// guarantees (tentative data accepted — a mail UI shows queued
    /// sends immediately).
    pub fn new(client: &ClientRef, user: &str, guarantees: Guarantees) -> MailReader {
        let session = Client::create_session(client, guarantees, true);
        MailReader {
            client: client.clone(),
            session,
            user: user.to_owned(),
        }
    }

    /// URN of one of this user's folders; [`RoverError::BadUrn`] if the
    /// names do not make one (a space, a `<`).
    pub fn folder_urn(&self, folder: &str) -> Result<Urn, RoverError> {
        Urn::new("mail", &format!("{}/{folder}", self.user))
    }

    /// URN of a message within a folder.
    pub fn msg_urn(&self, folder: &str, id: &str) -> Result<Urn, RoverError> {
        Urn::new("mail", &format!("{}/{folder}/{id}", self.user))
    }

    /// URN of this user's outbox spool.
    pub fn outbox_urn(&self) -> Result<Urn, RoverError> {
        Urn::new("mail", &format!("{}/outbox", self.user))
    }

    /// Imports a folder (summary lines included) at foreground priority.
    pub fn open_folder(&self, sim: &mut Sim, folder: &str) -> Result<Promise, RoverError> {
        Client::import(
            &self.client,
            sim,
            &self.folder_urn(folder)?,
            self.session,
            Priority::FOREGROUND,
        )
    }

    /// Imports one message for display.
    pub fn read_message(
        &self,
        sim: &mut Sim,
        folder: &str,
        id: &str,
    ) -> Result<Promise, RoverError> {
        Client::import(
            &self.client,
            sim,
            &self.msg_urn(folder, id)?,
            self.session,
            Priority::FOREGROUND,
        )
    }

    /// Prefetches message bodies (before an anticipated disconnection).
    pub fn prefetch_messages(
        &self,
        sim: &mut Sim,
        folder: &str,
        ids: &[String],
    ) -> Result<(), RoverError> {
        let urns: Vec<Urn> = ids
            .iter()
            .map(|id| self.msg_urn(folder, id))
            .collect::<Result<_, _>>()?;
        Client::prefetch(&self.client, sim, &urns, self.session);
        Ok(())
    }

    /// URN of a folder's hoard collection (built by [`MailboxGen`]).
    pub fn hoard_urn(&self, folder: &str) -> Result<Urn, RoverError> {
        Urn::new("mail", &format!("{}/{folder}/hoard", self.user))
    }

    /// Hoards a whole folder with one request: fetches the folder's
    /// collection object and prefetches every member (folder index and
    /// all message bodies) — the paper's one-click "collections of
    /// objects to be prefetched".
    pub fn hoard(&self, sim: &mut Sim, folder: &str) -> Result<Promise, RoverError> {
        Client::prefetch_collection(&self.client, sim, &self.hoard_urn(folder)?, self.session)
    }

    /// Lists message summaries from the cached folder copy (local RDO
    /// invocation — no network).
    pub fn summaries_local(&self, sim: &mut Sim, folder: &str) -> Result<Promise, RoverError> {
        Client::invoke_local(
            &self.client,
            sim,
            &self.folder_urn(folder)?,
            "summaries",
            &[],
        )
    }

    /// Filters the folder by sender *at the server* (function shipping;
    /// only matching ids cross the link).
    pub fn filter_remote(
        &self,
        sim: &mut Sim,
        folder: &str,
        who: &str,
    ) -> Result<Promise, RoverError> {
        Client::invoke_remote(
            &self.client,
            sim,
            &self.folder_urn(folder)?,
            self.session,
            "filter_from",
            &[who],
            Priority::FOREGROUND,
        )
    }

    /// Composes a message: deposits it in the outbox spool. Works
    /// disconnected — the deposit commits tentatively and drains later.
    pub fn compose(
        &self,
        sim: &mut Sim,
        id: &str,
        subject: &str,
        body: &str,
    ) -> Result<ExportHandle, RoverError> {
        Client::export(
            &self.client,
            sim,
            &self.outbox_urn()?,
            self.session,
            "deposit",
            &[id, &self.user, subject, body],
            Priority::NORMAL,
        )
    }

    /// Deletes a message from a folder (summary line removed; the
    /// message object is left for the server's garbage collection).
    pub fn delete_message(
        &self,
        sim: &mut Sim,
        folder: &str,
        id: &str,
    ) -> Result<ExportHandle, RoverError> {
        Client::export(
            &self.client,
            sim,
            &self.folder_urn(folder)?,
            self.session,
            "del_msg",
            &[id],
            Priority::NORMAL,
        )
    }
}

/// Synthetic mailbox builder: populates a server with a folder, its
/// messages, and the user's outbox.
pub struct MailboxGen {
    /// Mailbox owner.
    pub user: String,
    /// Folder name.
    pub folder: String,
    /// Number of messages.
    pub count: usize,
    /// RNG seed (content is deterministic per seed).
    pub seed: u64,
}

impl MailboxGen {
    /// Builds the objects at `server`; returns the generated message
    /// ids in folder order.
    pub fn populate(&self, server: &ServerRef) -> Vec<String> {
        let mut gen = TextGen::new(self.seed);
        let mut ids = Vec::with_capacity(self.count);
        let mut folder = RoverObject::new(
            Urn::new("mail", &format!("{}/{}", self.user, self.folder)).expect("urn"),
            "mailfolder",
        )
        .with_code(FOLDER_CODE);

        let mut id_list = Vec::new();
        for i in 0..self.count {
            let id = format!("m{i:04}");
            let from = gen.user().to_owned();
            let subject = gen.title(4);
            let size = gen.mail_size();
            let body = gen.text(size);

            let msg = RoverObject::new(
                Urn::new("mail", &format!("{}/{}/{id}", self.user, self.folder)).expect("urn"),
                "mailmsg",
            )
            .with_field("from", &from)
            .with_field("subject", &subject)
            .with_field("date", &format!("1995-09-{:02}", (i % 28) + 1))
            .with_field("body", &body);
            server.borrow_mut().put_object(msg);

            let summary = format_list(&[
                Value::str(&from),
                Value::Int(size as i64),
                Value::str(&subject),
            ]);
            folder.fields.insert(format!("sum{id}"), summary);
            id_list.push(Value::str(&id));
            ids.push(id);
        }
        folder.fields.insert("ids".into(), format_list(&id_list));
        server.borrow_mut().put_object(folder);

        let outbox = RoverObject::new(
            Urn::new("mail", &format!("{}/outbox", self.user)).expect("urn"),
            "spool",
        )
        .with_code(SPOOL_CODE);
        server.borrow_mut().put_object(outbox);

        // The folder's hoard collection: folder index + every message.
        let mut members =
            vec![Urn::new("mail", &format!("{}/{}", self.user, self.folder)).expect("urn")];
        members.extend(ids.iter().map(|id| {
            Urn::new("mail", &format!("{}/{}/{id}", self.user, self.folder)).expect("urn")
        }));
        let hoard = collection_object(
            Urn::new("mail", &format!("{}/{}/hoard", self.user, self.folder)).expect("urn"),
            &members,
        );
        server.borrow_mut().put_object(hoard);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rover_script::Budget;

    fn folder() -> RoverObject {
        RoverObject::new(Urn::new("mail", "t/inbox").unwrap(), "mailfolder").with_code(FOLDER_CODE)
    }

    fn run(obj: &mut RoverObject, method: &str, args: &[&str]) -> Value {
        let vals: Vec<Value> = args.iter().map(Value::str).collect();
        obj.run_method(method, &vals, Budget::default())
            .expect(method)
            .result
    }

    #[test]
    fn folder_add_count_and_summaries() {
        let mut f = folder();
        run(&mut f, "add_msg", &["m1", "alice", "120", "hello world"]);
        run(&mut f, "add_msg", &["m2", "bob", "80", "lunch?"]);
        assert_eq!(run(&mut f, "count", &[]), Value::Int(2));
        let sums = run(&mut f, "summaries", &[]).as_list().unwrap();
        assert_eq!(sums.len(), 2);
        let first = sums[0].as_list().unwrap();
        assert_eq!(first[0].as_str(), "m1");
        assert_eq!(first[1].as_str(), "alice");
        assert_eq!(first[3].as_str(), "hello world");
    }

    #[test]
    fn folder_delete_removes_id_and_summary() {
        let mut f = folder();
        run(&mut f, "add_msg", &["m1", "alice", "1", "a"]);
        run(&mut f, "add_msg", &["m2", "bob", "2", "b"]);
        run(&mut f, "del_msg", &["m1"]);
        assert_eq!(run(&mut f, "count", &[]), Value::Int(1));
        assert!(f.field("summ1").is_none());
        assert!(f.field("ids").unwrap().contains("m2"));
    }

    #[test]
    fn folder_filter_matches_sender_glob() {
        let mut f = folder();
        run(&mut f, "add_msg", &["m1", "alice", "1", "a"]);
        run(&mut f, "add_msg", &["m2", "bob", "2", "b"]);
        run(&mut f, "add_msg", &["m3", "alfred", "3", "c"]);
        let hits = run(&mut f, "filter_from", &["al*"]).as_list().unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn folder_resolver_accepts_commutative_ops_only() {
        let mut f = folder();
        let accept = run(&mut f, "resolve", &["add_msg", "m9 carol 5 subject", "3"]);
        assert_eq!(accept.as_str(), "accept");
        let reject = run(&mut f, "resolve", &["overwrite_all", "", "3"]);
        assert_eq!(reject.as_str(), "reject");
    }

    #[test]
    fn spool_deposit_and_count() {
        let mut s =
            RoverObject::new(Urn::new("mail", "t/outbox").unwrap(), "spool").with_code(SPOOL_CODE);
        run(&mut s, "deposit", &["o1", "alice", "subj", "body text"]);
        run(&mut s, "deposit", &["o2", "alice", "subj2", "more text"]);
        assert_eq!(run(&mut s, "spooled", &[]), Value::Int(2));
        assert!(s.field("msgo1").unwrap().contains("body text"));
    }

    #[test]
    fn mailbox_gen_is_deterministic_and_complete() {
        use rover_core::{ServerConfig, World};
        let mut w = World::new(0);
        let s1 = w.server(ServerConfig::workstation(rover_wire::HostId(9)));
        let s2 = w.server(ServerConfig::workstation(rover_wire::HostId(9)));
        let g = |sv: &rover_core::ServerRef| {
            MailboxGen {
                user: "u".into(),
                folder: "f".into(),
                count: 12,
                seed: 4,
            }
            .populate(sv)
        };
        let ids1 = g(&s1);
        let ids2 = g(&s2);
        assert_eq!(ids1, ids2);
        assert_eq!(s1.borrow().object_count(), 12 + 3); // msgs + folder + outbox + hoard
        let f1 = s1
            .borrow()
            .get_object(&Urn::new("mail", "u/f").unwrap())
            .unwrap()
            .clone();
        let f2 = s2
            .borrow()
            .get_object(&Urn::new("mail", "u/f").unwrap())
            .unwrap()
            .clone();
        assert_eq!(f1, f2);
    }
}
