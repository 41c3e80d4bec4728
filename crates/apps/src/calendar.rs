//! The Rover calendar (the paper's Ical port), headless.
//!
//! A calendar is one RDO whose fields are booked slots. Bookings made
//! while disconnected apply tentatively and commit on reconnection; the
//! object's own `resolve` proc implements the Bayou-style policy the
//! paper borrows — a conflicting booking is accepted iff its slot is
//! still free, otherwise it is reflected back to the user.

use rover_core::{
    Client, ClientRef, ExportHandle, Guarantees, Promise, RoverError, RoverObject, Urn,
};
use rover_sim::Sim;
use rover_wire::{Priority, SessionId};

/// Method-definition script for calendar objects.
pub const CALENDAR_CODE: &str = r#"
proc book {slot owner title} {
    if {[rover::has ev$slot]} {error "slot $slot taken"}
    rover::set ev$slot [list $owner $title]
}
proc cancel {slot owner} {
    if {![rover::has ev$slot]} {return}
    set e [rover::get ev$slot]
    if {[lindex $e 0] ne $owner} {error "not the owner"}
    rover::del ev$slot
}
proc lookup {slot} {rover::get ev$slot {}}
proc busy_count {} {llength [rover::keys ev*]}
proc agenda {} {
    set out {}
    foreach k [rover::keys ev*] {
        lappend out [concat [list [string range $k 2 end]] [rover::get $k]]
    }
    return $out
}
proc resolve {method args_list base} {
    if {$method eq "book"} {
        set slot [lindex $args_list 0]
        if {![rover::has ev$slot]} {return accept}
        return reject
    }
    if {$method eq "cancel"} {return accept}
    return reject
}
"#;

/// Builds an empty calendar object named `urn:rover:cal/<name>`.
pub fn calendar_object(name: &str) -> RoverObject {
    RoverObject::new(
        Urn::new("cal", name).expect("valid calendar urn"),
        "calendar",
    )
    .with_code(CALENDAR_CODE)
}

/// A headless calendar client (one replica of the shared calendar).
pub struct Calendar {
    /// Underlying toolkit client.
    pub client: ClientRef,
    /// This replica's session.
    pub session: SessionId,
    name: String,
    owner: String,
}

impl Calendar {
    /// Opens `owner`'s view of the shared calendar `name`.
    pub fn new(client: &ClientRef, name: &str, owner: &str, guarantees: Guarantees) -> Calendar {
        let session = Client::create_session(client, guarantees, true);
        Calendar {
            client: client.clone(),
            session,
            name: name.to_owned(),
            owner: owner.to_owned(),
        }
    }

    /// The calendar object's URN; [`RoverError::BadUrn`] if the
    /// calendar's name does not make one.
    pub fn urn(&self) -> Result<Urn, RoverError> {
        Urn::new("cal", &self.name)
    }

    /// Imports the calendar into the local cache.
    pub fn open(&self, sim: &mut Sim) -> Result<Promise, RoverError> {
        Client::import(
            &self.client,
            sim,
            &self.urn()?,
            self.session,
            Priority::FOREGROUND,
        )
    }

    /// Books a slot: tentative locally, queued to the home server.
    pub fn book(&self, sim: &mut Sim, slot: u32, title: &str) -> Result<ExportHandle, RoverError> {
        Client::export(
            &self.client,
            sim,
            &self.urn()?,
            self.session,
            "book",
            &[&slot.to_string(), &self.owner, title],
            Priority::NORMAL,
        )
    }

    /// Cancels one of this owner's bookings.
    pub fn cancel(&self, sim: &mut Sim, slot: u32) -> Result<ExportHandle, RoverError> {
        Client::export(
            &self.client,
            sim,
            &self.urn()?,
            self.session,
            "cancel",
            &[&slot.to_string(), &self.owner],
            Priority::NORMAL,
        )
    }

    /// Reads the agenda from the cached copy (tentative entries
    /// included — the user sees their own unsynced bookings).
    pub fn agenda_local(&self, sim: &mut Sim) -> Result<Promise, RoverError> {
        Client::invoke_local(&self.client, sim, &self.urn()?, "agenda", &[])
    }

    /// Looks a slot up on the cached copy.
    pub fn lookup_local(&self, sim: &mut Sim, slot: u32) -> Result<Promise, RoverError> {
        Client::invoke_local(
            &self.client,
            sim,
            &self.urn()?,
            "lookup",
            &[&slot.to_string()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rover_script::{Budget, Value};

    fn cal() -> RoverObject {
        calendar_object("test")
    }

    fn run(
        obj: &mut RoverObject,
        method: &str,
        args: &[&str],
    ) -> Result<Value, rover_core::RoverError> {
        let vals: Vec<Value> = args.iter().map(Value::str).collect();
        obj.run_method(method, &vals, Budget::default())
            .map(|r| r.result)
    }

    #[test]
    fn book_lookup_cancel_roundtrip() {
        let mut c = cal();
        run(&mut c, "book", &["9", "alice", "standup"]).unwrap();
        let e = run(&mut c, "lookup", &["9"]).unwrap();
        assert!(e.as_str().contains("alice"));
        run(&mut c, "cancel", &["9", "alice"]).unwrap();
        assert_eq!(run(&mut c, "lookup", &["9"]).unwrap(), Value::empty());
    }

    #[test]
    fn double_booking_errors_locally() {
        let mut c = cal();
        run(&mut c, "book", &["9", "alice", "a"]).unwrap();
        let err = run(&mut c, "book", &["9", "bob", "b"]).unwrap_err();
        assert!(err.to_string().contains("taken"));
        // The failed booking rolled back: alice still owns the slot.
        assert!(c.field("ev9").unwrap().contains("alice"));
    }

    #[test]
    fn cancel_by_non_owner_errors() {
        let mut c = cal();
        run(&mut c, "book", &["9", "alice", "a"]).unwrap();
        let err = run(&mut c, "cancel", &["9", "bob"]).unwrap_err();
        assert!(err.to_string().contains("owner"));
        assert!(c.field("ev9").is_some());
    }

    #[test]
    fn agenda_and_busy_count() {
        let mut c = cal();
        for (slot, who) in [("9", "alice"), ("14", "bob"), ("16", "carol")] {
            run(&mut c, "book", &[slot, who, "mtg"]).unwrap();
        }
        assert_eq!(run(&mut c, "busy_count", &[]).unwrap(), Value::Int(3));
        let agenda = run(&mut c, "agenda", &[]).unwrap().as_list().unwrap();
        assert_eq!(agenda.len(), 3);
        // Each agenda row is {slot owner title}.
        let row = agenda[0].as_list().unwrap();
        assert_eq!(row.len(), 3);
    }

    #[test]
    fn resolver_accepts_free_slot_rejects_taken() {
        let mut c = cal();
        run(&mut c, "book", &["9", "alice", "a"]).unwrap();
        assert_eq!(
            run(&mut c, "resolve", &["book", "9 bob b", "1"])
                .unwrap()
                .as_str(),
            "reject"
        );
        assert_eq!(
            run(&mut c, "resolve", &["book", "10 bob b", "1"])
                .unwrap()
                .as_str(),
            "accept"
        );
        assert_eq!(
            run(&mut c, "resolve", &["cancel", "9 alice", "1"])
                .unwrap()
                .as_str(),
            "accept"
        );
        assert_eq!(
            run(&mut c, "resolve", &["nuke_all", "", "1"])
                .unwrap()
                .as_str(),
            "reject"
        );
    }
}
