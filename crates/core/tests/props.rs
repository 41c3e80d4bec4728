//! Property tests for the toolkit core: URN validation, object wire
//! round-trips, RDO field semantics, and end-to-end exactly-once under
//! randomized connectivity.

use proptest::prelude::*;

use rover_core::{
    Client, ClientConfig, Guarantees, ReexecuteResolver, RoverObject, ServerConfig, Urn, World,
};
use rover_net::LinkSpec;
use rover_script::Budget;
use rover_sim::SimDuration;
use rover_wire::{HostId, Priority, Version, Wire};

proptest! {
    #[test]
    fn urn_roundtrips(auth in "[a-z][a-z0-9.-]{0,10}", path in "[a-z0-9/~._-]{0,24}") {
        // Normalize: no leading/trailing slash artifacts in this space.
        let urn = Urn::new(&auth, &path).unwrap();
        let back = Urn::parse(urn.as_str()).unwrap();
        prop_assert_eq!(back.authority(), auth);
        prop_assert_eq!(back.path(), path);
    }

    #[test]
    fn object_wire_roundtrip(
        fields in proptest::collection::btree_map("[a-z0-9_]{1,12}", "[ -~]{0,80}", 0..12),
        code in "[ -~\\n]{0,200}",
        version in any::<u64>(),
    ) {
        let mut obj = RoverObject::new(Urn::parse("urn:rover:p/t").unwrap(), "t");
        obj.fields = fields.into_iter().collect();
        obj.code = code;
        obj.version = Version(version);
        let back = RoverObject::from_bytes(&obj.to_bytes()).unwrap();
        prop_assert_eq!(back, obj);
    }

    #[test]
    fn rdo_set_get_is_identity(key in "[a-z]{1,10}", val in "[a-zA-Z0-9 ]{0,40}") {
        let mut obj = RoverObject::new(Urn::parse("urn:rover:p/t").unwrap(), "t")
            .with_code("proc put {k v} {rover::set $k $v}\nproc get {k} {rover::get $k}");
        obj.run_method("put", &[rover_script::Value::str(&key), rover_script::Value::str(&val)], Budget::default())
            .unwrap();
        let run = obj
            .run_method("get", &[rover_script::Value::str(&key)], Budget::default())
            .unwrap();
        prop_assert_eq!(run.result.as_str(), val);
    }

    // End-to-end invariant: no matter how connectivity flaps, every
    // queued increment is applied exactly once and all promises settle.
    #[test]
    fn exactly_once_under_random_connectivity(
        ops in 1usize..12,
        flaps in proptest::collection::vec((1u64..20, 1u64..20), 0..6),
        seed in 0u64..1000,
    ) {
        let mut w = World::new(seed);
        let (ch, sh) = (HostId(1), HostId(2));
        let server = w.server(ServerConfig::workstation(sh));
        server.borrow_mut().register_resolver("counter", Box::new(ReexecuteResolver));
        let urn = Urn::parse("urn:rover:p/ctr").unwrap();
        w.put_counter(&urn, 0);
        let mut cfg = ClientConfig::thinkpad(ch, sh);
        cfg.rto = SimDuration::from_secs(10);
        let client = w.client(cfg, LinkSpec::CSLIP_14_4);
        let link = w.links_of(ch)[0];
        let World { mut sim, net, .. } = w;
        let session = Client::create_session(&client, Guarantees::ALL, true);

        let p = Client::import(&client, &mut sim, &urn, session, Priority::FOREGROUND).unwrap();
        sim.run();
        prop_assert!(p.is_ready());

        // Schedule the connectivity flaps.
        let mut t = sim.now();
        for (up_s, down_s) in &flaps {
            t += SimDuration::from_secs(*up_s);
            let net2 = net.clone();
            sim.schedule_at(t, move |sim| net2.set_up(sim, link, false));
            t += SimDuration::from_secs(*down_s);
            let net2 = net.clone();
            sim.schedule_at(t, move |sim| net2.set_up(sim, link, true));
        }

        // Issue the increments, spaced out.
        let mut handles = Vec::new();
        for _ in 0..ops {
            let h = Client::export(
                &client, &mut sim, &urn, session, "add", &["1"], Priority::NORMAL,
            )
            .unwrap();
            handles.push(h);
            sim.run_for(SimDuration::from_secs(3));
        }
        sim.run();

        prop_assert!(handles.iter().all(|h| h.committed.is_ready()));
        prop_assert_eq!(Client::outstanding_count(&client), 0);
        let sv = server.borrow();
        let n = sv.get_object(&urn).unwrap().field("n").unwrap().to_owned();
        prop_assert_eq!(n, ops.to_string());
    }
}
