//! Function shipping and adaptive placement: the same query answered
//! three ways — fetch-the-data, ship-the-function, and letting the
//! toolkit decide — over a 14.4 K modem.
//!
//! Run with: `cargo run --example function_shipping`

use rover::core::{Placement, PlacementHints};
use rover::{
    Client, ClientConfig, Guarantees, LinkSpec, Priority, RoverObject, ServerConfig, Sim, Urn,
    World,
};
use rover_wire::HostId;

fn build_world() -> (
    Sim,
    rover::ServerRef,
    rover::ClientRef,
    rover::SessionId,
    Urn,
) {
    let mut w = World::new(95);
    let (pda, home) = (HostId(1), HostId(2));
    let server = w.server(ServerConfig::workstation(home));

    // A 400-entry phone directory with a search method — the classic
    // "ship the query to the data" workload.
    let mut dir = RoverObject::new(Urn::parse("urn:rover:org/directory").unwrap(), "directory")
        .with_code(
            "proc find {pat} {
                 set out {}
                 foreach k [rover::keys person*] {
                     set rec [rover::get $k]
                     if {[string match $pat $rec]} {lappend out $rec}
                 }
                 return $out
             }",
        );
    for i in 0..400 {
        dir.fields.insert(
            format!("person{i:03}"),
            format!(
                "{} {} x{:04} office-{}",
                NAMES[i % NAMES.len()],
                SURNAMES[i % SURNAMES.len()],
                1000 + i,
                i % 40
            ),
        );
    }
    server.borrow_mut().put_object(dir);

    let client = w.client(ClientConfig::thinkpad(pda, home), LinkSpec::CSLIP_14_4);
    let World { sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let urn = Urn::parse("urn:rover:org/directory").unwrap();
    (sim, server, client, session, urn)
}

const NAMES: &[&str] = &[
    "ada", "grace", "alan", "edsger", "barbara", "leslie", "tony", "john",
];
const SURNAMES: &[&str] = &[
    "lovelace", "hopper", "turing", "dijkstra", "liskov", "lamport",
];

fn main() {
    println!("Find everyone named 'grace *' in a 400-entry directory, over CSLIP-14.4K.\n");

    // Strategy 1: ship the data (import + run locally = `load`).
    let (mut sim, _sv, client, session, urn) = build_world();
    let t0 = sim.now();
    let q = Client::load(
        &client,
        &mut sim,
        &urn,
        session,
        "find",
        &["grace *"],
        Priority::FOREGROUND,
    )
    .unwrap();
    sim.run();
    let data_time = q.resolved_at().unwrap().since(t0);
    let hits = q.poll().unwrap().value.as_list().unwrap().len();
    println!(
        "ship the data:     {hits:>3} matches in {data_time}  (whole directory crossed the modem)"
    );

    // Strategy 2: ship the function (server-side search).
    let (mut sim, _sv, client, session, urn) = build_world();
    let t0 = sim.now();
    let q = Client::invoke_remote(
        &client,
        &mut sim,
        &urn,
        session,
        "find",
        &["grace *"],
        Priority::FOREGROUND,
    )
    .unwrap();
    sim.run();
    let fn_time = q.resolved_at().unwrap().since(t0);
    let hits = q.poll().unwrap().value.as_list().unwrap().len();
    println!("ship the function: {hits:>3} matches in {fn_time}  (only matches crossed the modem)");

    // Strategy 3: let Rover decide from hints.
    let (mut sim, _sv, client, session, urn) = build_world();
    let t0 = sim.now();
    let (q, placement) = Client::invoke_adaptive(
        &client,
        &mut sim,
        &urn,
        session,
        "find",
        &["grace *"],
        PlacementHints {
            result_bytes: 70 * 40,
            object_bytes: Some(400 * 48),
            compute_steps: 400 * 5,
            reuse_likely: false,
        },
        Priority::FOREGROUND,
    )
    .unwrap();
    sim.run();
    let ad_time = q.resolved_at().unwrap().since(t0);
    let hits = q.poll().unwrap().value.as_list().unwrap().len();
    let what = match placement {
        Placement::Remote => "shipped the function",
        Placement::ImportThenLocal => "imported the data",
        Placement::Local => "used the cache",
    };
    println!("adaptive:          {hits:>3} matches in {ad_time}  (Rover {what})");
    assert_eq!(placement, Placement::Remote);
    assert!(ad_time <= data_time);
}
