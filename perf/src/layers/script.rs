//! `script`: interpreter throughput on a loop, the cost of the cheapest
//! warm call, and the first call on source the process has never seen.

use std::sync::atomic::{AtomicU64, Ordering};

use rover_apps::mail::FOLDER_CODE;
use rover_core::{RoverObject, Urn};
use rover_script::{Budget, Value};

use super::{batch_ns, each_us, Out, SAMPLES};
use crate::measure::median;
use crate::workloads::rdo::loop_object;
use crate::workloads::Env;

pub fn pass(env: &Env<'_>, out: &mut Out) -> Result<(), String> {
    let mut obj = loop_object();
    let mut steps = 0u64;
    let mut broken = None;
    let spin = each_us(SAMPLES, || {
        match obj.run_method("spin", &[Value::Int(1000)], Budget::default()) {
            Ok(run) => steps = run.steps,
            Err(e) => broken = Some(e.to_string()),
        }
    });
    if let Some(e) = broken {
        return Err(format!("spin: {e}"));
    }
    out.put(
        "script.steps_per_s",
        steps as f64 / (median(&spin) / 1e6),
        spin.len(),
    );

    let warm = batch_ns(SAMPLES, 20, || {
        std::hint::black_box(obj.run_method("get", &[], Budget::default()).is_ok());
    });
    out.put("script.invoke_ns_warm", median(&warm), warm.len());

    // The parser interns source text per thread, so "never seen" needs
    // text that differs on every call, in every pass of this process.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let urn = Urn::new("bench", "fresh").expect("static urn");
    let mut objects: Vec<(RoverObject, String)> = (0..SAMPLES)
        .map(|_| {
            let probe = format!("probe{}_{}", env.seed, NEXT.fetch_add(1, Ordering::Relaxed));
            let code = format!("{FOLDER_CODE}\nproc {probe} {{}} {{rover::get n 0}}\n");
            (
                RoverObject::new(urn.clone(), "blob").with_code(&code),
                probe,
            )
        })
        .collect();
    let mut next = 0usize;
    let first = each_us(SAMPLES, || {
        let (obj, probe) = &mut objects[next];
        next += 1;
        std::hint::black_box(obj.run_method(probe, &[], Budget::default()).is_ok());
    });
    out.put("script.first_invoke_us", median(&first), first.len());
    Ok(())
}
