//! `apps`: what each method of the `rdo-local` mix costs on its own.

use super::Out;
use crate::measure::median;
use crate::trace::Tracer;
use crate::workloads::rdo::Rdo;
use crate::workloads::{Env, Workload};

pub fn pass(env: &Env<'_>, out: &mut Out) -> Result<(), String> {
    let mut rdo = Rdo::new(env, true)?;
    let mut off = Tracer::new(false);
    // Two slices: a thousand `summaries` and `agenda` calls at full size.
    for _ in 0..2 {
        rdo.slice(&mut off)?;
    }
    let times = rdo.times.take().ok_or("per-method times were not kept")?;
    for (name, sample) in [
        ("apps.mail_summaries_us", &times.summaries),
        ("apps.calendar_agenda_us", &times.agenda),
        ("apps.calendar_lookup_us", &times.lookup),
    ] {
        out.put(name, median(sample), sample.len());
    }
    Ok(())
}
