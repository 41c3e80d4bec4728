//! The experiments, one module per DESIGN.md group.

pub mod ablations;
pub mod apps;
pub mod drain;
pub mod micro;
pub mod migration;
mod run;
pub mod scale;
pub mod soak;
pub mod tables;

/// All experiment ids, in report order.
pub const ALL: &[&str] = &[
    "t1-api",
    "t2-loc",
    "t3-apps",
    "e1-null-qrpc",
    "e2-breakdown",
    "e3-import-size",
    "e4-rdo-cache",
    "e5-migration",
    "e6-mail",
    "e7-calendar",
    "e8-web",
    "e9-drain",
    "a1-flush",
    "a2-compress",
    "a3-priority",
    "a4-consistency",
    "a5-callbacks",
    "a6-fragmentation",
    "s1-scale",
    "s2-shard-scaling",
    "s3-hot-balance",
];

/// Runs one experiment by id into a buffered [`Report`]; `None` for
/// unknown ids.
pub fn run_report(id: &str) -> Option<crate::report::Report> {
    let mut r = crate::report::Report::new(id);
    match id {
        "t1-api" => tables::t1_api(&mut r),
        "t2-loc" => tables::t2_loc(&mut r),
        "t3-apps" => tables::t3_apps(&mut r),
        "e1-null-qrpc" => micro::e1_null_qrpc(&mut r),
        "e2-breakdown" => micro::e2_breakdown(&mut r),
        "e3-import-size" => micro::e3_import_size(&mut r),
        "e4-rdo-cache" => micro::e4_rdo_cache(&mut r),
        "e5-migration" => migration::e5_migration(&mut r),
        "e6-mail" => apps::e6_mail(&mut r),
        "e7-calendar" => apps::e7_calendar(&mut r),
        "e8-web" => apps::e8_web(&mut r),
        "e9-drain" => drain::e9_drain(&mut r),
        "a1-flush" => ablations::a1_flush(&mut r),
        "a2-compress" => ablations::a2_compress(&mut r),
        "a3-priority" => ablations::a3_priority(&mut r),
        "a4-consistency" => ablations::a4_consistency(&mut r),
        "a5-callbacks" => ablations::a5_callbacks(&mut r),
        "a6-fragmentation" => ablations::a6_fragmentation(&mut r),
        "s1-scale" => scale::s1_scale(&mut r),
        "s2-shard-scaling" => scale::s2_shard_scaling(&mut r),
        "s3-hot-balance" => scale::s3_hot_balance(&mut r),
        _ => return None,
    }
    Some(r)
}
