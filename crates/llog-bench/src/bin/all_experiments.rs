//! Run every experiment table in sequence (the EXPERIMENTS.md generator).
fn main() {
    for (name, table) in [
        (
            "E1 — Figure 1: logging cost",
            llog_bench::e1_logging_cost::table(),
        ),
        (
            "E2 — domain logging cost",
            llog_bench::e2_domain_logging::table(),
        ),
        (
            "E3a — Figure 7 trace",
            llog_bench::e3_flushsets::figure7_table(),
        ),
        (
            "E3b — flush-set sweep",
            llog_bench::e3_flushsets::sweep_table(),
        ),
        (
            "E4 — flush-set break-up costs",
            llog_bench::e4_flush_break::table(),
        ),
        ("E5 — REDO tests", llog_bench::e5_redo_tests::table()),
        ("E6 — checkpointing", llog_bench::e6_checkpointing::table()),
        ("E7 — ablation", llog_bench::e7_ablation::table()),
        (
            "E8 — fuzzy backups / media recovery",
            llog_bench::e8_media::table(),
        ),
        (
            "E9 — cache pressure",
            llog_bench::e9_cache_pressure::table(),
        ),
        (
            "E10 — flush amortization",
            llog_bench::e10_amortization::table(),
        ),
    ] {
        println!("== {name} ==");
        println!("{table}");
    }
    let ok = (1..=5u64).all(llog_bench::e6_checkpointing::idempotency_check);
    println!(
        "Theorem 2 idempotency: {}",
        if ok { "HOLDS" } else { "VIOLATED" }
    );
}
