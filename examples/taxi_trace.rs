//! The real-trace code path, end to end: synthesise a San-Francisco-like
//! taxi trace with the hotspot mobility model, write it to the
//! `dtn-mobility` trace file format, reload it, verify its intermeeting
//! times fit an exponential (the paper's Fig. 3(b) argument), and run a
//! buffer-policy comparison on the replayed trace.
//!
//! Swapping in a *real* CRAWDAD conversion is a pure data change: write
//! the GPS samples in the same `node time x y` format.
//!
//! ```text
//! cargo run --release --example taxi_trace
//! ```

use sdsrp::analysis::fit::{fit_exponential, ks_distance_exponential};
use sdsrp::core::time::SimTime;
use sdsrp::mobility::trace::MobilityTrace;
use sdsrp::mobility::{build_fleet, MobilityConfig};
use sdsrp::sim::config::{presets, PolicyKind};
use sdsrp::sim::world::World;

fn main() {
    // 1. Synthesise 60 taxis for one simulated hour and record a trace.
    let n_taxis = 60;
    let duration = SimTime::from_secs(7200.0);
    let mut fleet = build_fleet(&MobilityConfig::paper_taxi(), n_taxis, 7);
    let trace = MobilityTrace::record(&mut fleet, duration, 10.0);
    println!(
        "recorded {} samples for {} taxis",
        trace.sample_count(),
        trace.node_count()
    );

    // 2. Round-trip through the text format (what a CRAWDAD conversion
    //    would produce).
    let path = std::env::temp_dir().join("sdsrp_taxi_trace.txt");
    trace.save(&path).expect("write trace");
    let reloaded = MobilityTrace::load(&path).expect("reload trace");
    assert_eq!(reloaded.sample_count(), trace.sample_count());
    println!("trace round-tripped through {}", path.display());

    // 3. Run a scenario that replays the trace file.
    let body = std::fs::read_to_string(&path).expect("read trace");
    let mut cfg = presets::smoke();
    cfg.name = "taxi-trace-replay".into();
    cfg.n_nodes = n_taxis;
    cfg.duration_secs = 7200.0;
    cfg.mobility = MobilityConfig::TraceText { body };

    println!(
        "\n{:<16} {:>9} {:>7} {:>9}",
        "policy", "delivery", "hops", "overhead"
    );
    for policy in PolicyKind::paper_four() {
        let mut c = cfg.clone();
        c.policy = policy;
        let r = World::build(&c).run();
        println!(
            "{:<16} {:>9.4} {:>7.2} {:>9.2}",
            policy.label(),
            r.delivery_ratio(),
            r.avg_hopcount(),
            r.overhead_ratio()
        );
    }

    // 4. Fig. 3(b)-style check: intermeeting times of the replayed trace
    //    approximately follow an exponential.
    let mut c = cfg.clone();
    c.policy = PolicyKind::Fifo;
    let mut world = World::build(&c);
    world.enable_contact_recording();
    let contacts = world.finish().contacts.expect("recording enabled");
    let mut gaps = contacts.intermeeting_times();
    if let Some(fit) = fit_exponential(&gaps) {
        let ks = ks_distance_exponential(&mut gaps, fit.lambda);
        println!(
            "\nintermeeting fit: E(I) = {:.0} s, lambda = {:.5}/s, CV = {:.2}, KS = {:.3}",
            fit.mean, fit.lambda, fit.cv, ks
        );
        println!(
            "(a CV near 1 and a small KS distance support the paper's exponential assumption)"
        );
    } else {
        println!("\nnot enough contacts for an intermeeting fit");
    }
}
