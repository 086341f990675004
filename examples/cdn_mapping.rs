//! A CDN operator's view: how the ECS source prefix length affects
//! user-to-edge mapping quality across a world-spread client population —
//! the §8.3 experiment as a reusable tool.
//!
//! Run with: `cargo run --release --example cdn_mapping`

use ecs_study::experiments::fig67::{run, Config};

fn main() {
    for (label, config) in [
        ("CDN-1 (proximity needs /24)", Config::fig6()),
        ("CDN-2 (proximity needs /21)", Config::fig7()),
    ] {
        let (outcome, _) = run(&Config {
            probes: 400,
            ..config
        });
        println!("--- {label} ---");
        println!(
            "{:<6} {:>12} {:>12} {:>16}",
            "prefix", "median ms", "p90 ms", "unique answers"
        );
        for (len, q) in &outcome.by_length {
            println!(
                "/{:<5} {:>12.1} {:>12.1} {:>16}",
                len,
                q.median_ms,
                q.connect_cdf.quantile(0.9),
                q.unique_first_answers
            );
        }
        println!("minimum usable prefix length: /{}", outcome.min_usable);
        println!();
    }
    println!("Reading: once the prefix drops below each CDN's minimum, proximity");
    println!("mapping stops — the unique-answer count collapses and the median");
    println!("connect time jumps. Sending fewer bits than the minimum leaks client");
    println!("information for zero benefit (§8.3 of the paper).");
}
