//! The repository's design checks, run with every `cargo test`:
//! `ci/census.sh` finds each public item that no shipped line outside its
//! file names and holds that list to `ci/census_allow`, then fires the
//! name and shape bans of `ci/bans`. See DESIGN.md "The census and the
//! bans".

use std::process::Command;

#[test]
fn every_public_item_has_a_caller_or_a_reason_and_no_ban_fires() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new("bash")
        .arg("ci/census.sh")
        .current_dir(root)
        .output()
        .expect("bash runs ci/census.sh");
    assert!(
        out.status.success(),
        "ci/census.sh failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
