//! The paper's claims at smoke scale on the 1999 generation, held to
//! their golden files (`paper::golden_path`): the tables and verdicts
//! that read the same on every run. The `paper` binary checks the same
//! files, and the current generation's, the full scale's and the
//! `scale` sweep's too, in CI's `bench-smoke` job.

use nowmp_bench::paper::{self, ClaimFn};
use nowmp_bench::Scale;
use nowmp_tmk::DsmConfig;

fn check(name: &str, run: ClaimFn) {
    let claim = run(Scale::Smoke, DsmConfig::default_4k().generation_1999());
    let path = paper::golden_path(name, "1999", Scale::Smoke);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        golden
            .lines()
            .any(|l| l.starts_with("= ") || l.starts_with("holds: ") || l.starts_with("fails: ")),
        "{} pins nothing",
        path.display()
    );
    let diff = paper::golden_diff(&claim, &golden);
    assert!(
        diff.is_empty(),
        "{name} departs from {}:\n{}\n\nThe run printed:\n{claim}",
        path.display(),
        diff.join("\n")
    );
}

#[test]
fn table1() {
    check("table1", paper::table1);
}

#[test]
fn table2() {
    check("table2", paper::table2);
}

#[test]
fn fig2() {
    check("fig2", paper::fig2);
}

#[test]
fn fig3() {
    check("fig3", paper::fig3);
}

#[test]
fn sec5_1() {
    check("sec5_1", paper::sec5_1);
}

#[test]
fn sec5_3() {
    check("sec5_3", paper::sec5_3);
}

#[test]
fn sec5_4() {
    check("sec5_4", paper::sec5_4);
}

/// CI's six scaling floors are pinned as holding at smoke scale, at
/// their thresholds. (The sweep itself runs in `paper scale --smoke`,
/// not here: in a debug build it takes minutes.)
#[test]
fn scale_pins_its_six_floors() {
    let (generation, _) = paper::generations("scale").remove(0);
    let path = paper::golden_path("scale", generation, Scale::Smoke);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for floor in [
        "tree/tree homogeneous S(16) >= 3.9",
        "tree/tree homogeneous S(32) >= 3.85",
        "tree/tree over flat/flat at 32 hosts >= 5.7",
        "tree reduce over flat reduce at 32 hosts >= 1.12",
        "NBF overlap homogeneous S(32) >= 1.2",
        "NBF overlap over demand at 32 hosts >= 1.34",
    ] {
        let pinned = format!("holds: {floor}");
        assert!(
            golden.lines().any(|l| l == pinned),
            "{} does not pin `{pinned}`",
            path.display()
        );
    }
}
