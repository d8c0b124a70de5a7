//! Out-of-range flag values fail closed: a one-line `error:` on stderr
//! and exit 1, like any other bad flag, never a panic.

use std::process::Command;

/// Runs `args`, asserts the rejection and returns what went to stdout
/// and stderr.
fn assert_rejected(args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_turbulence"))
        .args(args)
        .output()
        .expect("run turbulence");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: stderr {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: stderr {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("internal failure"), "{args:?}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (stdout, stderr.into_owned())
}

#[test]
fn groups_outside_the_ring_range_are_rejected() {
    for groups in ["0", "1", "65"] {
        assert_rejected(&["fleet", "--groups", groups, "--sessions", "10"]);
        assert_rejected(&["sessions", "--groups", groups, "--sessions", "10"]);
        assert_rejected(&["scale", "--groups", groups]);
    }
}

#[test]
fn clients_outside_the_group_range_are_rejected() {
    assert_rejected(&["scale", "--clients", "0"]);
    assert_rejected(&["scale", "--clients", "60001"]);
}

#[test]
fn wmp_share_above_one_thousand_permille_is_rejected() {
    assert_rejected(&["fleet", "--wmp-permille", "1001", "--sessions", "10"]);
    assert_rejected(&["sessions", "--wmp-permille", "5000", "--sessions", "10"]);
}

#[test]
fn zero_link_rate_is_rejected() {
    assert_rejected(&["friendly", "--kbps", "0"]);
    assert_rejected(&["friendly", "--kbps", "300,0"]);
}

#[test]
fn sub_nanosecond_window_is_rejected() {
    // 1e-10 s truncates to 0 ns, the recorder's "use the 1 s default".
    assert_rejected(&["watch", "--set", "2", "--window", "1e-10"]);
    assert_rejected(&["watch", "--set", "2", "--window", "0.0000000009"]);
}

#[test]
fn sets_outside_table_1_are_rejected() {
    assert_rejected(&["figures", "--sets", "9"]);
    assert_rejected(&["figures", "--sets", "1,0"]);
    assert_rejected(&["watch", "--corpus", "--sets", "9"]);
    assert_rejected(&["watch", "--corpus", "--sets", "2,7"]);
}

#[test]
fn sets_without_corpus_are_rejected_on_watch() {
    assert_rejected(&["watch", "--set", "2", "--sets", "3"]);
}

#[test]
fn bad_drill_down_session_fails_before_the_fleet_runs() {
    // Out of range, outside the seed-keyed sampled set, and with
    // sampling off: each is known from the flags alone, so no report
    // may reach stdout.
    for args in [
        "--sessions 100 --seed 42 --session 100",
        "--sessions 100 --seed 42 --session 1",
        "--sessions 100 --sample-permille 0 --session 5",
    ] {
        let argv: Vec<&str> = std::iter::once("sessions")
            .chain(args.split_whitespace())
            .collect();
        let (stdout, _) = assert_rejected(&argv);
        assert!(stdout.is_empty(), "{args}: stdout {stdout}");
    }
}

#[test]
fn loss_outside_a_probability_is_rejected() {
    assert_rejected(&["pair", "--set", "2", "--loss", "1.5"]);
    assert_rejected(&["watch", "--set", "2", "--loss", "-0.1"]);
}

#[test]
fn set_and_class_outside_table_1_are_rejected() {
    assert_rejected(&["pair", "--set", "7"]);
    // Set 1 has no very-high pair.
    assert_rejected(&["pair", "--set", "1", "--class", "vh"]);
}

#[test]
fn fleet_counts_outside_their_range_are_rejected() {
    assert_rejected(&["fleet", "--sessions", "0"]);
    assert_rejected(&["fleet", "--sample-permille", "1001", "--sessions", "10"]);
    assert_rejected(&["fleet", "--background", "1001", "--sessions", "10"]);
    assert_rejected(&["fleet", "--shards", "0", "--sessions", "10"]);
}

#[test]
fn unparsable_shared_knobs_are_rejected() {
    assert_rejected(&["figures", "--threads", "lots"]);
    assert_rejected(&["pair", "--set", "2", "--seed", "x"]);
}

#[test]
fn a_metrics_value_is_rejected_where_only_watch_reads_one() {
    for argv in [
        &["pair", "--set", "2", "--metrics", "dropped"][..],
        &["fleet", "--sessions", "10", "--metrics", "link_tx"],
    ] {
        let (stdout, stderr) = assert_rejected(argv);
        assert!(stdout.is_empty(), "{argv:?}: stdout {stdout}");
        assert!(stderr.contains("--metrics takes no value"), "{stderr}");
    }
}

#[test]
fn threads_is_not_a_fleet_knob() {
    for command in ["fleet", "sessions"] {
        let (_, stderr) = assert_rejected(&[command, "--sessions", "10", "--threads", "2"]);
        assert_eq!(
            stderr.trim_end(),
            format!("error: unknown flag --threads for {command}")
        );
    }
}
