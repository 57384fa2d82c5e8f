//! Integration tests for the `fpfa-map` command-line tool.

use std::io::Write as _;
use std::process::Command;

fn write_kernel(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("fir.c");
    let mut file = std::fs::File::create(&path).expect("create temp kernel");
    file.write_all(
        br#"
        void main() {
            int a[4];
            int c[4];
            int sum;
            int i;
            sum = 0; i = 0;
            while (i < 4) { sum = sum + a[i] * c[i]; i = i + 1; }
        }
        "#,
    )
    .expect("write temp kernel");
    path
}

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpfa-map"))
}

#[test]
fn prints_a_report_and_simulates() {
    let dir = std::env::temp_dir().join("fpfa-map-test-report");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary()
        .arg(&kernel)
        .arg("--simulate")
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("clusters"));
    assert!(stdout.contains("sum ="));
    assert!(stdout.contains("cycles"));
}

#[test]
fn emits_graphviz_for_the_schedule() {
    let dir = std::env::temp_dir().join("fpfa-map-test-dot");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary()
        .arg(&kernel)
        .args(["--dot", "schedule"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("rank=same"));
}

#[test]
fn rejects_unknown_options_and_missing_files() {
    let unknown = binary().arg("--definitely-not-an-option").output().unwrap();
    assert!(!unknown.status.success());
    let missing = binary().arg("/nonexistent/kernel.c").output().unwrap();
    assert!(!missing.status.success());
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn timings_flag_prints_the_stage_breakdown() {
    let dir = std::env::temp_dir().join("fpfa-map-test-timings");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary().arg(&kernel).arg("--timings").output().unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("stage timings"));
    for stage in ["frontend", "transform", "cluster", "schedule", "allocate"] {
        assert!(stdout.contains(stage), "missing stage `{stage}`:\n{stdout}");
    }
}

#[test]
fn timings_of_a_mapping_hit_list_no_stage() {
    let dir = std::env::temp_dir().join("fpfa-map-test-hit-timings");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary()
        .arg(&kernel)
        .args(["--repeat", "2", "--timings"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("(mapping hit)"), "{stdout}");
    // The report is the hit pass's: no stage ran, so none is listed.
    let timings = &stdout[stdout.find("stage timings").expect("a timings section")..];
    assert!(
        timings.starts_with("stage timings (total 0ns):"),
        "{stdout}"
    );
    for stage in ["frontend", "transform", "cluster", "schedule", "allocate"] {
        assert!(
            !timings.contains(stage),
            "`{stage}` listed for a hit:\n{stdout}"
        );
    }
}

#[test]
fn tiles_flag_partitions_and_simulates_across_the_array() {
    let dir = std::env::temp_dir().join("fpfa-map-test-tiles");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary()
        .arg(&kernel)
        .args(["--tiles", "4", "--simulate"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("tiles 4"), "{stdout}");
    assert!(stdout.contains("per-tile schedules"), "{stdout}");
    assert!(stdout.contains("inter-tile traffic"), "{stdout}");
    assert!(stdout.contains("sum ="), "{stdout}");

    let rejected = binary()
        .arg(&kernel)
        .args(["--tiles", "0"])
        .output()
        .unwrap();
    assert!(!rejected.status.success());
}

#[test]
fn batch_mode_maps_files_in_parallel() {
    let dir = std::env::temp_dir().join("fpfa-map-test-batch");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary()
        .arg("--batch")
        .arg(&kernel)
        .arg(&kernel)
        .args(["--threads", "2"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2/2 kernels mapped"));
    assert!(stdout.contains("per-stage totals"));
}

#[test]
fn batch_mode_without_files_maps_the_workload_registry() {
    let output = binary().arg("--batch").output().unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("kernels mapped"));
    assert!(stdout.contains("fir"));
}

#[test]
fn batch_mode_rejects_single_kernel_flags() {
    let output = binary().args(["--batch", "--listing"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("incompatible"));
}

#[test]
fn zero_threads_are_rejected_like_zero_tiles() {
    let dir = std::env::temp_dir().join("fpfa-map-test-threads0");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let kernel = kernel.to_str().unwrap();
    for (args, expected) in [
        (
            vec!["--batch", "--threads", "0"],
            "--threads needs at least one thread",
        ),
        (
            vec![kernel, "--threads", "0"],
            "--threads needs at least one thread",
        ),
        // A single kernel maps on one thread: there is no pool to size.
        (
            vec![kernel, "--threads", "2"],
            "--threads only applies to --batch",
        ),
    ] {
        let output = binary().args(&args).output().unwrap();
        assert!(!output.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn repeat_serves_later_passes_from_the_cache() {
    let dir = std::env::temp_dir().join("fpfa-map-test-repeat");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);
    let output = binary()
        .arg(&kernel)
        .args(["--repeat", "3"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("pass 1"), "{stdout}");
    assert!(stdout.contains("(miss)"), "{stdout}");
    assert!(stdout.contains("(mapping hit)"), "{stdout}");
    assert!(stdout.contains("cache: mapping 2/3 hit(s)"), "{stdout}");

    let rejected = binary()
        .arg(&kernel)
        .args(["--repeat", "0"])
        .output()
        .unwrap();
    assert!(!rejected.status.success());
}

#[test]
fn batch_failures_name_the_failing_spec_on_stderr() {
    let dir = std::env::temp_dir().join("fpfa-map-test-batch-fail");
    std::fs::create_dir_all(&dir).unwrap();
    let good = write_kernel(&dir);
    let bad = dir.join("broken.c");
    std::fs::write(&bad, "void main() { r = 1; }").unwrap();
    let output = binary()
        .arg("--batch")
        .arg(&good)
        .arg(&bad)
        .arg(&bad)
        .output()
        .unwrap();
    assert!(
        !output.status.success(),
        "a failing kernel must fail the batch: {output:?}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    // Every failing spec is named — including the duplicate, under its
    // disambiguated entry name.
    assert!(stderr.contains("2 kernel(s) failed to map"), "{stderr}");
    assert!(stderr.contains("broken.c:"), "{stderr}");
    assert!(stderr.contains("broken.c#2:"), "{stderr}");
    assert!(stderr.contains("frontend"), "{stderr}");
    // The good kernel still mapped: the batch is not aborted.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1/3 kernels mapped"), "{stdout}");
}

#[test]
fn cache_capacity_flag_is_validated_and_accepted() {
    let dir = std::env::temp_dir().join("fpfa-map-test-cachecap");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = write_kernel(&dir);

    // Zero entries are rejected up front, like --tiles 0 / --threads 0.
    let rejected = binary()
        .args(["--batch", "--cache-capacity", "0"])
        .output()
        .unwrap();
    assert!(!rejected.status.success());
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert!(
        stderr.contains("--cache-capacity needs at least one entry"),
        "{stderr}"
    );

    // Outside the service paths the flag has nothing to bound.
    let misplaced = binary()
        .arg(&kernel)
        .args(["--cache-capacity", "8"])
        .output()
        .unwrap();
    assert!(!misplaced.status.success());
    let stderr = String::from_utf8_lossy(&misplaced.stderr);
    assert!(
        stderr.contains("only applies to --batch, --repeat or --cache-dir"),
        "{stderr}"
    );

    // A bounded cache still serves the repeat path from memory.
    let output = binary()
        .arg(&kernel)
        .args(["--repeat", "3", "--cache-capacity", "8"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("(mapping hit)"), "{stdout}");
}

#[test]
fn batch_repeat_reports_cache_stats_per_pass() {
    let output = binary()
        .args(["--batch", "--repeat", "2", "--timings"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The first-pass batch report and every later pass carry cache stats.
    assert!(stdout.contains("cache: mapping 0/"), "{stdout}");
    assert!(stdout.contains("pass 2:"), "{stdout}");
    assert!(stdout.contains("post-transform"), "{stdout}");
    // Per-kernel timing sections name the cache outcome of the final pass.
    assert!(stdout.contains("(mapping hit)"), "{stdout}");
}

/// `--diag-json` prints one JSON array on a line of its own, and a kernel
/// path holding a control character is escaped, not written raw.
#[cfg(unix)]
#[test]
fn diag_json_escapes_control_characters_in_kernel_names() {
    let dir = std::env::temp_dir().join("fpfa-map-test-diag-json");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = dir.join("a\tb.c");
    std::fs::copy(write_kernel(&dir), &kernel).unwrap();
    let output = binary()
        .arg(&kernel)
        .args(["--verify", "--diag-json"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|line| line.starts_with('['))
        .unwrap_or_else(|| panic!("no JSON line in:\n{stdout}"));
    let doc = fpfa_obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let entries = doc.as_array().expect("a JSON array");
    let entry = entries[0].as_object().expect("an object per kernel");
    assert_eq!(
        entry["kernel"].as_str(),
        Some(kernel.to_str().expect("a UTF-8 path"))
    );
    assert!(entry["diagnostics"].as_array().is_some(), "{line}");
}
