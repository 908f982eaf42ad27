//! The benchmark's own smoke test: every workload, untraced and traced,
//! at a tiny cycle count. The run must pass its correctness gate, and
//! every metric it prints must be declared in `BENCHMARK.json` with the
//! same unit (and every declared metric must be printed).

use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn smoke_prints_every_declared_metric_and_passes_the_gate() {
    let out = Command::new(env!("CARGO_BIN_EXE_btwc-loopbench"))
        .arg("--smoke")
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().last(), Some("smoke ok"));

    // Metric table lines: `#   <name> <value> <unit>`.
    let printed: BTreeSet<(String, String)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("#   "))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cols.len(), 3, "malformed metric line {l:?}");
            assert!(cols[1].parse::<f64>().is_ok_and(f64::is_finite), "bad value in {l:?}");
            (cols[0].to_string(), cols[2].to_string())
        })
        .collect();

    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let declared = std::fs::read_to_string(manifest).expect("read BENCHMARK.json");
    let declared: BTreeSet<(String, String)> = declared
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|entry| {
            let (name, rest) = entry.split_once('"')?;
            let object = rest.split_once('}')?.0;
            let unit = object.split_once("\"unit\": \"")?.1.split_once('"')?.0;
            Some((name.to_string(), unit.to_string()))
        })
        .collect();
    assert_eq!(printed, declared, "printed metrics differ from BENCHMARK.json");
}
