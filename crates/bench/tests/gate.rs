//! `round_kernel --gate` must fail when it has nothing to compare
//! against, before it spends time measuring: a gate that skips every
//! cell is not a pass.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn gate_fails_without_a_readable_nonempty_snapshot() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("round_kernel_gate");
    fs::create_dir_all(&dir).expect("temp dir");
    let empty = "{\n  \"schema\": \"bil-round-kernel/v1\",\n  \"rows\": [\n  ]\n}\n";
    let conflicted = format!("<<<<<<< HEAD\n{empty}");
    for (name, text, reason) in [
        ("missing.json", None, "no committed rows"),
        ("corrupt.json", Some(conflicted.as_str()), "cannot read"),
        ("empty.json", Some(empty), "no committed rows"),
    ] {
        let snapshot = dir.join(name);
        match text {
            Some(text) => fs::write(&snapshot, text).expect("write snapshot"),
            None => drop(fs::remove_file(&snapshot)),
        }
        let out = Command::new(env!("CARGO_BIN_EXE_round_kernel"))
            .arg("--gate")
            .arg("--out")
            .arg(&snapshot)
            .output()
            .expect("round_kernel runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "gate passed against {name}");
        assert!(stderr.contains(reason), "{stderr}");
        assert!(stderr.contains(&*snapshot.to_string_lossy()), "{stderr}");
    }
}
