//! Where a result came from: host, toolchain and source revision.

use serde::value::Value;
use std::path::Path;
use std::process::Command;

/// Provenance of one benchmark invocation run from the repository root,
/// as a JSON-ready map.
#[must_use]
pub fn collect() -> Vec<(String, Value)> {
    let root = Path::new(".");
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("host_cpu".into(), Value::Str(cpu_model())),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("commit".into(), Value::Str(revision(root))),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"], root)),
        ),
    ]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// The git commit when the tree is a git checkout, else a digest of the
/// sources the benchmark builds (`tree-fnv64:...`), so results from an
/// exported tree still name the code they measured.
fn revision(root: &Path) -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"], root);
    if !commit.is_empty() {
        let dirty = !command_line(
            "git",
            &["status", "--porcelain", "--", "crates", "perfbench"],
            root,
        )
        .is_empty();
        return if dirty {
            format!("{commit}-dirty")
        } else {
            commit
        };
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendored", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-fnv64:{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}
