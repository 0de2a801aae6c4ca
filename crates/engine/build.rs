//! Derives the model-source hash behind `persist::code_fingerprint()`.
//!
//! The persistent artifact cache must never replay an answer the current
//! models would not compute. A version number cannot promise that (nobody
//! bumps it for a changed constant), so this script hashes the `.rs`
//! sources of every crate whose code can change an artifact — the models,
//! their datasets and the report layer that renders them — and exposes the
//! digest as `CC_MODEL_SOURCE_HASH`. Any edit to those sources changes the
//! fingerprint, which moves the engine to a fresh cache directory.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates `cc-engine` depends on (directly or transitively) whose
/// sources determine experiment outputs.
const MODEL_CRATES: [&str; 10] = [
    "analysis", "core", "data", "dcsim", "fab", "ghg", "lca", "report", "socsim", "units",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for name in MODEL_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut files = Vec::new();
        rust_sources(&src, &mut files);
        files.sort();
        for file in files {
            // Hash the path relative to the crates directory, so the digest
            // does not depend on where the checkout lives.
            let relative = file.strip_prefix(&crates).expect("file under crates/");
            hash = fnv(hash, relative.to_string_lossy().as_bytes());
            hash = fnv(hash, &[0]);
            hash = fnv(hash, &fs::read(&file).expect("readable source"));
            hash = fnv(hash, &[0]);
        }
    }
    println!("cargo:rustc-env=CC_MODEL_SOURCE_HASH={hash:016x}");
}
