//! Compiles in the digest of everything the bench binary is built from:
//! the `code` dependency every cached cell records (see `src/cache.rs`).
//!
//! `EBC_SOURCE_DIGEST` covers the source closure (`src/source_closure.rs`:
//! the root manifest and lockfile, the vendored dataset samples under
//! `datasets/` that `ebc_graphs::datasets` compiles in, and the manifest,
//! build script and `src/` of every crate under `crates/` and `shims/`).
//! `EBC_CODE_DIGEST` folds in the build profile and `rustc -V` on top.
//! Cargo re-runs this script when any closure entry changes; a new crate
//! joins the build only through a manifest edit, which re-runs it too.

use std::path::Path;
use std::process::Command;

#[path = "src/source_closure.rs"]
mod source_closure;

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    // crates/bench → crates → workspace root.
    let root = Path::new(&manifest_dir)
        .ancestors()
        .nth(2)
        .expect("workspace root");
    for entry in source_closure::entries(root) {
        println!("cargo:rerun-if-changed={}", entry.display());
    }
    let source = format!("{:016x}", source_closure::digest(root));
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .map(|o| o.stdout)
        .unwrap_or_default();
    let mut code = source_closure::Fnv::default();
    code.update(source.as_bytes());
    for var in ["PROFILE", "OPT_LEVEL", "DEBUG", "TARGET"] {
        code.update(b"\0");
        code.update(std::env::var(var).unwrap_or_default().as_bytes());
    }
    code.update(b"\0");
    code.update(&version);
    println!("cargo:rustc-env=EBC_SOURCE_DIGEST={source}");
    println!("cargo:rustc-env=EBC_CODE_DIGEST={:016x}", code.finish());
}
