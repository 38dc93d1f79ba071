//! The source closure: every file the bench binary is built from, and
//! the FNV-1a digest over it.
//!
//! `build.rs` includes this module with `#[path]` and compiles the digest
//! in (see [`crate::cache`]); the crate's tests recompute it from the tree
//! and compare, so a build script that missed a file fails tier-1. It is
//! std-only on purpose: a build script cannot depend on its own crate.

// Outside tests the crate itself uses only the hasher; the walk runs in
// build.rs, which in turn leaves `fnv1a64` unused.
#![cfg_attr(not(test), allow(dead_code))]

use std::path::{Path, PathBuf};

/// Streaming FNV-1a 64-bit hash — stable across platforms and runs, which
/// is all a cache key needs (this is not a cryptographic boundary).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.finish()
}

/// The top-level entries of the source closure under the workspace
/// `root`: its `Cargo.toml` and `Cargo.lock`, the `datasets/` directory
/// (`ebc_graphs::datasets` compiles the samples in), then the
/// `Cargo.toml`, `build.rs` and `src/` directory of every directory under
/// `crates/` and `shims/` — found by walking, not from a crate list.
/// Entries that do not exist are left out.
pub fn entries(root: &Path) -> Vec<PathBuf> {
    let mut entries = vec![
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        root.join("datasets"),
    ];
    for group in ["crates", "shims"] {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join(group))
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            for name in ["Cargo.toml", "build.rs", "src"] {
                entries.push(dir.join(name));
            }
        }
    }
    entries.retain(|p| p.exists());
    entries
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if !path.is_dir() {
        out.push(path.to_path_buf());
        return;
    }
    let entries =
        std::fs::read_dir(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        // Dotfiles (editor swap files) are never compiled.
        if !entry.file_name().to_string_lossy().starts_with('.') {
            walk(&entry.path(), out);
        }
    }
}

/// The digest of the source closure under `root`: every file of
/// [`entries`] (directories walked recursively), hashed as sorted
/// `(path relative to root, contents)` pairs, so it does not depend on
/// where the tree is checked out.
///
/// # Panics
///
/// Panics if a file of the closure cannot be read.
pub fn digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for entry in entries(root) {
        walk(&entry, &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let body =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        h.update(rel.as_bytes());
        h.update(b"\0");
        h.update(&body);
        h.update(b"\0");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &Path, body: &str) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, body).unwrap();
    }

    #[test]
    fn digest_covers_shims_lockfile_and_new_crates_but_not_tests() {
        let root = std::env::temp_dir().join("ebc_source_closure_tree");
        std::fs::remove_dir_all(&root).ok();
        write(&root.join("Cargo.toml"), "[workspace]\n");
        write(&root.join("Cargo.lock"), "version = 3\n");
        write(&root.join("crates/core/Cargo.toml"), "[package]\n");
        write(&root.join("crates/core/src/lib.rs"), "// core\n");
        write(&root.join("crates/core/tests/t.rs"), "// test v1\n");
        write(&root.join("shims/rand/Cargo.toml"), "[package]\n");
        write(&root.join("shims/rand/src/lib.rs"), "// rotate_left(23)\n");
        write(&root.join("datasets/sample.txt"), "0 1\n");
        let mut last = digest(&root);
        let mut moves = |path: &str, body: &str| {
            write(&root.join(path), body);
            let now = digest(&root);
            let moved = now != last;
            last = now;
            moved
        };
        assert!(moves("shims/rand/src/lib.rs", "// rotate_left(24)\n"));
        assert!(moves("Cargo.lock", "version = 4\n"));
        assert!(moves("datasets/sample.txt", "0 1\n1 2\n"));
        assert!(moves("crates/x/src/lib.rs", "// new crate\n"));
        assert!(!moves("crates/core/tests/t.rs", "// test v2\n"));
        assert!(!moves("crates/core/src/.lib.rs.swp", "swap"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compiled_in_digest_matches_the_tree() {
        // build.rs must re-run whenever a closure file changes; if it
        // missed one, the digest compiled into this test binary is stale.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        assert_eq!(
            format!("{:016x}", digest(root)),
            env!("EBC_SOURCE_DIGEST"),
            "compiled-in source digest is stale: build.rs lacks a rerun-if-changed"
        );
    }
}
