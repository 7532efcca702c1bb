//! Machine and code identity stamped on every result: core count, the
//! compiler, the git commit when there is one, and a content hash of the
//! sources the benchmark was built from. The program's own `code_rev()`
//! is not used: it is fixed at build time from `.git/HEAD` and misses
//! both new commits and uncommitted edits.

use std::path::Path;
use std::process::{Command, Stdio};

/// FNV-1a, 128-bit: the hash the serve cache uses for its keys.
fn fnv1a_128(hash: &mut u128, bytes: &[u8]) {
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    for &b in bytes {
        *hash ^= u128::from(b);
        *hash = hash.wrapping_mul(PRIME);
    }
}

/// Every `*.rs` and `*.toml` file under `root`, minus build output, in
/// path order.
fn source_files(root: &Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Ok(kind) = entry.file_type() else {
                continue;
            };
            if kind.is_dir() {
                if !name.starts_with('.') && name != "target" {
                    stack.push(path);
                }
            } else if kind.is_file() && (name.ends_with(".rs") || name.ends_with(".toml")) {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn source_hash(root: &Path) -> (String, usize) {
    let files = source_files(root);
    let mut hash: u128 = 0x6c62272e07bb014262b821756295c58d;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        fnv1a_128(&mut hash, rel.to_string_lossy().as_bytes());
        fnv1a_128(&mut hash, &[0]);
        fnv1a_128(&mut hash, &std::fs::read(path).unwrap_or_default());
        fnv1a_128(&mut hash, &[0]);
    }
    (format!("{hash:032x}"), files.len())
}

fn run(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The git commit of the current directory with `+dirty` for local
/// edits, or `none` outside a repository. The search stops at the
/// current directory so an enclosing repository is never reported.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        let mut cmd = Command::new("git");
        cmd.args(args).current_dir(root);
        if let Some(parent) = root.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        run(&mut cmd)
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            format!("{rev}{}", if dirty { "+dirty" } else { "" })
        }
        None => "none".to_owned(),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The identity stamp as one JSON object.
pub fn identity(nproc: usize) -> String {
    let root = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let rustc = run(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".to_owned());
    let (hash, files) = source_hash(&root);
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git\": \"{}\", \"src_fnv128\": \"{hash}\", \"src_files\": {files}}}",
        escape(&rustc),
        escape(&git_rev(&root)),
    )
}
