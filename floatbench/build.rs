//! Records the compiler and its flags for the provenance block, so a
//! result names the build that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    // Cargo joins the flags with 0x1f; a space reads better.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=FLOATBENCH_RUSTC={}", version.trim());
    println!("cargo:rustc-env=FLOATBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}
