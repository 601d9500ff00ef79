//! `hlicc build` runs the front end into a temporary `.hli` file and the
//! back end out of it; the file must not outlive the run, and nothing
//! the run prints may depend on its name. `hlicc back` refuses a file in
//! another format by its magic, quarantines a unit whose body fails to
//! decode, and runs the same transforms with HLI and without it.

use hli_core::serialize::{encode_entry, SerializeOpts};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SAMPLE: &str = "int a[8];\n\
     int main() {\n\
       int i;\n\
       for (i = 0; i < 8; i++) a[i] = i * 3;\n\
       return a[7];\n\
     }";

/// Run `hlicc build` on `src` with `TMPDIR` set to `tmpdir`.
fn build(src: &std::path::Path, tmpdir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args(["build", src.to_str().unwrap()])
        .env("TMPDIR", tmpdir)
        .output()
        .expect("hlicc runs")
}

#[test]
fn build_removes_its_temporary_hli_file() {
    let base = std::env::temp_dir().join(format!("hlicc_build_{}", std::process::id()));
    let tmpdir = base.join("tmp");
    std::fs::create_dir_all(&tmpdir).unwrap();
    let src = base.join("sample.c");
    std::fs::write(&src, SAMPLE).unwrap();

    let first = build(&src, &tmpdir);
    let second = build(&src, &tmpdir);
    let left: Vec<_> = std::fs::read_dir(&tmpdir).unwrap().map(|e| e.unwrap().path()).collect();
    let _ = std::fs::remove_dir_all(&base);

    for out in [&first, &second] {
        assert!(
            out.status.success(),
            "hlicc failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let stdout = String::from_utf8_lossy(&first.stdout).into_owned();
    assert!(stdout.contains("program result: 21"), "{stdout}");
    // The temporary file is named by the process id; stdout must not be.
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&second.stdout),
        "two identical builds must print the same bytes"
    );
    assert!(left.is_empty(), "hlicc build left files behind: {left:?}");
}

#[test]
fn back_refuses_an_old_image_by_its_magic() {
    let base = std::env::temp_dir().join(format!("hlicc_old_magic_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let (src, hli) = (base.join("sample.c"), base.join("sample.hli"));
    std::fs::write(&src, SAMPLE).unwrap();
    // The head of an image from the word-aligned layout: magic, one unit.
    std::fs::write(&hli, b"HLI\x03\x01\x00\x00\x00").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args(["back", src.to_str().unwrap(), hli.to_str().unwrap()])
        .output()
        .expect("hlicc runs");
    let _ = std::fs::remove_dir_all(&base);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
}

/// Run `hlicc` with `args`.
fn hlicc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args(args)
        .output()
        .expect("hlicc runs")
}

/// A fresh directory holding `src` as `sample.c`, its path, and the path
/// `hlicc front` wrote its `.hli` file to.
fn front_dir(tag: &str, src: &str) -> (PathBuf, PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("hlicc_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let (c, hli) = (base.join("sample.c"), base.join("sample.hli"));
    std::fs::write(&c, src).unwrap();
    let out = hlicc(&["front", c.to_str().unwrap(), "-o", hli.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    (base, c, hli)
}

/// The stdout line that starts with `prefix`.
fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("{stdout}"))
}

#[test]
fn back_without_hli_unrolls_too() {
    let (base, c, hli) = front_dir("no_hli_unroll", SAMPLE);
    let (c, hli) = (c.to_str().unwrap(), hli.to_str().unwrap());
    let with = hlicc(&["back", c, hli, "--unroll", "2"]);
    let without = hlicc(&["back", c, hli, "--no-hli", "--unroll", "2"]);
    let _ = std::fs::remove_dir_all(&base);
    for out in [&with, &without] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains("`main`: unrolled 1 loop(s) by 2"), "{stderr}");
        assert_eq!(
            line(&String::from_utf8_lossy(&out.stdout), "program result:"),
            "program result: 21 (64 dynamic instructions, 1 loads, 8 stores)"
        );
    }
}

/// Set the continuation bit on the last byte of `unit`'s body in the
/// `.hli` file at `path`. That byte ends the body's last varint, so the
/// decoder runs off the end of exactly that body.
fn corrupt_unit_body(path: &Path, src: &str, unit: &str) {
    let (prog, sema) = hli_lang::compile_to_ast(src).unwrap();
    let file = hli_frontend::generate_hli(&prog, &sema);
    let body = encode_entry(file.entry(unit).unwrap(), SerializeOpts { include_names: true });
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes
        .windows(body.len())
        .position(|w| w == body)
        .unwrap_or_else(|| panic!("no body of `{unit}` in the file"));
    bytes[at + body.len() - 1] |= 0x80;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn back_quarantines_one_corrupt_unit() {
    const TWO: &str = "int a[8];\n\
         int fill(int k) {\n\
           int i;\n\
           for (i = 0; i < 8; i++) a[i] = i * k;\n\
           return a[7];\n\
         }\n\
         int main() {\n\
           return fill(3);\n\
         }";
    let (base, c, hli) = front_dir("quarantine", TWO);
    let (c, hli_s) = (c.to_str().unwrap(), hli.to_str().unwrap());
    let clean = hlicc(&["back", c, hli_s, "--stats", "json"]);
    corrupt_unit_body(&hli, TWO, "fill");
    let bad = hlicc(&["back", c, hli_s, "--stats", "json"]);
    let _ = std::fs::remove_dir_all(&base);

    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(clean.status.success() && bad.status.success(), "{stderr}");
    assert_eq!(stderr.matches("HLI unit quarantined").count(), 1, "{stderr}");
    assert!(stderr.contains("warning: `fill`: HLI unit quarantined"), "{stderr}");
    let (clean, bad) = (
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&bad.stdout),
    );
    assert!(bad.contains("\"backend.quarantine.units\": 1"), "{bad}");
    assert!(!clean.contains("backend.quarantine"), "{clean}");
    assert_eq!(line(&bad, "program result:"), line(&clean, "program result:"));
}
