//! `hlicc build` runs the front end into a temporary `.hli` file and the
//! back end out of it; the file must not outlive the run, and nothing
//! the run prints may depend on its name. `hlicc back` refuses a file in
//! another format by its magic.

use std::process::Command;

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
