//! Decoder robustness: arbitrary bytes must produce errors, never panics
//! or unbounded allocations. Property-style but dependency-free: inputs
//! come from a seeded xorshift64 stream, so every run checks the same
//! cases deterministically.

use hli_core::serialize::{decode_file, encode_file, SerializeOpts};
use hli_core::{encode_file_v3, HliImage};

/// xorshift64 — tiny deterministic PRNG for test-input generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = (self.next() as usize) % (max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn sample_hli() -> hli_core::HliFile {
    let src = "int a[10]; int main() { int i; for (i = 0; i < 10; i++) a[i] = i; return a[3]; }";
    let (p, s) = hli_lang::compile_to_ast(src).unwrap();
    hli_frontend::generate_hli(&p, &s)
}

#[test]
fn decode_never_panics() {
    let mut rng = Rng(0x1234_5678_9abc_def1);
    for _ in 0..512 {
        let bytes = rng.bytes(512);
        let _ = decode_file(&bytes, SerializeOpts::default());
        let _ = decode_file(&bytes, SerializeOpts { include_names: true });
    }
}

#[test]
fn decode_never_panics_with_magic() {
    let mut rng = Rng(0xfeed_beef_cafe_f00d);
    for _ in 0..512 {
        let mut data = b"HLI\x01".to_vec();
        data.extend(rng.bytes(256));
        let _ = decode_file(&data, SerializeOpts::default());
    }
}

#[test]
fn reader_open_never_panics() {
    let mut rng = Rng(0x0bad_c0de_dead_beef);
    for round in 0..512 {
        let mut bytes = rng.bytes(256);
        // Cycle the rounds through the image and compact magics so the
        // directory parser and the bad-magic rejection both run.
        match round % 3 {
            0 => drop(bytes.splice(0..0, *b"HLI\x03")),
            1 => drop(bytes.splice(0..0, *b"HLI\x01")),
            _ => (),
        };
        if let Ok(img) = HliImage::open(bytes, SerializeOpts::default()) {
            for unit in img.units().map(str::to_owned).collect::<Vec<_>>() {
                let _ = img.get_ref(&unit);
            }
        }
    }
}

#[test]
fn bitflips_in_valid_files_fail_cleanly() {
    // Take a real encoded file, flip one bit, decode: error or a
    // (possibly different) valid structure — never a panic.
    let hli = sample_hli();
    let clean = encode_file(&hli, SerializeOpts::default());
    for flip_at in 4..clean.len().min(200) {
        for flip_bit in 0..8u8 {
            let mut bytes = clean.clone();
            bytes[flip_at] ^= 1 << flip_bit;
            let _ = decode_file(&bytes, SerializeOpts::default());
        }
    }
}

#[test]
fn truncations_of_valid_files_fail_cleanly() {
    let hli = sample_hli();
    for opts in [
        SerializeOpts::default(),
        SerializeOpts { include_names: true },
    ] {
        let v1 = encode_file(&hli, opts);
        for cut in 0..v1.len() {
            assert!(decode_file(&v1[..cut], opts).is_err(), "truncated at {cut}");
        }
        let v3 = encode_file_v3(&hli, opts);
        for cut in 0..v3.len() {
            let slice = v3[..cut].to_vec();
            if let Ok(img) = HliImage::open(slice, opts) {
                // The frame may parse; resolving any unit of a truncated
                // image must error, never panic.
                for unit in img.units().map(str::to_owned).collect::<Vec<_>>() {
                    let _ = img.get_ref(&unit);
                }
            }
        }
    }
}

#[test]
fn roundtrip_with_names_from_frontend_output() {
    let hli = sample_hli();
    let opts = SerializeOpts { include_names: true };
    let bytes = encode_file(&hli, opts);
    let back = decode_file(&bytes, opts).unwrap();
    assert_eq!(back, hli, "named round-trip must be lossless");
}

#[test]
fn trailing_garbage_after_valid_file_rejected() {
    let hli = sample_hli();
    let mut rng = Rng(0x5eed_5eed_5eed_5eed);
    let clean = encode_file(&hli, SerializeOpts::default());
    for _ in 0..64 {
        let mut bytes = clean.clone();
        let mut junk = rng.bytes(32);
        junk.push(0xff); // at least one trailing byte
        bytes.extend(junk);
        let err = decode_file(&bytes, SerializeOpts::default()).unwrap_err();
        assert!(err.0.contains("trailing bytes"), "got: {err}");
    }
}

#[test]
fn v1_and_v3_images_agree_unit_by_unit() {
    let hli = sample_hli();
    let opts = SerializeOpts { include_names: true };
    let v1 = decode_file(&encode_file(&hli, opts), opts).unwrap();
    let v3 = HliImage::open(encode_file_v3(&hli, opts), opts).unwrap();
    assert_eq!(v1.entries.len(), v3.len());
    let names: Vec<&str> = v1.entries.iter().map(|e| e.unit_name.as_str()).collect();
    assert_eq!(names, v3.units().collect::<Vec<_>>());
    for unit in &v1.entries {
        let view = v3.get_ref(&unit.unit_name).unwrap().unwrap();
        assert!(
            view.same_tables(unit),
            "unit `{}` differs between v1 and v3",
            unit.unit_name
        );
    }
}
