//! Content-addressed cache keys — the recipe documented in
//! docs/SERVE.md ("Cache-key recipe").
//!
//! A key commits to every compile-relevant input of one function's trip
//! through the back-end: the lowered pre-schedule RTL body, the
//! function's HLI unit (canonical serialized bytes *plus* its transient
//! maintenance generation), the machine model, the dependence mode, and
//! both artifact versions. Domain-separated FNV-1a 64; 16 lowercase hex
//! digits. The pinned-hash test at the bottom freezes the recipe — any
//! byte-level drift (a reordered component, a changed separator) fails
//! there rather than silently orphaning every deployed cache.
//!
//! A program key ([`program_key`]) addresses the direct-mode entry in
//! front of the function keys (docs/SERVE.md, "Direct mode"): the
//! program's source bytes and flags under one daemon build.

use crate::proto::{CompileFlags, ProgramReq};
use hli_core::image::EntryRef;
use hli_core::serialize::{encode_entry, SerializeOpts};

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Streaming FNV-1a 64 with the domain separators docs/SERVE.md fixes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// One labelled component: `label NUL payload NUL`.
    pub fn component(&mut self, label: &str, payload: &[u8]) -> &mut Self {
        self.write(label.as_bytes()).write(&[0]).write(payload).write(&[0])
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Hash a whole byte string in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// A function's content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// The canonical 16-lowercase-hex-digit rendering used on the wire
    /// and as the object file name.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the canonical rendering back (16 hex digits exactly).
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(CacheKey)
    }
}

/// The serialized-bytes-plus-generation pair that forms the key's HLI
/// component, hashed over the unit's tables ([`EntryRef::tables`]): an
/// in-memory entry and an image unit with the same tables hash
/// identically, because `include_names: false` serialization is canonical
/// and an image unit's generation is 0.
pub fn hli_component(entry: &EntryRef<'_>) -> (Vec<u8>, u64) {
    const OPTS: SerializeOpts = SerializeOpts { include_names: false };
    let tables = entry.tables();
    (encode_entry(tables, OPTS), tables.generation)
}

/// Derive one function's cache key. `body_dump` is the
/// `hli_backend::rtl::dump_func` text of the *lowered, pre-schedule*
/// function; `hli` is its unit when one exists. The byte layout is
/// normative — see docs/SERVE.md ("Cache-key recipe").
pub fn function_key(body_dump: &str, hli: Option<&EntryRef<'_>>, flags: &CompileFlags) -> CacheKey {
    let mut h = Fnv::new();
    h.write(format!("hlicc-serve/{}\0", crate::SERVE_VERSION).as_bytes());
    h.write(format!("schema={}\0", hli_obs::SCHEMA_VERSION).as_bytes());
    h.component("body", body_dump.as_bytes());
    match hli {
        Some(entry) => {
            let (bytes, generation) = hli_component(entry);
            let mut payload = bytes;
            payload.push(0);
            payload.extend_from_slice(format!("gen={generation}").as_bytes());
            h.component("hli", &payload);
        }
        None => {
            h.component("hli", b"absent");
        }
    }
    h.component("machine", flags.machine.canonical().as_bytes());
    h.component("mode", flags.mode.canonical().as_bytes());
    CacheKey(h.finish())
}

/// Derive a program's direct-mode key: its source bytes and the flags
/// that change a function key, under the daemon build `build` (which
/// stands in for everything prep does to those bytes). The program's
/// name and `dump` flag are not components. The byte layout is normative
/// — see docs/SERVE.md ("Direct mode").
pub fn program_key(build: &str, req: &ProgramReq) -> CacheKey {
    let mut h = Fnv::new();
    h.write(format!("hlicc-serve-program/{}\0", crate::SERVE_VERSION).as_bytes());
    h.write(format!("schema={}\0", hli_obs::SCHEMA_VERSION).as_bytes());
    h.component("build", build.as_bytes());
    h.component("source", req.source.as_bytes());
    h.component("machine", req.flags.machine.canonical().as_bytes());
    h.component("mode", req.flags.mode.canonical().as_bytes());
    CacheKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Machine, Mode};
    use hli_backend::lower::lower_program;
    use hli_backend::rtl::dump_func;
    use hli_core::HliEntry;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    const SRC: &str = "int a[16]; int b[16];\n\
        int f(int *p, int *q, int n) {\n\
            int i;\n\
            for (i = 0; i < n; i++) a[i] = b[i] + p[i] * q[0];\n\
            return a[0];\n\
        }\n\
        int main() { return f(a, b, 8); }\n";

    fn parts() -> (String, HliEntry) {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let f = prog.func("f").unwrap();
        (dump_func(f), hli.entry("f").unwrap().clone())
    }

    fn key_of(dump: &str, entry: &HliEntry, flags: &CompileFlags) -> CacheKey {
        function_key(dump, Some(&EntryRef::Owned(entry)), flags)
    }

    #[test]
    fn pinned_hash_regression() {
        // The recipe is normative (docs/SERVE.md): the same input must
        // produce this exact key on every platform and every run. If a
        // deliberate recipe change lands, bump SERVE_VERSION and repin.
        let (dump, entry) = parts();
        let k = key_of(&dump, &entry, &CompileFlags::default());
        assert_eq!(k.hex(), "a0e5e8ce8d4d3064", "cache-key recipe drifted");
    }

    #[test]
    fn each_component_independently_changes_the_key() {
        let (dump, entry) = parts();
        let base = key_of(&dump, &entry, &CompileFlags::default());

        // Body edit: any change to the lowered RTL text.
        let edited = dump.replacen("func f", "func f ", 1);
        assert_ne!(key_of(&edited, &entry, &CompileFlags::default()), base, "body");

        // HLI table content: a maintenance-shaped mutation of the unit.
        let mut grown = entry.clone();
        grown.regions[0].scope.1 += 1;
        assert_ne!(key_of(&dump, &grown, &CompileFlags::default()), base, "hli bytes");

        // HLI generation bump alone (bytes unchanged — generation is not
        // serialized) must still invalidate.
        let mut bumped = entry.clone();
        bumped.bump_generation();
        assert_ne!(key_of(&dump, &bumped, &CompileFlags::default()), base, "generation");

        // Machine model.
        let r10k = CompileFlags { machine: Machine::R10000, ..Default::default() };
        assert_ne!(key_of(&dump, &entry, &r10k), base, "machine");

        // Dependence mode.
        let gcc = CompileFlags { mode: Mode::GccOnly, ..Default::default() };
        assert_ne!(key_of(&dump, &entry, &gcc), base, "mode");

        // Unit absence.
        assert_ne!(function_key(&dump, None, &CompileFlags::default()), base, "absent");

        // The non-key flag: `dump` must NOT perturb the key.
        let with_dump = CompileFlags { dump: true, ..Default::default() };
        assert_eq!(
            key_of(&dump, &entry, &with_dump),
            base,
            "dump flag is not a key component"
        );
    }

    fn req(source: &str, flags: CompileFlags) -> ProgramReq {
        ProgramReq { name: "p".into(), source: source.into(), flags }
    }

    #[test]
    fn program_key_is_pinned() {
        // Normative like the function recipe (docs/SERVE.md, "Direct
        // mode"); the value was checked against an independent FNV-1a 64
        // over the documented byte sequence.
        let k = program_key("build-1", &req(SRC, CompileFlags::default()));
        assert_eq!(k.hex(), "8937ab039268564d", "program-key recipe drifted");
    }

    #[test]
    fn each_program_component_changes_the_program_key() {
        let base_req = req(SRC, CompileFlags::default());
        let base = program_key("build-1", &base_req);
        let edited = req(&SRC.replacen("8);", "8); ", 1), CompileFlags::default());
        assert_ne!(program_key("build-1", &edited), base, "source");
        let r10k = req(SRC, CompileFlags { machine: Machine::R10000, ..Default::default() });
        assert_ne!(program_key("build-1", &r10k), base, "machine");
        let gcc = req(SRC, CompileFlags { mode: Mode::GccOnly, ..Default::default() });
        assert_ne!(program_key("build-1", &gcc), base, "mode");
        assert_ne!(program_key("build-2", &base_req), base, "build");

        // Neither changes a function key, so neither is a component.
        let with_dump = req(SRC, CompileFlags { dump: true, ..Default::default() });
        assert_eq!(program_key("build-1", &with_dump), base, "dump");
        let renamed = ProgramReq { name: "q".into(), ..base_req };
        assert_eq!(program_key("build-1", &renamed), base, "name");
    }

    #[test]
    fn key_is_stable_across_repeated_derivations() {
        let (dump, entry) = parts();
        let a = key_of(&dump, &entry, &CompileFlags::default());
        let b = key_of(&dump, &entry, &CompileFlags::default());
        assert_eq!(a, b);
    }

    #[test]
    fn hex_roundtrip() {
        let k = CacheKey(0x0123_4567_89ab_cdef);
        assert_eq!(k.hex(), "0123456789abcdef");
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::from_hex("123"), None);
        assert_eq!(CacheKey::from_hex("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Classic FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
