//! `HLI\x04` images — the form the back end imports.
//!
//! The paper's back end reads the HLI file on demand, one program unit at
//! a time (§3.2.1). An image is a small directory over the compact unit
//! bodies of [`crate::serialize`]: each body is exactly the bytes
//! [`encode_entry`](crate::serialize::encode_entry) writes for its unit,
//! so the encoding Table 1 measures, the serve cache key hashes and the
//! back end imports is one encoding.
//!
//! Layout (DESIGN.md, "On-demand import: the `HLI\x04` image"):
//!
//! * file = magic `HLI\x04` · flags byte (bit 0: class name hints are
//!   present; the other bits must be 0) · unit count · one body length
//!   per unit · the bodies back to back; counts and lengths are LEB128
//!   varints, as in the compact form;
//! * body = one compact entry, which starts with its unit's name.
//!
//! Trust boundary: [`HliImage::open`] checks the frame only — the magic
//! and flags, body lengths (overflow-checked) that add up to exactly the
//! rest of the file, and each body's leading name, which must be UTF-8
//! and unique. [`HliImage::get_ref`] decodes one body with the compact
//! entry decoder, which must consume it exactly, so a truncated or
//! bit-flipped image fails at open or as one unit's [`DecodeError`],
//! never a panic. *Semantic* validity (partition property, alias
//! locality, …) remains [`HliEntry::verify`]'s job: the back end's
//! `vet_unit` verifies the decoded tables and hands exactly those on.
//!
//! Image activity is mirrored into the metrics registry under
//! `hli.image.*`: `bytes` (image bytes encoded), `opens`, `units_total`,
//! `units_validated` (unit decodes). The bytes the open itself reads
//! (header, directory and the bodies' leading names) are counted as
//! `hli.deserialize.bytes`; decoding a unit counts nothing more. Bodies
//! are encoded unmetered, so `hli.serialize.*` stays Table 1's meter.

use crate::serialize::{
    count_decoded, decode_entry, encode_entry_into, get_len, get_str, get_u8, put_varint,
    DecodeError, SerializeOpts,
};
use crate::tables::{HliEntry, HliFile};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Magic bytes of the image container.
const MAGIC: [u8; 4] = *b"HLI\x04";

/// Flags bit: every body carries its class name hints.
const NAME_HINTS: u8 = 1;

/// Serialize a whole HLI file as an `HLI\x04` image: a directory of body
/// lengths over one compact entry per unit, opened by [`HliImage`].
pub fn encode_image(file: &HliFile, opts: SerializeOpts) -> Vec<u8> {
    let _s = hli_obs::span("hli.image.encode");
    let mut bodies = Vec::new();
    let mut lens = Vec::with_capacity(file.entries.len());
    for e in &file.entries {
        let start = bodies.len();
        encode_entry_into(e, opts, &mut bodies);
        lens.push(bodies.len() - start);
    }
    let mut out = MAGIC.to_vec();
    out.push(if opts.include_names { NAME_HINTS } else { 0 });
    put_varint(&mut out, lens.len() as u64);
    for len in lens {
        put_varint(&mut out, len as u64);
    }
    out.extend_from_slice(&bodies);
    hli_obs::metrics::cur().counter("hli.image.bytes").add(out.len() as u64);
    out
}

/// A unit as a back-end lookup hands it over: an entry of an in-memory
/// file, or the tables decoded from an image unit. The back end queries
/// neither form directly: its `vet_unit` takes [`EntryRef::into_tables`],
/// verifies them and queries exactly those.
pub enum EntryRef<'a> {
    /// An entry of an in-memory file.
    Owned(&'a HliEntry),
    /// The tables decoded from an image unit (generation 0).
    Decoded(HliEntry),
}

impl<'a> EntryRef<'a> {
    /// The unit's tables.
    pub fn tables(&self) -> &HliEntry {
        match self {
            EntryRef::Owned(e) => e,
            EntryRef::Decoded(e) => e,
        }
    }

    /// The unit's tables, handed on: borrowed from an in-memory file,
    /// moved out of a decoded unit.
    pub fn into_tables(self) -> Cow<'a, HliEntry> {
        match self {
            EntryRef::Owned(e) => Cow::Borrowed(e),
            EntryRef::Decoded(e) => Cow::Owned(e),
        }
    }
}

/// An `HLI\x04` image: a directory over the file bytes that decodes one
/// unit's body per request. Immutable and shareable across back-end
/// workers (`Sync`).
pub struct HliImage {
    data: Vec<u8>,
    opts: SerializeOpts,
    /// Unit names in file order, each with its body's byte range.
    units: Vec<(String, Range<usize>)>,
    index: HashMap<String, usize>,
    units_validated: hli_obs::Counter,
}

impl HliImage {
    /// Open an image from in-memory bytes. Only the frame (magic, flags,
    /// directory and each body's leading name) is checked and metered
    /// here; a body is decoded when [`get_ref`](Self::get_ref) asks for
    /// its unit.
    pub fn open(data: Vec<u8>) -> Result<Self, DecodeError> {
        let _s = hli_obs::span("hli.image.open");
        let r = hli_obs::metrics::cur();
        // The magic first, so a file in another format (such as one an
        // older `hlicc front` wrote) is named as such.
        if data.get(..4) != Some(&MAGIC[..]) {
            return Err(DecodeError("bad magic: not an `HLI\\x04` image".into()));
        }
        let mut dir = &data[4..];
        let flags = get_u8(&mut dir)?;
        if flags & !NAME_HINTS != 0 {
            return Err(DecodeError(format!("unknown image flags {flags:#04x}")));
        }
        let n = get_len(&mut dir)?;
        // Each length takes at least one byte, so a hostile count cannot
        // size this allocation past the file.
        let mut lens = Vec::with_capacity(n.min(dir.len()));
        let mut total = 0usize;
        for i in 0..n {
            let len = get_len(&mut dir)?;
            total = total
                .checked_add(len)
                .ok_or_else(|| DecodeError(format!("unit {i}: body lengths overflow")))?;
            lens.push(len);
        }
        if total != dir.len() {
            return Err(DecodeError(format!(
                "body lengths add up to {total} bytes, but {} follow the directory",
                dir.len()
            )));
        }
        let mut start = data.len() - dir.len();
        let mut frame = start;
        let mut units = Vec::with_capacity(n);
        let mut index = HashMap::with_capacity(n);
        for (i, len) in lens.into_iter().enumerate() {
            let body = start..start + len;
            let mut rest = &data[body.clone()];
            let name =
                get_str(&mut rest).map_err(|e| DecodeError(format!("unit {i}: name: {}", e.0)))?;
            frame += len - rest.len();
            if index.insert(name.clone(), i).is_some() {
                return Err(DecodeError(format!("unit {i}: duplicate unit name `{name}`")));
            }
            units.push((name, body));
            start += len;
        }
        r.counter("hli.image.opens").inc();
        r.counter("hli.image.units_total").add(n as u64);
        count_decoded(frame);
        Ok(HliImage {
            opts: SerializeOpts { include_names: flags & NAME_HINTS != 0 },
            data,
            units,
            index,
            units_validated: r.counter("hli.image.units_validated"),
        })
    }

    /// Read an image file whole and [`open`](Self::open) it.
    pub fn open_file(path: &std::path::Path) -> Result<Self, DecodeError> {
        let data = std::fs::read(path)
            .map_err(|e| DecodeError(format!("read `{}`: {e}", path.display())))?;
        Self::open(data)
    }

    /// Unit names in file order.
    pub fn units(&self) -> impl Iterator<Item = &str> {
        self.units.iter().map(|(name, _)| name.as_str())
    }

    /// The tables of `unit`, decoded from its body on every call.
    /// `Ok(None)` when the directory has no such unit; `Err` when the body
    /// does not decode to exactly one compact entry.
    pub fn get_ref(&self, unit: &str) -> Result<Option<EntryRef<'static>>, DecodeError> {
        let Some(&i) = self.index.get(unit) else {
            return Ok(None);
        };
        self.units_validated.inc();
        let mut body = &self.data[self.units[i].1.clone()];
        let entry = decode_entry(&mut body, self.opts).and_then(|e| match body.len() {
            0 => Ok(e),
            n => Err(DecodeError(format!("{n} trailing byte(s) after the tables"))),
        });
        match entry {
            Ok(e) => Ok(Some(EntryRef::Decoded(e))),
            Err(e) => Err(DecodeError(format!("unit `{unit}`: {}", e.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::encode_entry;
    use crate::tables::tests::figure2_like;

    fn two_unit_file() -> HliFile {
        let mut e2 = figure2_like();
        e2.unit_name = "bar".into();
        HliFile { entries: vec![figure2_like(), e2] }
    }

    /// A frame written by hand: magic, `flags`, the body lengths, then
    /// `bodies` as given.
    fn frame(flags: u8, lens: &[u64], bodies: &[u8]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.push(flags);
        put_varint(&mut b, lens.len() as u64);
        for &len in lens {
            put_varint(&mut b, len);
        }
        b.extend_from_slice(bodies);
        b
    }

    #[test]
    fn materialized_views_round_trip_exactly() {
        for include_names in [true, false] {
            let opts = SerializeOpts { include_names };
            let file = two_unit_file();
            let img = HliImage::open(encode_image(&file, opts)).unwrap();
            assert_eq!(img.units().collect::<Vec<_>>(), vec!["foo", "bar"]);
            assert!(img.get_ref("baz").unwrap().is_none());
            for want in &file.entries {
                let unit = img.get_ref(&want.unit_name).unwrap().unwrap();
                assert!(matches!(unit, EntryRef::Decoded(_)), "an image serves decoded units");
                let got = unit.into_tables().into_owned();
                assert_eq!(got.generation, 0);
                if include_names {
                    assert_eq!(got, *want);
                } else {
                    // Hints are dropped by compact encoding on every path.
                    let mut stripped = want.clone();
                    for r in &mut stripped.regions {
                        for c in &mut r.equiv_classes {
                            c.name_hint.clear();
                        }
                    }
                    assert_eq!(got, stripped);
                }
            }
        }
    }

    #[test]
    fn open_decodes_only_the_directory() {
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let file = two_unit_file();
        let bytes = encode_image(&file, SerializeOpts::default());
        let bodies: usize = file
            .entries
            .iter()
            .map(|e| encode_entry(e, SerializeOpts::default()).len())
            .sum();
        let _g = hli_obs::metrics::scoped(reg.clone());
        let img = HliImage::open(bytes.clone()).unwrap();
        let open_bytes = reg.snapshot().counter("hli.deserialize.bytes");
        // The header and directory, plus two 3-byte names behind their
        // 1-byte lengths.
        assert_eq!(open_bytes as usize, bytes.len() - bodies + 2 * 4);
        // Decoding meters nothing further; every decode is counted.
        for _ in 0..2 {
            let _ = img.get_ref("foo").unwrap().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hli.deserialize.bytes"), open_bytes);
        assert_eq!(snap.counter("hli.deserialize.calls"), 1);
        assert_eq!(snap.counter("hli.image.units_validated"), 2);
        assert_eq!(snap.counter("hli.image.units_total"), 2);
    }

    #[test]
    fn image_bytes_are_metered_apart_from_table1_bytes() {
        // `hli.serialize.*` is Table 1's compact-size meter; the image
        // is counted under `hli.image.bytes` only.
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let _g = hli_obs::metrics::scoped(reg.clone());
        let bytes = encode_image(&two_unit_file(), SerializeOpts::default());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hli.image.bytes"), bytes.len() as u64);
        assert_eq!(snap.counter("hli.serialize.bytes"), 0);
        assert_eq!(snap.counter("hli.serialize.calls"), 0);
    }

    #[test]
    fn open_file_matches_in_memory_open() {
        let bytes = encode_image(&two_unit_file(), SerializeOpts { include_names: true });
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
        let path = dir.join(format!("image-open-file-test-{}.hli", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let img = HliImage::open_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(img.units().count(), 2);
        let got = img.get_ref("bar").unwrap().unwrap();
        assert_eq!(*got.tables(), two_unit_file().entries[1]);
        assert!(HliImage::open_file(&dir.join("no-such-image.hli")).is_err());
    }

    #[test]
    fn truncated_and_corrupt_images_fail_cleanly() {
        let bytes = encode_image(&two_unit_file(), SerializeOpts { include_names: true });
        assert!(HliImage::open(bytes.clone()).is_ok());
        assert!(HliImage::open(b"HLI".to_vec()).is_err());
        assert!(HliImage::open(b"NOPE0000".to_vec()).is_err());
        // Another format is named as such, whatever follows its magic.
        for old in [&b"HLI\x01\x00"[..], b"HLI\x02\x00\x00\x00\x00\x00\x00\x00"] {
            let err = HliImage::open(old.to_vec()).err().expect("not an image");
            assert!(err.0.contains("bad magic"), "got: {err:?}");
        }
        let mut flags = bytes.clone();
        flags[4] |= 0x80;
        assert!(HliImage::open(flags).err().unwrap().0.contains("flags"));
        // Bytes after the last body, or a body cut short, break the sum of
        // the lengths: every truncation fails at open.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(HliImage::open(trailing).is_err());
        for cut in 0..bytes.len() {
            assert!(HliImage::open(bytes[..cut].to_vec()).is_err(), "truncated at {cut}");
        }
        // A body cut at any length behind a directory that claims the
        // shorter body, or one that leaves a byte over, fails as that unit
        // (or, cut inside its name, at open).
        let mut body = encode_entry(&figure2_like(), SerializeOpts::default());
        for cut in 0..body.len() {
            if let Ok(img) = HliImage::open(frame(0, &[cut as u64], &body[..cut])) {
                assert!(img.get_ref("foo").is_err(), "a body cut at {cut} decoded");
            }
        }
        body.push(0);
        let img = HliImage::open(frame(0, &[body.len() as u64], &body)).unwrap();
        let err = img.get_ref("foo").err().expect("a trailing byte is an error");
        assert!(
            err.0.contains("unit `foo`") && err.0.contains("trailing"),
            "got: {err:?}"
        );
    }

    #[test]
    fn every_single_byte_flip_is_contained() {
        // The image trust boundary, exhaustively: flip each byte of the
        // image in turn; open + decode + verify must either fail with a
        // DecodeError or produce *some* entry — never panic. (Semantic
        // damage that survives the decoder is vet_unit's job.)
        for include_names in [true, false] {
            let bytes = encode_image(&two_unit_file(), SerializeOpts { include_names });
            for i in 0..bytes.len() {
                let mut mutated = bytes.clone();
                mutated[i] ^= 0xA5;
                let Ok(img) = HliImage::open(mutated) else { continue };
                let names: Vec<String> = img.units().map(String::from).collect();
                for unit in names {
                    if let Ok(Some(r)) = img.get_ref(&unit) {
                        let _ = r.tables().verify();
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_offsets_cannot_escape_the_body() {
        let body = encode_entry(&figure2_like(), SerializeOpts::default());
        let len = body.len() as u64;
        let refused = |bytes: Vec<u8>, what: &str| {
            let err = HliImage::open(bytes).err().expect("a hostile directory must be refused");
            assert!(err.0.contains(what), "want `{what}`, got: {err:?}");
        };
        // Lengths that overflow when summed, or that do not add up to the
        // bodies that follow.
        refused(frame(0, &[u64::MAX, 2], &body), "overflow");
        refused(frame(0, &[len - 1], &body), "add up");
        refused(frame(0, &[len + 1], &body), "add up");
        refused(frame(0, &[len, len], &body), "add up");
        refused(frame(0, &[u64::MAX >> 1], &body), "add up");
        // A count far past the file is refused, not allocated.
        let mut huge = MAGIC.to_vec();
        huge.push(0);
        put_varint(&mut huge, u64::MAX >> 1);
        refused(huge, "end of input");
        // Two units with one name: the file is malformed.
        let mut twice = body.clone();
        twice.extend_from_slice(&body);
        refused(frame(0, &[len, len], &twice), "duplicate unit name `foo`");
        // A name that is not UTF-8, or runs past its body.
        let mut bad = body.clone();
        bad[1] = 0xFF;
        refused(frame(0, &[len], &bad), "utf8");
        refused(frame(0, &[2, len - 2], &body), "name");
        // A body of length zero has no name at all.
        refused(frame(0, &[0, len], &body), "name");
    }
}
