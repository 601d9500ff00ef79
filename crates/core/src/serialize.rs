//! Compact binary serialization of HLI files (`HLI\x01`).
//!
//! Table 1 of the paper reports the HLI size in KB per benchmark (10–69
//! bytes per source line); this module defines the byte format those
//! numbers are measured against in the reproduction. IDs, lines and counts
//! are LEB128 varints; enums are single bytes. Debug name hints are
//! excluded unless [`SerializeOpts::include_names`] is set (the harness
//! measures the compact form).
//!
//! The compact form is the one HLI encoding. A whole file
//! ([`encode_file`] / [`decode_file`]) is Table 1's size meter and the
//! round-trip reference; one unit's entry ([`encode_entry`]) is what the
//! serve cache key hashes and, inside an `HLI\x04` image
//! ([`crate::image`]), what the back end imports one unit at a time.
//!
//! Byte sizes crossing this boundary are mirrored into the metrics
//! registry (`hli.serialize.bytes` / `hli.deserialize.bytes`), making the
//! paper's §4 HLI-size claim a measured metric. `hli.serialize.*` counts
//! only the calls above: an image encodes its bodies unmetered and is
//! counted under `hli.image.*`.

use crate::ids::{ItemId, RegionId};
use crate::tables::*;
use std::fmt;

/// Magic number of a compact HLI file: "HLI" + version 1.
pub const MAGIC: [u8; 4] = *b"HLI\x01";

/// Serialization options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerializeOpts {
    /// Include class name hints (debug builds of the HLI).
    pub include_names: bool,
}

/// A deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HLI decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn count_encoded(n: usize) {
    let r = hli_obs::metrics::cur();
    r.counter("hli.serialize.bytes").add(n as u64);
    r.counter("hli.serialize.calls").inc();
}

pub(crate) fn count_decoded(n: usize) {
    let r = hli_obs::metrics::cur();
    r.counter("hli.deserialize.bytes").add(n as u64);
    r.counter("hli.deserialize.calls").inc();
}

/// Serialize a whole HLI file.
pub fn encode_file(file: &HliFile, opts: SerializeOpts) -> Vec<u8> {
    let _t = hli_obs::phase::timed("hli.encode");
    let mut b = Vec::new();
    b.extend_from_slice(&MAGIC);
    put_varint(&mut b, file.entries.len() as u64);
    for e in &file.entries {
        encode_entry_into(e, opts, &mut b);
    }
    count_encoded(b.len());
    b
}

/// Serialize one program unit's entry (the on-demand per-function unit the
/// back-end reads, Section 3.2.1).
pub fn encode_entry(e: &HliEntry, opts: SerializeOpts) -> Vec<u8> {
    let mut b = Vec::new();
    encode_entry_into(e, opts, &mut b);
    count_encoded(b.len());
    b
}

pub(crate) fn encode_entry_into(e: &HliEntry, opts: SerializeOpts, b: &mut Vec<u8>) {
    put_str(b, &e.unit_name);
    put_varint(b, e.next_id as u64);
    // Line table.
    put_varint(b, e.line_table.lines.len() as u64);
    for l in &e.line_table.lines {
        put_varint(b, l.line as u64);
        put_varint(b, l.items.len() as u64);
        for it in &l.items {
            put_varint(b, it.id.0 as u64);
            b.push(match it.ty {
                ItemType::Load => 0,
                ItemType::Store => 1,
                ItemType::Call => 2,
            });
        }
    }
    // Region table.
    put_varint(b, e.regions.len() as u64);
    for r in &e.regions {
        put_varint(b, r.id.0 as u64);
        match r.kind {
            RegionKind::Unit => b.push(0),
            RegionKind::Loop { header_line } => {
                b.push(1);
                put_varint(b, header_line as u64);
            }
        }
        put_varint(b, r.parent.map(|p| p.0 as u64 + 1).unwrap_or(0));
        put_varint(b, r.subregions.len() as u64);
        for s in &r.subregions {
            put_varint(b, s.0 as u64);
        }
        put_varint(b, r.scope.0 as u64);
        put_varint(b, r.scope.1 as u64);
        // Equivalent access table.
        put_varint(b, r.equiv_classes.len() as u64);
        for c in &r.equiv_classes {
            put_varint(b, c.id.0 as u64);
            b.push(match c.kind {
                EquivKind::Definite => 0,
                EquivKind::Maybe => 1,
            });
            if opts.include_names {
                put_str(b, &c.name_hint);
            }
            put_varint(b, c.members.len() as u64);
            for m in &c.members {
                match m {
                    MemberRef::Item(it) => {
                        b.push(0);
                        put_varint(b, it.0 as u64);
                    }
                    MemberRef::SubClass { region, class } => {
                        b.push(1);
                        put_varint(b, region.0 as u64);
                        put_varint(b, class.0 as u64);
                    }
                }
            }
        }
        // Alias table.
        put_varint(b, r.alias_table.len() as u64);
        for a in &r.alias_table {
            put_varint(b, a.classes.len() as u64);
            for c in &a.classes {
                put_varint(b, c.0 as u64);
            }
        }
        // LCDD table.
        put_varint(b, r.lcdd_table.len() as u64);
        for d in &r.lcdd_table {
            put_varint(b, d.src.0 as u64);
            put_varint(b, d.dst.0 as u64);
            b.push(match d.kind {
                DepKind::Definite => 0,
                DepKind::Maybe => 1,
            });
            match d.distance {
                Distance::Const(k) => {
                    b.push(0);
                    put_varint(b, k as u64);
                }
                Distance::Unknown => b.push(1),
            }
        }
        // Call REF/MOD table.
        put_varint(b, r.call_refmod.len() as u64);
        for crm in &r.call_refmod {
            match crm.callee {
                CallRef::Item(it) => {
                    b.push(0);
                    put_varint(b, it.0 as u64);
                }
                CallRef::SubRegion(s) => {
                    b.push(1);
                    put_varint(b, s.0 as u64);
                }
            }
            put_varint(b, crm.refs.len() as u64);
            for c in &crm.refs {
                put_varint(b, c.0 as u64);
            }
            put_varint(b, crm.mods.len() as u64);
            for c in &crm.mods {
                put_varint(b, c.0 as u64);
            }
        }
    }
}

/// Read the 4-byte magic header, advancing `b` past it, length-checked so
/// the decoder never takes the unchecked `b[..4]` slice the fuzzer guards
/// against.
fn read_magic(b: &mut &[u8]) -> Result<[u8; 4], DecodeError> {
    if b.len() < 4 {
        return Err(DecodeError("truncated header".into()));
    }
    let (head, rest) = b.split_at(4);
    *b = rest;
    Ok(head.try_into().expect("split_at(4) yields 4 bytes"))
}

/// Deserialize a whole HLI file.
pub fn decode_file(buf: &[u8], opts: SerializeOpts) -> Result<HliFile, DecodeError> {
    let _t = hli_obs::phase::timed("hli.decode");
    let total = buf.len();
    let mut buf = buf;
    let b = &mut buf;
    if read_magic(b)? != MAGIC {
        return Err(DecodeError("bad magic".into()));
    }
    let n = get_len(b)?;
    let mut entries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        entries.push(decode_entry(b, opts)?);
    }
    if !b.is_empty() {
        return Err(DecodeError(format!("trailing bytes: {} after last entry", b.len())));
    }
    count_decoded(total);
    Ok(HliFile { entries })
}

pub(crate) fn decode_entry(b: &mut &[u8], opts: SerializeOpts) -> Result<HliEntry, DecodeError> {
    let unit_name = get_str(b)?;
    let next_id = get_u32(b)?;
    let mut line_table = LineTable::default();
    let nlines = get_len(b)?;
    for _ in 0..nlines {
        let line = get_u32(b)?;
        let nitems = get_len(b)?;
        let mut items = Vec::with_capacity(nitems.min(4096));
        for _ in 0..nitems {
            let id = ItemId(get_u32(b)?);
            let ty = match get_u8(b)? {
                0 => ItemType::Load,
                1 => ItemType::Store,
                2 => ItemType::Call,
                x => return Err(DecodeError(format!("bad item type {x}"))),
            };
            items.push(ItemEntry { id, ty });
        }
        line_table.lines.push(LineEntry { line, items });
    }
    let nregions = get_len(b)?;
    let mut regions = Vec::with_capacity(nregions.min(4096));
    for _ in 0..nregions {
        let id = RegionId(get_u32(b)?);
        let kind = match get_u8(b)? {
            0 => RegionKind::Unit,
            1 => RegionKind::Loop { header_line: get_u32(b)? },
            x => return Err(DecodeError(format!("bad region kind {x}"))),
        };
        let praw = get_varint(b)?;
        let parent = if praw == 0 {
            None
        } else {
            Some(RegionId(narrow_u32(praw - 1)?))
        };
        let nsub = get_len(b)?;
        let mut subregions = Vec::with_capacity(nsub.min(4096));
        for _ in 0..nsub {
            subregions.push(RegionId(get_u32(b)?));
        }
        let scope = (get_u32(b)?, get_u32(b)?);
        let nclasses = get_len(b)?;
        let mut equiv_classes = Vec::with_capacity(nclasses.min(4096));
        for _ in 0..nclasses {
            let cid = ItemId(get_u32(b)?);
            let kind = match get_u8(b)? {
                0 => EquivKind::Definite,
                1 => EquivKind::Maybe,
                x => return Err(DecodeError(format!("bad equiv kind {x}"))),
            };
            let name_hint = if opts.include_names {
                get_str(b)?
            } else {
                String::new()
            };
            let nm = get_len(b)?;
            let mut members = Vec::with_capacity(nm.min(4096));
            for _ in 0..nm {
                members.push(match get_u8(b)? {
                    0 => MemberRef::Item(ItemId(get_u32(b)?)),
                    1 => MemberRef::SubClass {
                        region: RegionId(get_u32(b)?),
                        class: ItemId(get_u32(b)?),
                    },
                    x => return Err(DecodeError(format!("bad member tag {x}"))),
                });
            }
            equiv_classes.push(EquivClass { id: cid, kind, members, name_hint });
        }
        let nalias = get_len(b)?;
        let mut alias_table = Vec::with_capacity(nalias.min(4096));
        for _ in 0..nalias {
            let nc = get_len(b)?;
            let mut classes = Vec::with_capacity(nc.min(4096));
            for _ in 0..nc {
                classes.push(ItemId(get_u32(b)?));
            }
            alias_table.push(AliasEntry { classes });
        }
        let nlcdd = get_len(b)?;
        let mut lcdd_table = Vec::with_capacity(nlcdd.min(4096));
        for _ in 0..nlcdd {
            let src = ItemId(get_u32(b)?);
            let dst = ItemId(get_u32(b)?);
            let kind = match get_u8(b)? {
                0 => DepKind::Definite,
                1 => DepKind::Maybe,
                x => return Err(DecodeError(format!("bad dep kind {x}"))),
            };
            let distance = match get_u8(b)? {
                0 => Distance::Const(get_u32(b)?),
                1 => Distance::Unknown,
                x => return Err(DecodeError(format!("bad distance tag {x}"))),
            };
            lcdd_table.push(LcddEntry { src, dst, kind, distance });
        }
        let ncrm = get_len(b)?;
        let mut call_refmod = Vec::with_capacity(ncrm.min(4096));
        for _ in 0..ncrm {
            let callee = match get_u8(b)? {
                0 => CallRef::Item(ItemId(get_u32(b)?)),
                1 => CallRef::SubRegion(RegionId(get_u32(b)?)),
                x => return Err(DecodeError(format!("bad callee tag {x}"))),
            };
            let nr = get_len(b)?;
            let mut refs = Vec::with_capacity(nr.min(4096));
            for _ in 0..nr {
                refs.push(ItemId(get_u32(b)?));
            }
            let nm = get_len(b)?;
            let mut mods = Vec::with_capacity(nm.min(4096));
            for _ in 0..nm {
                mods.push(ItemId(get_u32(b)?));
            }
            call_refmod.push(CallRefMod { callee, refs, mods });
        }
        regions.push(Region {
            id,
            kind,
            parent,
            subregions,
            scope,
            equiv_classes,
            alias_table,
            lcdd_table,
            call_refmod,
        });
    }
    Ok(HliEntry { unit_name, line_table, regions, next_id, generation: 0 })
}

pub(crate) fn put_varint(b: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            b.push(byte);
            return;
        }
        b.push(byte | 0x80);
    }
}

fn get_varint(b: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = get_u8(b)?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(DecodeError("varint overflow".into()));
        }
    }
}

/// Narrow a decoded varint into the u32 range all IDs, lines and distances
/// live in, rejecting (rather than wrapping) out-of-range values.
fn narrow_u32(v: u64) -> Result<u32, DecodeError> {
    u32::try_from(v).map_err(|_| DecodeError(format!("varint {v} out of u32 range")))
}

/// Decode a varint that must fit in a u32 (IDs, source lines, distances).
fn get_u32(b: &mut &[u8]) -> Result<u32, DecodeError> {
    narrow_u32(get_varint(b)?)
}

/// Decode a varint used as an in-memory count or length, rejecting values
/// that would wrap `usize` on narrower targets.
pub(crate) fn get_len(b: &mut &[u8]) -> Result<usize, DecodeError> {
    let v = get_varint(b)?;
    usize::try_from(v).map_err(|_| DecodeError(format!("varint {v} out of usize range")))
}

pub(crate) fn get_u8(b: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&first, rest) =
        b.split_first().ok_or_else(|| DecodeError("unexpected end of input".into()))?;
    *b = rest;
    Ok(first)
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_varint(b, s.len() as u64);
    b.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(b: &mut &[u8]) -> Result<String, DecodeError> {
    let len = get_len(b)?;
    if b.len() < len {
        return Err(DecodeError("truncated string".into()));
    }
    let (head, rest) = b.split_at(len);
    let s = String::from_utf8(head.to_vec()).map_err(|e| DecodeError(format!("bad utf8: {e}")))?;
    *b = rest;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::tests::figure2_like;

    #[test]
    fn roundtrip_without_names() {
        let mut e = figure2_like();
        // Names are dropped in compact mode; blank them for comparison.
        let file = HliFile { entries: vec![e.clone()] };
        let bytes = encode_file(&file, SerializeOpts::default());
        let back = decode_file(&bytes, SerializeOpts::default()).unwrap();
        for r in &mut e.regions {
            for c in &mut r.equiv_classes {
                c.name_hint.clear();
            }
        }
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0], e);
    }

    #[test]
    fn roundtrip_with_names() {
        let e = figure2_like();
        let opts = SerializeOpts { include_names: true };
        let file = HliFile { entries: vec![e.clone()] };
        let bytes = encode_file(&file, opts);
        let back = decode_file(&bytes, opts).unwrap();
        assert_eq!(back.entries[0], e);
    }

    #[test]
    fn compact_is_smaller_than_named() {
        let e = figure2_like();
        let file = HliFile { entries: vec![e] };
        let compact = encode_file(&file, SerializeOpts::default());
        let named = encode_file(&file, SerializeOpts { include_names: true });
        assert!(compact.len() < named.len());
    }

    #[test]
    fn entry_roundtrip() {
        let e = figure2_like();
        let bytes = encode_entry(&e, SerializeOpts { include_names: true });
        let mut slice = &bytes[..];
        let back = decode_entry(&mut slice, SerializeOpts { include_names: true }).unwrap();
        assert_eq!(back, e);
        assert!(slice.is_empty(), "decoder consumed everything");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_file(b"NOPE....", SerializeOpts::default()).unwrap_err();
        assert!(err.0.contains("bad magic"));
    }

    #[test]
    fn truncation_rejected_not_panicking() {
        let file = HliFile { entries: vec![figure2_like()] };
        let bytes = encode_file(&file, SerializeOpts::default());
        // Every prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_file(&bytes[..cut], SerializeOpts::default()).is_err());
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut s = &b[..];
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn empty_file_roundtrip() {
        let f = HliFile::default();
        let bytes = encode_file(&f, SerializeOpts::default());
        assert_eq!(decode_file(&bytes, SerializeOpts::default()).unwrap(), f);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let file = HliFile { entries: vec![figure2_like()] };
        let mut bytes = encode_file(&file, SerializeOpts::default());
        bytes.extend_from_slice(b"junk");
        let err = decode_file(&bytes, SerializeOpts::default()).unwrap_err();
        assert!(err.0.contains("trailing bytes"), "got: {err}");
    }

    #[test]
    fn oversize_varints_rejected_not_wrapped() {
        // An id of u32::MAX + 1 must be a decode error, not a silent wrap
        // to ItemId(0). Build a file body by hand: magic, 1 entry, empty
        // name, then the oversized next_id varint.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, 1); // one entry
        put_str(&mut bytes, ""); // unit_name
        put_varint(&mut bytes, u64::from(u32::MAX) + 1); // next_id
        let err = decode_file(&bytes, SerializeOpts::default()).unwrap_err();
        assert!(err.0.contains("out of u32 range"), "got: {err}");
    }

    #[test]
    fn size_is_modest() {
        // The paper reports tens of bytes per source line; the figure-2
        // fixture covers ~12 lines and should stay in the hundreds.
        let e = figure2_like();
        let bytes = encode_entry(&e, SerializeOpts::default());
        assert!(bytes.len() < 400, "compact entry is {} bytes", bytes.len());
    }

    #[test]
    fn serialize_sizes_are_metered() {
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let _g = hli_obs::metrics::scoped(reg.clone());
        let file = HliFile { entries: vec![figure2_like()] };
        let bytes = encode_file(&file, SerializeOpts::default());
        decode_file(&bytes, SerializeOpts::default()).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hli.serialize.bytes"), bytes.len() as u64);
        assert_eq!(snap.counter("hli.deserialize.bytes"), bytes.len() as u64);
        assert_eq!(snap.counter("hli.serialize.calls"), 1);
        assert_eq!(snap.counter("hli.deserialize.calls"), 1);
    }
}
