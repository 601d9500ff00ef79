//! `HLI\x03` images — the form the back end imports.
//!
//! The paper's back end reads the HLI file on demand, one program unit at
//! a time (§3.2.1). The v3 container stores every table as fixed-width
//! little-endian `u32` words behind a directory, so opening an image reads
//! only the directory, and a unit's body is read only when the back end
//! asks for that unit: it is structurally validated once (memoized) and
//! then decoded by [`HliEntryView::materialize`] into the owned
//! [`HliEntry`] the back end verifies and queries. That decode is the only
//! reader of a unit body.
//!
//! Layout contract (see DESIGN.md, "On-demand import: the `HLI\x03`
//! image", for the full rules):
//!
//! * everything is `u32` little-endian words; the file length must be a
//!   multiple of 4 ("misaligned" images are rejected at open), and every
//!   intra-file table offset is expressed in words, so no read can ever
//!   be torn or unaligned — words are assembled with
//!   `u32::from_le_bytes`, which is defined for any byte position;
//! * file = magic word `HLI\x03` · unit count · directory
//!   (4 words per unit: name byte-offset/byte-length, body
//!   word-offset/word-length) · names pool (padded) · word-aligned bodies;
//! * body = 8 header words (`next_id`, flags, `n_lines`, `n_items`,
//!   `n_regions`, string-pool word offset, string-pool byte length,
//!   reserved 0) · line records (3 words) · item records (2 words) ·
//!   region records (16 words) · auxiliary pools (class/member/alias/
//!   LCDD/REF-MOD records and raw id pools) · string pool (padded).
//!
//! Trust boundary: [`HliImage::open`] checks only the file frame; the
//! first access to a unit runs a **structural** validation pass
//! (memoized) proving every offset, count and tag in the body in-bounds
//! and well-formed, which is what makes decoding infallible — a
//! truncated, bit-flipped or misaligned image fails at open or at the
//! unit's first access with a [`DecodeError`], never a panic or an
//! out-of-bounds read. *Semantic* validity (partition property, alias
//! locality, …) remains [`HliEntry::verify`]'s job: the back end's
//! `vet_unit` verifies the decoded tables and hands exactly those on.
//! Images are immutable; maintenance rewrites the decoded copy.
//!
//! Image activity is mirrored into the metrics registry under
//! `hli.image.*`: `bytes` (image bytes encoded), `opens`, `units_total`,
//! `units_validated` (structural passes run). Bytes consumed by the open
//! itself (magic + directory + names) are counted as
//! `hli.deserialize.bytes`; decoding a unit counts nothing.
//! `hli.serialize.*` is left to the compact `HLI\x01` form, Table 1's
//! size meter.

use crate::ids::{ItemId, RegionId};
use crate::serialize::{count_decoded, DecodeError, SerializeOpts};
use crate::tables::{
    AliasEntry, CallRef, CallRefMod, DepKind, Distance, EquivClass, EquivKind, HliEntry, HliFile,
    ItemEntry, ItemType, LcddEntry, LineTable, MemberRef, Region, RegionKind,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Magic bytes of the image container: `HLI\x03`.
pub const MAGIC_V3: [u8; 4] = *b"HLI\x03";

const HDR_WORDS: u32 = 8;
const LINE_WORDS: u32 = 3;
const ITEM_WORDS: u32 = 2;
const REGION_WORDS: u32 = 16;
const CLASS_WORDS: u32 = 6;
const MEMBER_WORDS: u32 = 3;
const ALIAS_WORDS: u32 = 2;
const LCDD_WORDS: u32 = 5;
const CRM_WORDS: u32 = 6;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn item_ty_tag(ty: ItemType) -> u32 {
    match ty {
        ItemType::Load => 0,
        ItemType::Store => 1,
        ItemType::Call => 2,
    }
}

fn push_sp(sp: &mut Vec<u8>, s: &str) -> (u32, u32) {
    let off = sp.len() as u32;
    sp.extend_from_slice(s.as_bytes());
    (off, s.len() as u32)
}

/// Encode one entry as a word-aligned v3 body.
fn encode_entry_v3(e: &HliEntry, opts: SerializeOpts) -> Vec<u32> {
    let mut b = vec![0u32; HDR_WORDS as usize];
    let mut sp: Vec<u8> = Vec::new();
    // Line records, then the flat item array they index into.
    let n_lines = e.line_table.lines.len() as u32;
    let mut first = 0u32;
    for l in &e.line_table.lines {
        b.push(l.line);
        b.push(first);
        b.push(l.items.len() as u32);
        first += l.items.len() as u32;
    }
    let n_items = first;
    for l in &e.line_table.lines {
        for it in &l.items {
            b.push(it.id.0);
            b.push(item_ty_tag(it.ty));
        }
    }
    // Region records are fixed-width, so reserve the block and patch each
    // record after its auxiliary pools are laid down.
    let reg_base = b.len();
    b.resize(reg_base + e.regions.len() * REGION_WORDS as usize, 0);
    for (i, r) in e.regions.iter().enumerate() {
        let sub_off = b.len() as u32;
        for s in &r.subregions {
            b.push(s.0);
        }
        // Per-class member pools (and string-pool hints) first, then the
        // contiguous class-record block they are referenced from.
        let mut class_meta = Vec::with_capacity(r.equiv_classes.len());
        for c in &r.equiv_classes {
            let member_off = b.len() as u32;
            for m in &c.members {
                match *m {
                    MemberRef::Item(id) => b.extend_from_slice(&[0, id.0, 0]),
                    MemberRef::SubClass { region, class } => {
                        b.extend_from_slice(&[1, region.0, class.0])
                    }
                }
            }
            let (hint_off, hint_len) = if opts.include_names {
                push_sp(&mut sp, &c.name_hint)
            } else {
                (0, 0)
            };
            class_meta.push((member_off, hint_off, hint_len));
        }
        let class_off = b.len() as u32;
        for (c, (member_off, hint_off, hint_len)) in r.equiv_classes.iter().zip(&class_meta) {
            let kind = match c.kind {
                EquivKind::Definite => 0,
                EquivKind::Maybe => 1,
            };
            b.extend_from_slice(&[
                c.id.0,
                kind,
                *member_off,
                c.members.len() as u32,
                *hint_off,
                *hint_len,
            ]);
        }
        let mut alias_meta = Vec::with_capacity(r.alias_table.len());
        for a in &r.alias_table {
            let off = b.len() as u32;
            for c in &a.classes {
                b.push(c.0);
            }
            alias_meta.push((off, a.classes.len() as u32));
        }
        let alias_off = b.len() as u32;
        for (off, count) in &alias_meta {
            b.extend_from_slice(&[*off, *count]);
        }
        let lcdd_off = b.len() as u32;
        for d in &r.lcdd_table {
            let kind = match d.kind {
                DepKind::Definite => 0,
                DepKind::Maybe => 1,
            };
            let (dist_tag, dist_val) = match d.distance {
                Distance::Const(k) => (0, k),
                Distance::Unknown => (1, 0),
            };
            b.extend_from_slice(&[d.src.0, d.dst.0, kind, dist_tag, dist_val]);
        }
        let mut crm_meta = Vec::with_capacity(r.call_refmod.len());
        for c in &r.call_refmod {
            let refs_off = b.len() as u32;
            for id in &c.refs {
                b.push(id.0);
            }
            let mods_off = b.len() as u32;
            for id in &c.mods {
                b.push(id.0);
            }
            crm_meta.push((refs_off, mods_off));
        }
        let crm_off = b.len() as u32;
        for (c, (refs_off, mods_off)) in r.call_refmod.iter().zip(&crm_meta) {
            let (callee_tag, callee_id) = match c.callee {
                CallRef::Item(id) => (0, id.0),
                CallRef::SubRegion(rg) => (1, rg.0),
            };
            b.extend_from_slice(&[
                callee_tag,
                callee_id,
                *refs_off,
                c.refs.len() as u32,
                *mods_off,
                c.mods.len() as u32,
            ]);
        }
        let rec = reg_base + i * REGION_WORDS as usize;
        let (kind_tag, header_line) = match r.kind {
            RegionKind::Unit => (0, 0),
            RegionKind::Loop { header_line } => (1, header_line),
        };
        b[rec] = r.id.0;
        b[rec + 1] = kind_tag;
        b[rec + 2] = header_line;
        b[rec + 3] = r.parent.map_or(0, |p| p.0 + 1);
        b[rec + 4] = r.scope.0;
        b[rec + 5] = r.scope.1;
        b[rec + 6] = class_off;
        b[rec + 7] = r.equiv_classes.len() as u32;
        b[rec + 8] = alias_off;
        b[rec + 9] = r.alias_table.len() as u32;
        b[rec + 10] = lcdd_off;
        b[rec + 11] = r.lcdd_table.len() as u32;
        b[rec + 12] = crm_off;
        b[rec + 13] = r.call_refmod.len() as u32;
        b[rec + 14] = sub_off;
        b[rec + 15] = r.subregions.len() as u32;
    }
    let str_off = b.len() as u32;
    let str_len = sp.len() as u32;
    while !sp.len().is_multiple_of(4) {
        sp.push(0);
    }
    for chunk in sp.chunks_exact(4) {
        b.push(u32::from_le_bytes(chunk.try_into().unwrap()));
    }
    b[0] = e.next_id;
    b[1] = u32::from(opts.include_names);
    b[2] = n_lines;
    b[3] = n_items;
    b[4] = e.regions.len() as u32;
    b[5] = str_off;
    b[6] = str_len;
    b[7] = 0;
    b
}

/// Serialize a whole HLI file as an `HLI\x03` image: a word-aligned
/// directory plus one fixed-width word-table body per unit, opened by
/// [`HliImage`] one unit at a time.
pub fn encode_file_v3(file: &HliFile, opts: SerializeOpts) -> Vec<u8> {
    let _t = hli_obs::phase::timed("hli.image.encode");
    let bodies: Vec<Vec<u32>> = file.entries.iter().map(|e| encode_entry_v3(e, opts)).collect();
    let n = file.entries.len();
    let dir_words = 2 + 4 * n;
    let mut names: Vec<u8> = Vec::new();
    let mut name_meta = Vec::with_capacity(n);
    for e in &file.entries {
        let off = dir_words * 4 + names.len();
        names.extend_from_slice(e.unit_name.as_bytes());
        name_meta.push((off as u32, e.unit_name.len() as u32));
    }
    while !names.len().is_multiple_of(4) {
        names.push(0);
    }
    let mut body_off = (dir_words + names.len() / 4) as u32;
    let mut out: Vec<u8> = Vec::with_capacity(
        (dir_words + names.len() / 4 + bodies.iter().map(Vec::len).sum::<usize>()) * 4,
    );
    out.extend_from_slice(&MAGIC_V3);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for ((name_off, name_len), body) in name_meta.iter().zip(&bodies) {
        out.extend_from_slice(&name_off.to_le_bytes());
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(&body_off.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        body_off += body.len() as u32;
    }
    out.extend_from_slice(&names);
    for body in &bodies {
        for w in body {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    hli_obs::metrics::cur().counter("hli.image.bytes").add(out.len() as u64);
    out
}

// ---------------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------------

fn word_at(data: &[u8], w: usize) -> u32 {
    let o = w * 4;
    u32::from_le_bytes(data[o..o + 4].try_into().unwrap())
}

/// Fallible word reader used only while a body is still untrusted.
struct Check<'a> {
    b: &'a [u8],
    unit: &'a str,
}

impl Check<'_> {
    fn n_words(&self) -> u64 {
        (self.b.len() / 4) as u64
    }

    fn w(&self, i: u64, what: &str) -> Result<u32, DecodeError> {
        if i >= self.n_words() {
            return Err(DecodeError(format!(
                "unit `{}`: {what} at word {i} is past the body end ({} words)",
                self.unit,
                self.n_words()
            )));
        }
        Ok(word_at(self.b, i as usize))
    }

    /// Check `off + count*size` stays within `lim` words and return `off`.
    fn range(
        &self,
        off: u32,
        count: u32,
        size: u32,
        lim: u64,
        what: &str,
    ) -> Result<u64, DecodeError> {
        let end = u64::from(off) + u64::from(count) * u64::from(size);
        if end > lim {
            return Err(DecodeError(format!(
                "unit `{}`: {what} [{off} +{count}x{size}] extends past word {lim}",
                self.unit
            )));
        }
        Ok(u64::from(off))
    }

    fn tag(&self, v: u32, max: u32, what: &str) -> Result<u32, DecodeError> {
        if v > max {
            return Err(DecodeError(format!("unit `{}`: bad {what} tag {v}", self.unit)));
        }
        Ok(v)
    }
}

/// One structural pass over a body: prove every offset, count and tag
/// [`HliEntryView::materialize`] will follow in-bounds and well-formed, so
/// decoding itself is infallible. Semantic validity is *not* checked
/// here — that stays with [`HliEntry::verify`].
fn validate_body(b: &[u8], unit: &str) -> Result<(), DecodeError> {
    let c = Check { b, unit };
    if c.n_words() < u64::from(HDR_WORDS) {
        return Err(DecodeError(format!("unit `{unit}`: body shorter than its header")));
    }
    let flags = c.w(1, "flags")?;
    if flags & !1 != 0 {
        return Err(DecodeError(format!("unit `{unit}`: unknown flags {flags:#x}")));
    }
    if c.w(7, "reserved")? != 0 {
        return Err(DecodeError(format!("unit `{unit}`: nonzero reserved header word")));
    }
    let n_lines = c.w(2, "n_lines")?;
    let n_items = c.w(3, "n_items")?;
    let n_regions = c.w(4, "n_regions")?;
    if n_regions == 0 {
        return Err(DecodeError(format!("unit `{unit}`: no unit region")));
    }
    let str_off = c.w(5, "str_off")?;
    let str_len = c.w(6, "str_len")?;
    // The string pool must close the body exactly (padded to a word), and
    // every word table must sit strictly below it — this both bounds all
    // table offsets and rejects trailing garbage.
    let str_words = u64::from(str_len).div_ceil(4);
    if u64::from(str_off) < u64::from(HDR_WORDS) || u64::from(str_off) + str_words != c.n_words() {
        return Err(DecodeError(format!(
            "unit `{unit}`: string pool [{str_off} +{str_len}B] does not close the body"
        )));
    }
    let lim = u64::from(str_off);
    let sp = &b[str_off as usize * 4..str_off as usize * 4 + str_len as usize];
    let lines_off = c.range(HDR_WORDS, n_lines, LINE_WORDS, lim, "line table")?;
    let items_off = lines_off + u64::from(n_lines) * u64::from(LINE_WORDS);
    c.range(items_off as u32, n_items, ITEM_WORDS, lim, "item table")?;
    let regs_off = items_off + u64::from(n_items) * u64::from(ITEM_WORDS);
    c.range(regs_off as u32, n_regions, REGION_WORDS, lim, "region table")?;
    // Fixed tables can silently overflow u32 in the running offsets above
    // only if their sizes already exceeded `lim`, which range() rejects
    // (lim < 2^30 since body bytes fit memory); keep the arithmetic in
    // u64 regardless.
    for i in 0..u64::from(n_lines) {
        let rec = lines_off + i * u64::from(LINE_WORDS);
        let first = c.w(rec + 1, "line first_item")?;
        let count = c.w(rec + 2, "line item count")?;
        if u64::from(first) + u64::from(count) > u64::from(n_items) {
            return Err(DecodeError(format!(
                "unit `{unit}`: line record {i} spans items [{first} +{count}] of {n_items}"
            )));
        }
    }
    for i in 0..u64::from(n_items) {
        c.tag(c.w(items_off + i * 2 + 1, "item type")?, 2, "item type")?;
    }
    for i in 0..u64::from(n_regions) {
        let rec = regs_off + i * u64::from(REGION_WORDS);
        c.tag(c.w(rec + 1, "region kind")?, 1, "region kind")?;
        let parent_plus1 = c.w(rec + 3, "region parent")?;
        // Parents must come strictly before their children so a parent
        // chase over the decoded regions (region_path / region_lca)
        // always terminates.
        if parent_plus1 != 0 && u64::from(parent_plus1 - 1) >= i {
            return Err(DecodeError(format!(
                "unit `{unit}`: region {i} has parent {} not before it",
                parent_plus1 - 1
            )));
        }
        if i == 0 && parent_plus1 != 0 {
            return Err(DecodeError(format!("unit `{unit}`: region 0 has a parent")));
        }
        let class_off = c.w(rec + 6, "class_off")?;
        let class_count = c.w(rec + 7, "class_count")?;
        let classes = c.range(class_off, class_count, CLASS_WORDS, lim, "class table")?;
        for k in 0..u64::from(class_count) {
            let crec = classes + k * u64::from(CLASS_WORDS);
            c.tag(c.w(crec + 1, "class kind")?, 1, "class kind")?;
            let member_off = c.w(crec + 2, "member_off")?;
            let member_count = c.w(crec + 3, "member_count")?;
            let members = c.range(member_off, member_count, MEMBER_WORDS, lim, "member pool")?;
            for m in 0..u64::from(member_count) {
                let mrec = members + m * u64::from(MEMBER_WORDS);
                let tag = c.tag(c.w(mrec, "member")?, 1, "member")?;
                if tag == 1 && c.w(mrec + 1, "member region")? >= n_regions {
                    return Err(DecodeError(format!(
                        "unit `{unit}`: member references region {} of {n_regions}",
                        c.w(mrec + 1, "member region")?
                    )));
                }
            }
            let hint_off = c.w(crec + 4, "hint_off")?;
            let hint_len = c.w(crec + 5, "hint_len")?;
            let hint_end = u64::from(hint_off) + u64::from(hint_len);
            if hint_end > u64::from(str_len) {
                return Err(DecodeError(format!(
                    "unit `{unit}`: hint [{hint_off} +{hint_len}B] outside the string pool"
                )));
            }
            if std::str::from_utf8(&sp[hint_off as usize..hint_end as usize]).is_err() {
                return Err(DecodeError(format!("unit `{unit}`: hint is not UTF-8")));
            }
        }
        let alias_off = c.w(rec + 8, "alias_off")?;
        let alias_count = c.w(rec + 9, "alias_count")?;
        let aliases = c.range(alias_off, alias_count, ALIAS_WORDS, lim, "alias table")?;
        for k in 0..u64::from(alias_count) {
            let arec = aliases + k * u64::from(ALIAS_WORDS);
            c.range(
                c.w(arec, "alias ids_off")?,
                c.w(arec + 1, "alias ids_count")?,
                1,
                lim,
                "alias id pool",
            )?;
        }
        let lcdd_off = c.w(rec + 10, "lcdd_off")?;
        let lcdd_count = c.w(rec + 11, "lcdd_count")?;
        let lcdds = c.range(lcdd_off, lcdd_count, LCDD_WORDS, lim, "LCDD table")?;
        for k in 0..u64::from(lcdd_count) {
            let lrec = lcdds + k * u64::from(LCDD_WORDS);
            c.tag(c.w(lrec + 2, "LCDD kind")?, 1, "LCDD kind")?;
            c.tag(c.w(lrec + 3, "LCDD distance")?, 1, "LCDD distance")?;
        }
        let crm_off = c.w(rec + 12, "crm_off")?;
        let crm_count = c.w(rec + 13, "crm_count")?;
        let crms = c.range(crm_off, crm_count, CRM_WORDS, lim, "REF/MOD table")?;
        for k in 0..u64::from(crm_count) {
            let crec = crms + k * u64::from(CRM_WORDS);
            let tag = c.tag(c.w(crec, "callee")?, 1, "callee")?;
            if tag == 1 && c.w(crec + 1, "callee region")? >= n_regions {
                return Err(DecodeError(format!(
                    "unit `{unit}`: REF/MOD callee region out of range"
                )));
            }
            c.range(
                c.w(crec + 2, "refs_off")?,
                c.w(crec + 3, "refs_count")?,
                1,
                lim,
                "ref pool",
            )?;
            c.range(
                c.w(crec + 4, "mods_off")?,
                c.w(crec + 5, "mods_count")?,
                1,
                lim,
                "mod pool",
            )?;
        }
        let sub_off = c.w(rec + 14, "sub_off")?;
        let sub_count = c.w(rec + 15, "sub_count")?;
        let subs = c.range(sub_off, sub_count, 1, lim, "subregion pool")?;
        for k in 0..u64::from(sub_count) {
            if c.w(subs + k, "subregion")? >= n_regions {
                return Err(DecodeError(format!("unit `{unit}`: subregion id out of range")));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding a unit
// ---------------------------------------------------------------------------

/// A structurally validated unit body in an `HLI\x03` image. Its one job
/// is [`materialize`](HliEntryView::materialize): validation ran before
/// the view was handed out, so decoding it cannot fail. `Copy`, so a
/// lookup can hand it out as freely as `&HliEntry`.
#[derive(Clone, Copy)]
pub struct HliEntryView<'a> {
    name: &'a str,
    body: &'a [u8],
}

impl<'a> HliEntryView<'a> {
    fn w(&self, i: u32) -> u32 {
        word_at(self.body, i as usize)
    }

    /// The `count` words of a raw id pool starting at word `off`.
    fn pool(&self, off: u32, count: u32) -> impl Iterator<Item = u32> + '_ {
        (off..off + count).map(|i| self.w(i))
    }

    /// Decode the unit into an owned [`HliEntry`] (generation 0). This is
    /// the only reader of a unit body: the back end's `vet_unit` verifies
    /// the decoded tables and then queries exactly those. Not metered as
    /// `hli.deserialize.bytes`, which counts only what the open reads.
    pub fn materialize(&self) -> HliEntry {
        let (n_lines, n_items, n_regions) = (self.w(2), self.w(3), self.w(4));
        let items_off = HDR_WORDS + n_lines * LINE_WORDS;
        let regs_off = items_off + n_items * ITEM_WORDS;
        let strings = {
            let off = self.w(5) as usize * 4;
            &self.body[off..off + self.w(6) as usize]
        };
        let mut line_table = LineTable::default();
        for rec in records(HDR_WORDS, n_lines, LINE_WORDS) {
            let (line, first, count) = (self.w(rec), self.w(rec + 1), self.w(rec + 2));
            for it in records(items_off + first * ITEM_WORDS, count, ITEM_WORDS) {
                let ty = match self.w(it + 1) {
                    0 => ItemType::Load,
                    1 => ItemType::Store,
                    _ => ItemType::Call,
                };
                line_table.push_item(line, ItemEntry { id: ItemId(self.w(it)), ty });
            }
        }
        let class = |c: u32| EquivClass {
            id: ItemId(self.w(c)),
            kind: if self.w(c + 1) == 0 {
                EquivKind::Definite
            } else {
                EquivKind::Maybe
            },
            members: records(self.w(c + 2), self.w(c + 3), MEMBER_WORDS)
                .map(|m| {
                    if self.w(m) == 0 {
                        MemberRef::Item(ItemId(self.w(m + 1)))
                    } else {
                        MemberRef::SubClass {
                            region: RegionId(self.w(m + 1)),
                            class: ItemId(self.w(m + 2)),
                        }
                    }
                })
                .collect(),
            name_hint: {
                let (off, len) = (self.w(c + 4) as usize, self.w(c + 5) as usize);
                // Validated: in-bounds and UTF-8.
                std::str::from_utf8(&strings[off..off + len]).unwrap().to_string()
            },
        };
        let lcdd = |l: u32| LcddEntry {
            src: ItemId(self.w(l)),
            dst: ItemId(self.w(l + 1)),
            kind: if self.w(l + 2) == 0 {
                DepKind::Definite
            } else {
                DepKind::Maybe
            },
            distance: if self.w(l + 3) == 0 {
                Distance::Const(self.w(l + 4))
            } else {
                Distance::Unknown
            },
        };
        let call_refmod = |c: u32| CallRefMod {
            callee: if self.w(c) == 0 {
                CallRef::Item(ItemId(self.w(c + 1)))
            } else {
                CallRef::SubRegion(RegionId(self.w(c + 1)))
            },
            refs: self.pool(self.w(c + 2), self.w(c + 3)).map(ItemId).collect(),
            mods: self.pool(self.w(c + 4), self.w(c + 5)).map(ItemId).collect(),
        };
        let regions = records(regs_off, n_regions, REGION_WORDS)
            .map(|rec| {
                let parent = self.w(rec + 3);
                Region {
                    id: RegionId(self.w(rec)),
                    kind: if self.w(rec + 1) == 0 {
                        RegionKind::Unit
                    } else {
                        RegionKind::Loop { header_line: self.w(rec + 2) }
                    },
                    parent: (parent != 0).then(|| RegionId(parent - 1)),
                    subregions: self
                        .pool(self.w(rec + 14), self.w(rec + 15))
                        .map(RegionId)
                        .collect(),
                    scope: (self.w(rec + 4), self.w(rec + 5)),
                    equiv_classes: records(self.w(rec + 6), self.w(rec + 7), CLASS_WORDS)
                        .map(class)
                        .collect(),
                    alias_table: records(self.w(rec + 8), self.w(rec + 9), ALIAS_WORDS)
                        .map(|a| AliasEntry {
                            classes: self.pool(self.w(a), self.w(a + 1)).map(ItemId).collect(),
                        })
                        .collect(),
                    lcdd_table: records(self.w(rec + 10), self.w(rec + 11), LCDD_WORDS)
                        .map(lcdd)
                        .collect(),
                    call_refmod: records(self.w(rec + 12), self.w(rec + 13), CRM_WORDS)
                        .map(call_refmod)
                        .collect(),
                }
            })
            .collect();
        HliEntry {
            unit_name: self.name.to_string(),
            line_table,
            regions,
            next_id: self.w(0),
            generation: 0,
        }
    }
}

/// Word offsets of `count` fixed-width records of `size` words from `off`.
fn records(off: u32, count: u32, size: u32) -> impl Iterator<Item = u32> {
    (0..count).map(move |k| off + k * size)
}

// ---------------------------------------------------------------------------
// EntryRef: how a lookup hands a unit to the back end
// ---------------------------------------------------------------------------

/// A unit as a back-end lookup hands it over: an owned [`HliEntry`] from
/// an in-memory file, or a view into an `HLI\x03` image. `Copy`. The back
/// end queries neither form directly: its `vet_unit` takes
/// [`EntryRef::tables`], verifies them and queries exactly those.
#[derive(Clone, Copy)]
pub enum EntryRef<'a> {
    /// An entry of an in-memory file.
    Owned(&'a HliEntry),
    /// A structurally validated unit of an image.
    View(HliEntryView<'a>),
}

impl<'a> EntryRef<'a> {
    /// Name of the program unit.
    pub fn unit_name(&self) -> &'a str {
        match self {
            EntryRef::Owned(e) => &e.unit_name,
            EntryRef::View(v) => v.name,
        }
    }

    /// The entry's maintenance generation. An image unit has never been
    /// maintained, so it reports 0, the same value its decoded tables
    /// carry.
    pub fn generation(&self) -> u64 {
        match self {
            EntryRef::Owned(e) => e.generation,
            EntryRef::View(_) => 0,
        }
    }

    /// The unit's tables: borrowed from an owned entry, decoded from a
    /// view.
    pub fn tables(&self) -> Cow<'a, HliEntry> {
        match self {
            EntryRef::Owned(e) => Cow::Borrowed(*e),
            EntryRef::View(v) => Cow::Owned(v.materialize()),
        }
    }

    /// An owned copy of the unit's tables: a clone of an owned entry, a
    /// decode of a view.
    pub fn materialize(&self) -> HliEntry {
        self.tables().into_owned()
    }
}

// ---------------------------------------------------------------------------
// The image
// ---------------------------------------------------------------------------

struct ImageUnit {
    /// Byte range of the unit's name in the file (validated UTF-8).
    name: (usize, usize),
    /// Word range of the unit's body in the file.
    body_off: u32,
    body_len: u32,
    /// Memoized structural-validation verdict: run at most once per unit,
    /// shared by every later request (including across threads).
    validated: OnceLock<Result<(), DecodeError>>,
}

/// An `HLI\x03` image: a directory over the file bytes that hands out a
/// structurally validated [`HliEntryView`] per unit. Immutable and
/// shareable across back-end workers (`Sync`).
pub struct HliImage {
    data: Vec<u8>,
    units: Vec<ImageUnit>,
    index: HashMap<String, usize>,
    units_validated: hli_obs::Counter,
}

impl HliImage {
    /// Open an image from in-memory bytes. Only the file frame (magic,
    /// directory, names) is checked and metered here — O(units), not
    /// O(bytes); bodies are validated lazily on first access. The layout
    /// (and whether class name hints are present) is read from the bytes.
    pub fn open(data: Vec<u8>) -> Result<Self, DecodeError> {
        let _t = hli_obs::phase::timed("hli.image.open");
        let r = hli_obs::metrics::cur();
        // The magic first, so a file in another format (such as one an
        // older `hlicc front` wrote) is named as such.
        if data.get(..4) != Some(&MAGIC_V3[..]) {
            return Err(DecodeError("bad magic: not an `HLI\\x03` image".into()));
        }
        if !data.len().is_multiple_of(4) {
            return Err(DecodeError(format!("image length {} is not word-aligned", data.len())));
        }
        let n_words = data.len() / 4;
        if n_words < 2 {
            return Err(DecodeError("image shorter than its header".into()));
        }
        let n = word_at(&data, 1) as usize;
        let dir_words = 2usize
            .checked_add(n.checked_mul(4).ok_or_else(|| DecodeError("unit count overflow".into()))?)
            .ok_or_else(|| DecodeError("unit count overflow".into()))?;
        if dir_words > n_words {
            return Err(DecodeError(format!("directory of {n} units past the image end")));
        }
        let mut units = Vec::with_capacity(n);
        let mut names_bytes = 0usize;
        let mut max_end = dir_words as u64;
        for i in 0..n {
            let rec = 2 + 4 * i;
            let name_off = word_at(&data, rec) as usize;
            let name_len = word_at(&data, rec + 1) as usize;
            let body_off = word_at(&data, rec + 2);
            let body_len = word_at(&data, rec + 3);
            let name_end = name_off
                .checked_add(name_len)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| DecodeError(format!("unit {i}: name extends past end")))?;
            std::str::from_utf8(&data[name_off..name_end])
                .map_err(|_| DecodeError(format!("unit {i}: name is not UTF-8")))?;
            let body_end = u64::from(body_off) + u64::from(body_len);
            if body_end > n_words as u64 {
                return Err(DecodeError(format!(
                    "unit {i}: body [{body_off} +{body_len}w] extends past end"
                )));
            }
            max_end = max_end.max(body_end).max((name_end as u64).div_ceil(4));
            names_bytes += name_len;
            units.push(ImageUnit {
                name: (name_off, name_end),
                body_off,
                body_len,
                validated: OnceLock::new(),
            });
        }
        if max_end != n_words as u64 {
            return Err(DecodeError(format!(
                "{} trailing word(s) after the last body",
                n_words as u64 - max_end
            )));
        }
        let mut index = HashMap::with_capacity(n);
        for (i, u) in units.iter().enumerate() {
            let name = std::str::from_utf8(&data[u.name.0..u.name.1]).unwrap();
            index.entry(name.to_string()).or_insert(i);
        }
        r.counter("hli.image.opens").inc();
        r.counter("hli.image.units_total").add(n as u64);
        // The open consumed exactly the frame: header + directory + names.
        count_decoded(dir_words * 4 + names_bytes);
        Ok(HliImage {
            data,
            units,
            index,
            units_validated: r.counter("hli.image.units_validated"),
        })
    }

    /// Open an image file with positioned reads (`pread`) into a private
    /// buffer — the portable stand-in for `mmap` in a std-only workspace:
    /// one up-front copy, after which the file is no longer needed.
    pub fn open_file(path: &std::path::Path) -> Result<Self, DecodeError> {
        let data = read_file_pread(path)
            .map_err(|e| DecodeError(format!("read `{}`: {e}", path.display())))?;
        Self::open(data)
    }

    /// Unit names in file order.
    pub fn units(&self) -> impl Iterator<Item = &str> {
        self.units.iter().map(|u| self.name_of(u))
    }

    fn name_of(&self, u: &ImageUnit) -> &str {
        // Validated UTF-8 at open.
        std::str::from_utf8(&self.data[u.name.0..u.name.1]).unwrap()
    }

    /// Number of units in the image's directory.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the image holds no units at all.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// How many units have passed (or failed) structural validation.
    pub fn validated_units(&self) -> usize {
        self.units.iter().filter(|u| u.validated.get().is_some()).count()
    }

    /// The view of `unit`, structurally validated on first access
    /// (memoized, thread-safe). `Ok(None)` when the directory has no such
    /// unit; `Err` when the unit's body fails validation.
    pub fn get_ref(&self, unit: &str) -> Result<Option<EntryRef<'_>>, DecodeError> {
        let Some(&i) = self.index.get(unit) else {
            return Ok(None);
        };
        let u = &self.units[i];
        let name = self.name_of(u);
        let body = &self.data[u.body_off as usize * 4..(u.body_off + u.body_len) as usize * 4];
        let verdict = u.validated.get_or_init(|| {
            self.units_validated.inc();
            validate_body(body, name)
        });
        match verdict {
            Ok(()) => Ok(Some(EntryRef::View(HliEntryView { name, body }))),
            Err(e) => Err(e.clone()),
        }
    }
}

#[cfg(unix)]
fn read_file_pread(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let f = std::fs::File::open(path)?;
    let len = usize::try_from(f.metadata()?.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
    let mut buf = vec![0u8; len];
    let mut off = 0;
    while off < len {
        let n = f.read_at(&mut buf[off..], off as u64)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "file shrank while reading",
            ));
        }
        off += n;
    }
    Ok(buf)
}

#[cfg(not(unix))]
fn read_file_pread(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::tests::figure2_like;

    fn two_unit_file() -> HliFile {
        let mut e2 = figure2_like();
        e2.unit_name = "bar".into();
        HliFile { entries: vec![figure2_like(), e2] }
    }

    #[test]
    fn materialized_views_round_trip_exactly() {
        for include_names in [true, false] {
            let opts = SerializeOpts { include_names };
            let file = two_unit_file();
            let bytes = encode_file_v3(&file, opts);
            let img = HliImage::open(bytes).unwrap();
            assert_eq!(img.len(), 2);
            assert_eq!(img.units().collect::<Vec<_>>(), vec!["foo", "bar"]);
            for want in &file.entries {
                let unit = img.get_ref(&want.unit_name).unwrap().unwrap();
                assert!(matches!(unit, EntryRef::View(_)), "an image serves views");
                assert_eq!(unit.unit_name(), want.unit_name);
                assert_eq!(unit.generation(), 0);
                let got = unit.materialize();
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
        let bytes = encode_file_v3(&two_unit_file(), SerializeOpts::default());
        let total = bytes.len() as u64;
        let _g = hli_obs::metrics::scoped(reg.clone());
        let img = HliImage::open(bytes).unwrap();
        let open_bytes = reg.snapshot().counter("hli.deserialize.bytes");
        assert!(
            open_bytes > 0 && open_bytes < total / 4,
            "open must meter only the frame ({open_bytes} of {total} B)"
        );
        // Serving and decoding one unit meters nothing further.
        let _ = img.get_ref("foo").unwrap().unwrap().materialize();
        assert_eq!(reg.snapshot().counter("hli.deserialize.bytes"), open_bytes);
        assert_eq!(reg.snapshot().counter("hli.image.units_validated"), 1);
    }

    #[test]
    fn image_bytes_are_metered_apart_from_table1_bytes() {
        // `hli.serialize.*` is Table 1's compact-size meter; the image
        // is counted under `hli.image.bytes` only.
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let _g = hli_obs::metrics::scoped(reg.clone());
        let bytes = encode_file_v3(&two_unit_file(), SerializeOpts::default());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hli.image.bytes"), bytes.len() as u64);
        assert_eq!(snap.counter("hli.serialize.bytes"), 0);
        assert_eq!(snap.counter("hli.serialize.calls"), 0);
    }

    #[test]
    fn pread_open_matches_in_memory_open() {
        let bytes = encode_file_v3(&two_unit_file(), SerializeOpts { include_names: true });
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
        let path = dir.join(format!("image-pread-test-{}.hli", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let img = HliImage::open_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(img.len(), 2);
        let got = img.get_ref("bar").unwrap().unwrap().materialize();
        assert_eq!(got, two_unit_file().entries[1]);
        assert!(HliImage::open_file(&dir.join("no-such-image.hli")).is_err());
    }

    #[test]
    fn misaligned_truncated_and_corrupt_images_fail_cleanly() {
        let bytes = encode_file_v3(&two_unit_file(), SerializeOpts { include_names: true });
        // A clean image must open and validate.
        assert!(HliImage::open(bytes.clone()).is_ok());
        // Misaligned: any non-word length is rejected at open.
        for cut in [1usize, 2, 3] {
            let err = HliImage::open(bytes[..bytes.len() - cut].to_vec())
                .err()
                .expect("misaligned image must be rejected");
            assert!(err.0.contains("word-aligned"), "got: {err:?}");
        }
        assert!(HliImage::open(b"HLI".to_vec()).is_err());
        assert!(HliImage::open(b"NOPE0000".to_vec()).is_err());
        // Another format, even of a misaligned length, is named as such.
        let err = HliImage::open(b"HLI\x02\x01".to_vec()).err().expect("not an image");
        assert!(err.0.contains("bad magic"), "got: {err:?}");
        // Trailing words after the last body are rejected (as in v1).
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0, 0, 0]);
        assert!(HliImage::open(trailing).is_err());
        // Word-aligned truncations must fail at open or at a unit's first
        // access or decode cleanly — never panic, never read out of bounds.
        for cut in (0..bytes.len()).step_by(4) {
            let img = match HliImage::open(bytes[..cut].to_vec()) {
                Ok(img) => img,
                Err(_) => continue,
            };
            for unit in ["foo", "bar"] {
                if let Ok(Some(r)) = img.get_ref(unit) {
                    let _ = r.materialize();
                }
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_contained() {
        // The image trust boundary, exhaustively: flip each byte of the
        // image in turn; open + validate + a full decode must either fail
        // with a DecodeError or produce *some* entry — never panic, never
        // touch out-of-bounds memory. (Semantic damage that survives this
        // structural gauntlet is vet_unit's job.)
        let file = HliFile { entries: vec![figure2_like()] };
        let bytes = encode_file_v3(&file, SerializeOpts { include_names: true });
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xA5;
            let Ok(img) = HliImage::open(mutated) else { continue };
            let names: Vec<String> = img.units().map(String::from).collect();
            for unit in names {
                if let Ok(Some(r)) = img.get_ref(&unit) {
                    let e = r.materialize();
                    // The decoded entry may be semantically bogus; verify
                    // (the semantic boundary) must stay panic-free.
                    let _ = e.verify();
                }
            }
        }
    }

    #[test]
    fn hostile_offsets_cannot_escape_the_body() {
        let file = HliFile { entries: vec![figure2_like()] };
        let clean = encode_file_v3(&file, SerializeOpts { include_names: true });
        let body_off = {
            // Word 4 of the directory record = body_off of unit 0.
            word_at(&clean, 4) as usize
        };
        // Poison the region table's class_off with a huge word offset;
        // validation must reject it rather than let the decoder chase it.
        let n_lines = word_at(&clean, body_off + 2) as usize;
        let n_items = word_at(&clean, body_off + 3) as usize;
        let reg0 = body_off + 8 + n_lines * 3 + n_items * 2;
        let mut evil = clean.clone();
        evil[(reg0 + 6) * 4..(reg0 + 6) * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let img = HliImage::open(evil).unwrap();
        let err = match img.get_ref("foo") {
            Err(e) => e,
            Ok(_) => panic!("hostile class_off must fail the unit's first access"),
        };
        assert!(err.0.contains("class table"), "got: {err:?}");
        // And the memo serves the same error again without re-validating.
        assert!(img.get_ref("foo").is_err());
        assert_eq!(img.validated_units(), 1);
    }
}
