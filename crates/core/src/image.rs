//! Zero-copy HLI images (`HLI\x03`) — the one form the back end imports.
//!
//! The paper's back end reads the HLI file on demand, one program unit at
//! a time (§3.2.1). The v3 container stores every table as fixed-width
//! little-endian `u32` words so a borrowed [`HliEntryView`] can serve the
//! five basic queries **directly from the image bytes** — no per-unit
//! allocation, no decode pass — and only the units the maintenance API
//! rewrites are ever copied into an owned [`HliEntry`].
//!
//! Layout contract (see DESIGN.md "Zero-copy image layout & overlay
//! contract" for the full rules):
//!
//! * everything is `u32` little-endian words; the file length must be a
//!   multiple of 4 ("misaligned" images are rejected at open), and every
//!   intra-file table offset is expressed in words, so no view read can
//!   ever be torn or unaligned — words are assembled with
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
//! and well-formed, which is what makes all view accessors infallible —
//! a truncated, bit-flipped or misaligned image fails at open or at view
//! construction with a [`DecodeError`], never a panic or an
//! out-of-bounds read. *Semantic* validity (partition property, alias
//! locality, …) remains [`HliEntry::verify`]'s job: the back-end's
//! `vet_unit` materializes a transient owned entry from the view and
//! verifies it, keeping `verify` the single trust boundary for blindly
//! mapped bytes.
//!
//! Mutation: views are immutable. [`HliImage::entry_mut`] materializes a
//! copy-on-write overlay ([`HliEntry`]) for exactly the units the
//! maintenance API touches; [`HliImage::get_ref`] then serves the
//! overlay (with its live [`HliEntry::generation`]) instead of the view,
//! so `QueryCache`'s `(unit, generation)` validity key keeps working
//! unchanged — views report generation 0, the same value a freshly
//! decoded owned entry carries.
//!
//! Image activity is mirrored into the metrics registry under
//! `hli.image.*`: `bytes` (image bytes encoded), `opens`, `units_total`,
//! `units_validated` (structural passes run), `overlays` (units
//! materialized for mutation). Bytes consumed by the open itself (magic +
//! directory + names) are counted as `hli.deserialize.bytes`; view
//! accesses decode nothing and count nothing. `hli.serialize.*` is left
//! to the compact `HLI\x01` form, Table 1's size meter.

use crate::ids::{ItemId, RegionId, UNIT_REGION};
use crate::serialize::{count_decoded, DecodeError, SerializeOpts};
use crate::tables::{
    AliasEntry, CallRef, CallRefMod, DepKind, Distance, EquivClass, EquivKind, HliEntry, HliFile,
    ItemEntry, ItemType, LcddEntry, LineTable, MemberRef, Region, RegionKind,
};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Magic bytes of the zero-copy container: `HLI\x03`.
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

/// Serialize a whole HLI file as a zero-copy `HLI\x03` image: a
/// word-aligned directory plus one fixed-width word-table body per unit,
/// readable through [`HliImage`] without decoding.
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

/// One structural pass over a body: prove every offset, count and tag a
/// view accessor will ever follow in-bounds and well-formed, so the
/// accessors themselves can be infallible. Semantic validity is *not*
/// checked here — that stays with [`HliEntry::verify`].
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
        // Parents must come strictly before their children so the view's
        // parent chase (region_path / region_lca) always terminates.
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
// The borrowed view
// ---------------------------------------------------------------------------

/// Header-plus-scope metadata of one region, copied out of an image or an
/// owned [`Region`]. This is the `Copy` answer [`EntryRef::region_meta`]
/// (and the query layer's `region_info`) returns, since a view has no
/// owned [`Region`] to borrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionMeta {
    /// The region's ID.
    pub id: RegionId,
    /// Unit region or loop region.
    pub kind: RegionKind,
    /// The enclosing region; `None` only for the unit region.
    pub parent: Option<RegionId>,
    /// Source-line span `[lo, hi]` of the region.
    pub scope: (u32, u32),
}

impl RegionMeta {
    /// Is this a loop region (vs. the unit region)?
    pub fn is_loop(&self) -> bool {
        matches!(self.kind, RegionKind::Loop { .. })
    }

    fn of(r: &Region) -> Self {
        RegionMeta { id: r.id, kind: r.kind, parent: r.parent, scope: r.scope }
    }
}

/// A borrowed, structurally-validated window over one unit's body in an
/// `HLI\x03` image. All accessors read the image words directly — nothing
/// is decoded or allocated — and are infallible because the structural
/// validation pass ran before the view was handed out. `Copy`, so it
/// can be passed around as freely as `&HliEntry`.
#[derive(Clone, Copy)]
pub struct HliEntryView<'a> {
    name: &'a str,
    body: &'a [u8],
}

impl<'a> HliEntryView<'a> {
    fn w(&self, i: u32) -> u32 {
        word_at(self.body, i as usize)
    }

    /// Name of the program unit the view describes.
    pub fn unit_name(&self) -> &'a str {
        self.name
    }

    /// The unit's next free item/class ID (header word 0).
    pub fn next_id(&self) -> u32 {
        self.w(0)
    }

    /// Whether the image carries class name hints (flags bit 0).
    pub fn has_name_hints(&self) -> bool {
        self.w(1) & 1 != 0
    }

    /// Number of regions in the unit.
    pub fn num_regions(&self) -> usize {
        self.w(4) as usize
    }

    fn n_lines(&self) -> u32 {
        self.w(2)
    }

    fn n_items(&self) -> u32 {
        self.w(3)
    }

    fn lines_off(&self) -> u32 {
        HDR_WORDS
    }

    fn items_off(&self) -> u32 {
        self.lines_off() + self.n_lines() * LINE_WORDS
    }

    fn region_rec(&self, r: usize) -> u32 {
        assert!(r < self.num_regions(), "region {r} out of range");
        self.items_off() + self.n_items() * ITEM_WORDS + r as u32 * REGION_WORDS
    }

    fn strings(&self) -> &'a [u8] {
        let off = self.w(5) as usize * 4;
        &self.body[off..off + self.w(6) as usize]
    }

    fn item_at(&self, i: u32) -> ItemEntry {
        let rec = self.items_off() + i * ITEM_WORDS;
        let ty = match self.w(rec + 1) {
            0 => ItemType::Load,
            1 => ItemType::Store,
            _ => ItemType::Call,
        };
        ItemEntry { id: ItemId(self.w(rec)), ty }
    }

    /// Region header metadata. Panics if `r` is out of range, matching
    /// the owned [`HliEntry::region`] accessor.
    pub fn region_meta(&self, r: RegionId) -> RegionMeta {
        let rec = self.region_rec(r.0 as usize);
        let kind = if self.w(rec + 1) == 0 {
            RegionKind::Unit
        } else {
            RegionKind::Loop { header_line: self.w(rec + 2) }
        };
        let p = self.w(rec + 3);
        RegionMeta {
            id: RegionId(self.w(rec)),
            kind,
            parent: (p != 0).then(|| RegionId(p - 1)),
            scope: (self.w(rec + 4), self.w(rec + 5)),
        }
    }

    /// All line-table items in line order then intra-line order, as
    /// `(line, item)` pairs — the view analogue of `LineTable::items`.
    pub fn line_items(&self) -> LineItems<'a> {
        LineItems {
            inner: LineItemsInner::View { img: *self, line: 0, in_line: 0 },
        }
    }

    /// The classes defined at region `r`.
    pub fn classes(&self, r: RegionId) -> Classes<'a> {
        let rec = self.region_rec(r.0 as usize);
        Classes {
            inner: ClassesInner::View { img: *self, off: self.w(rec + 6), left: self.w(rec + 7) },
        }
    }

    /// The alias entries of region `r`.
    pub fn alias_entries(&self, r: RegionId) -> Aliases<'a> {
        let rec = self.region_rec(r.0 as usize);
        Aliases {
            inner: AliasesInner::View { img: *self, off: self.w(rec + 8), left: self.w(rec + 9) },
        }
    }

    /// The loop-carried dependence arcs of region `r`.
    pub fn lcdd(&self, r: RegionId) -> Lcdds<'a> {
        let rec = self.region_rec(r.0 as usize);
        Lcdds {
            inner: LcddsInner::View { img: *self, off: self.w(rec + 10), left: self.w(rec + 11) },
        }
    }

    /// The call REF/MOD entries of region `r`.
    pub fn call_refmods(&self, r: RegionId) -> Crms<'a> {
        let rec = self.region_rec(r.0 as usize);
        Crms {
            inner: CrmsInner::View { img: *self, off: self.w(rec + 12), left: self.w(rec + 13) },
        }
    }

    /// The immediate sub-regions of region `r`, in stored order.
    pub fn subregions(&self, r: RegionId) -> SubRegions<'a> {
        let rec = self.region_rec(r.0 as usize);
        SubRegions {
            inner: SubRegionsInner::View {
                img: *self,
                off: self.w(rec + 14),
                left: self.w(rec + 15),
            },
        }
    }

    /// Decode the view into an owned [`HliEntry`] (generation 0). This is
    /// the bridge to the mutable world: `vet_unit` verifies the
    /// materialized copy, and [`HliImage::entry_mut`] stores one as the
    /// unit's copy-on-write overlay. Deliberately **not** metered as
    /// `hli.deserialize.bytes` — materialization is an explicit opt-out
    /// of the zero-copy read path, accounted under `hli.image.*`.
    pub fn materialize(&self) -> HliEntry {
        let mut line_table = LineTable::default();
        for i in 0..self.n_lines() {
            let rec = self.lines_off() + i * LINE_WORDS;
            let (line, first, count) = (self.w(rec), self.w(rec + 1), self.w(rec + 2));
            for k in 0..count {
                line_table.push_item(line, self.item_at(first + k));
            }
        }
        let regions = (0..self.num_regions())
            .map(|ri| {
                let r = RegionId(ri as u32);
                let meta = self.region_meta(r);
                Region {
                    id: meta.id,
                    kind: meta.kind,
                    parent: meta.parent,
                    subregions: self.subregions(r).collect(),
                    scope: meta.scope,
                    equiv_classes: self
                        .classes(r)
                        .map(|c| EquivClass {
                            id: c.id(),
                            kind: c.kind(),
                            members: c.members().collect(),
                            name_hint: c.name_hint().to_string(),
                        })
                        .collect(),
                    alias_table: self
                        .alias_entries(r)
                        .map(|a| AliasEntry { classes: a.classes().collect() })
                        .collect(),
                    lcdd_table: self.lcdd(r).collect(),
                    call_refmod: self
                        .call_refmods(r)
                        .map(|c| CallRefMod {
                            callee: c.callee(),
                            refs: c.refs().collect(),
                            mods: c.mods().collect(),
                        })
                        .collect(),
                }
            })
            .collect();
        HliEntry {
            unit_name: self.name.to_string(),
            line_table,
            regions,
            next_id: self.next_id(),
            generation: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// EntryRef: one accessor surface over owned entries and views
// ---------------------------------------------------------------------------

/// A borrowed HLI entry that is either an owned [`HliEntry`] (an
/// in-memory file, or a COW overlay) or a zero-copy [`HliEntryView`].
/// `Copy`, so the back-end can hand it through lookups exactly like the
/// `&HliEntry` it used to pass; the query layer reads both shapes through
/// one accessor surface.
#[derive(Clone, Copy)]
pub enum EntryRef<'a> {
    /// A decoded (or overlaid) owned entry.
    Owned(&'a HliEntry),
    /// A borrowed view straight over image bytes.
    View(HliEntryView<'a>),
}

impl<'a> EntryRef<'a> {
    /// Name of the program unit.
    pub fn unit_name(&self) -> &'a str {
        match self {
            EntryRef::Owned(e) => &e.unit_name,
            EntryRef::View(v) => v.unit_name(),
        }
    }

    /// The entry's maintenance generation. Views are immutable, so they
    /// report 0 — the same value a freshly decoded owned entry carries —
    /// keeping `QueryCache`'s `(unit, generation)` validity key sound:
    /// any mutation goes through a materialized overlay whose generation
    /// is bumped past 0 by the maintenance API.
    pub fn generation(&self) -> u64 {
        match self {
            EntryRef::Owned(e) => e.generation,
            EntryRef::View(_) => 0,
        }
    }

    /// Number of regions in the unit.
    pub fn num_regions(&self) -> usize {
        match self {
            EntryRef::Owned(e) => e.regions.len(),
            EntryRef::View(v) => v.num_regions(),
        }
    }

    /// Region header metadata. Panics if `r` is out of range, like
    /// [`HliEntry::region`].
    pub fn region_meta(&self, r: RegionId) -> RegionMeta {
        match self {
            EntryRef::Owned(e) => RegionMeta::of(e.region(r)),
            EntryRef::View(v) => v.region_meta(r),
        }
    }

    /// All line-table items in line order then intra-line order.
    pub fn line_items(&self) -> LineItems<'a> {
        match self {
            EntryRef::Owned(e) => LineItems {
                inner: LineItemsInner::Owned { lines: e.line_table.lines.iter(), cur: None },
            },
            EntryRef::View(v) => v.line_items(),
        }
    }

    /// The classes defined at region `r`.
    pub fn classes(&self, r: RegionId) -> Classes<'a> {
        match self {
            EntryRef::Owned(e) => {
                Classes { inner: ClassesInner::Owned(e.region(r).equiv_classes.iter()) }
            }
            EntryRef::View(v) => v.classes(r),
        }
    }

    /// The alias entries of region `r`.
    pub fn alias_entries(&self, r: RegionId) -> Aliases<'a> {
        match self {
            EntryRef::Owned(e) => {
                Aliases { inner: AliasesInner::Owned(e.region(r).alias_table.iter()) }
            }
            EntryRef::View(v) => v.alias_entries(r),
        }
    }

    /// The loop-carried dependence arcs of region `r`.
    pub fn lcdd(&self, r: RegionId) -> Lcdds<'a> {
        match self {
            EntryRef::Owned(e) => Lcdds { inner: LcddsInner::Owned(e.region(r).lcdd_table.iter()) },
            EntryRef::View(v) => v.lcdd(r),
        }
    }

    /// The call REF/MOD entries of region `r`.
    pub fn call_refmods(&self, r: RegionId) -> Crms<'a> {
        match self {
            EntryRef::Owned(e) => Crms { inner: CrmsInner::Owned(e.region(r).call_refmod.iter()) },
            EntryRef::View(v) => v.call_refmods(r),
        }
    }

    /// The immediate sub-regions of region `r`, in stored order.
    pub fn subregions(&self, r: RegionId) -> SubRegions<'a> {
        match self {
            EntryRef::Owned(e) => {
                SubRegions { inner: SubRegionsInner::Owned(e.region(r).subregions.iter()) }
            }
            EntryRef::View(v) => v.subregions(r),
        }
    }

    /// Path from the unit region down to `region` (inclusive), mirroring
    /// [`HliEntry::region_path`]. Terminates on views because structural
    /// validation requires parents to precede their children.
    pub fn region_path(&self, region: RegionId) -> Vec<RegionId> {
        let mut path = vec![region];
        let mut cur = region;
        while let Some(p) = self.region_meta(cur).parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Lowest common ancestor of two regions, mirroring
    /// [`HliEntry::region_lca`].
    pub fn region_lca(&self, a: RegionId, b: RegionId) -> RegionId {
        let pa = self.region_path(a);
        let pb = self.region_path(b);
        let mut lca = UNIT_REGION;
        for (x, y) in pa.iter().zip(pb.iter()) {
            if x == y {
                lca = *x;
            } else {
                break;
            }
        }
        lca
    }

    /// An owned copy of the entry: a clone for `Owned`, a decode for
    /// `View`. The back-end's `vet_unit` runs [`HliEntry::verify`] on
    /// this copy, keeping `verify` the single trust boundary.
    pub fn materialize(&self) -> HliEntry {
        match self {
            EntryRef::Owned(e) => (*e).clone(),
            EntryRef::View(v) => v.materialize(),
        }
    }

    /// Do the entry's serializable tables equal `other`'s? (`Owned`
    /// compares directly; a view is materialized first.)
    pub fn same_tables(&self, other: &HliEntry) -> bool {
        match self {
            EntryRef::Owned(e) => *e == other,
            EntryRef::View(v) => v.materialize() == *other,
        }
    }
}

// ---------------------------------------------------------------------------
// Iterators and per-record handles
// ---------------------------------------------------------------------------

/// Iterator over `(line, item)` pairs (see [`EntryRef::line_items`]).
pub struct LineItems<'a> {
    inner: LineItemsInner<'a>,
}

enum LineItemsInner<'a> {
    Owned {
        lines: std::slice::Iter<'a, crate::tables::LineEntry>,
        cur: Option<(u32, std::slice::Iter<'a, ItemEntry>)>,
    },
    View {
        img: HliEntryView<'a>,
        line: u32,
        in_line: u32,
    },
}

impl Iterator for LineItems<'_> {
    type Item = (u32, ItemEntry);

    fn next(&mut self) -> Option<(u32, ItemEntry)> {
        match &mut self.inner {
            LineItemsInner::Owned { lines, cur } => loop {
                if let Some((line, items)) = cur {
                    if let Some(it) = items.next() {
                        return Some((*line, *it));
                    }
                }
                let l = lines.next()?;
                *cur = Some((l.line, l.items.iter()));
            },
            LineItemsInner::View { img, line, in_line } => loop {
                if *line >= img.n_lines() {
                    return None;
                }
                let rec = img.lines_off() + *line * LINE_WORDS;
                let (src, first, count) = (img.w(rec), img.w(rec + 1), img.w(rec + 2));
                if *in_line < count {
                    let it = img.item_at(first + *in_line);
                    *in_line += 1;
                    return Some((src, it));
                }
                *line += 1;
                *in_line = 0;
            },
        }
    }
}

/// One equivalent-access class, borrowed from an owned entry or an image.
#[derive(Clone, Copy)]
pub struct ClassRef<'a> {
    inner: ClassRefInner<'a>,
}

#[derive(Clone, Copy)]
enum ClassRefInner<'a> {
    Owned(&'a EquivClass),
    View { img: HliEntryView<'a>, rec: u32 },
}

impl<'a> ClassRef<'a> {
    /// The class's ID.
    pub fn id(&self) -> ItemId {
        match self.inner {
            ClassRefInner::Owned(c) => c.id,
            ClassRefInner::View { img, rec } => ItemId(img.w(rec)),
        }
    }

    /// Definite equivalence, or a may-alias merge.
    pub fn kind(&self) -> EquivKind {
        match self.inner {
            ClassRefInner::Owned(c) => c.kind,
            ClassRefInner::View { img, rec } => {
                if img.w(rec + 1) == 0 {
                    EquivKind::Definite
                } else {
                    EquivKind::Maybe
                }
            }
        }
    }

    /// The class's members.
    pub fn members(&self) -> Members<'a> {
        match self.inner {
            ClassRefInner::Owned(c) => Members { inner: MembersInner::Owned(c.members.iter()) },
            ClassRefInner::View { img, rec } => Members {
                inner: MembersInner::View { img, off: img.w(rec + 2), left: img.w(rec + 3) },
            },
        }
    }

    /// Debug label (empty when the image was encoded without names).
    pub fn name_hint(&self) -> &'a str {
        match self.inner {
            ClassRefInner::Owned(c) => &c.name_hint,
            ClassRefInner::View { img, rec } => {
                let (off, len) = (img.w(rec + 4) as usize, img.w(rec + 5) as usize);
                // Validated: in-bounds and UTF-8.
                std::str::from_utf8(&img.strings()[off..off + len]).unwrap()
            }
        }
    }
}

/// Iterator over a region's classes (see [`EntryRef::classes`]).
pub struct Classes<'a> {
    inner: ClassesInner<'a>,
}

enum ClassesInner<'a> {
    Owned(std::slice::Iter<'a, EquivClass>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl<'a> Iterator for Classes<'a> {
    type Item = ClassRef<'a>;

    fn next(&mut self) -> Option<ClassRef<'a>> {
        match &mut self.inner {
            ClassesInner::Owned(it) => {
                it.next().map(|c| ClassRef { inner: ClassRefInner::Owned(c) })
            }
            ClassesInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let rec = *off;
                *off += CLASS_WORDS;
                *left -= 1;
                Some(ClassRef { inner: ClassRefInner::View { img: *img, rec } })
            }
        }
    }
}

/// Iterator over a class's members (see [`ClassRef::members`]).
pub struct Members<'a> {
    inner: MembersInner<'a>,
}

enum MembersInner<'a> {
    Owned(std::slice::Iter<'a, MemberRef>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl Iterator for Members<'_> {
    type Item = MemberRef;

    fn next(&mut self) -> Option<MemberRef> {
        match &mut self.inner {
            MembersInner::Owned(it) => it.next().copied(),
            MembersInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let rec = *off;
                *off += MEMBER_WORDS;
                *left -= 1;
                Some(if img.w(rec) == 0 {
                    MemberRef::Item(ItemId(img.w(rec + 1)))
                } else {
                    MemberRef::SubClass {
                        region: RegionId(img.w(rec + 1)),
                        class: ItemId(img.w(rec + 2)),
                    }
                })
            }
        }
    }
}

/// One alias entry, borrowed from an owned entry or an image.
#[derive(Clone, Copy)]
pub struct AliasRef<'a> {
    inner: AliasRefInner<'a>,
}

#[derive(Clone, Copy)]
enum AliasRefInner<'a> {
    Owned(&'a AliasEntry),
    View { img: HliEntryView<'a>, rec: u32 },
}

impl AliasRef<'_> {
    /// The classes that may overlap; all defined at the owning region.
    pub fn classes(&self) -> Ids<'_> {
        match self.inner {
            AliasRefInner::Owned(a) => Ids { inner: IdsInner::Owned(a.classes.iter()) },
            AliasRefInner::View { img, rec } => Ids {
                inner: IdsInner::View { img, off: img.w(rec), left: img.w(rec + 1) },
            },
        }
    }
}

/// Iterator over a region's alias entries (see [`EntryRef::alias_entries`]).
pub struct Aliases<'a> {
    inner: AliasesInner<'a>,
}

enum AliasesInner<'a> {
    Owned(std::slice::Iter<'a, AliasEntry>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl<'a> Iterator for Aliases<'a> {
    type Item = AliasRef<'a>;

    fn next(&mut self) -> Option<AliasRef<'a>> {
        match &mut self.inner {
            AliasesInner::Owned(it) => {
                it.next().map(|a| AliasRef { inner: AliasRefInner::Owned(a) })
            }
            AliasesInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let rec = *off;
                *off += ALIAS_WORDS;
                *left -= 1;
                Some(AliasRef { inner: AliasRefInner::View { img: *img, rec } })
            }
        }
    }
}

/// Iterator over a region's immediate sub-region IDs.
pub struct SubRegions<'a> {
    inner: SubRegionsInner<'a>,
}

enum SubRegionsInner<'a> {
    Owned(std::slice::Iter<'a, RegionId>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl Iterator for SubRegions<'_> {
    type Item = RegionId;

    fn next(&mut self) -> Option<RegionId> {
        match &mut self.inner {
            SubRegionsInner::Owned(it) => it.next().copied(),
            SubRegionsInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let id = RegionId(img.w(*off));
                *off += 1;
                *left -= 1;
                Some(id)
            }
        }
    }
}

/// Iterator over a pool of [`ItemId`]s (alias classes, REF/MOD lists).
pub struct Ids<'a> {
    inner: IdsInner<'a>,
}

enum IdsInner<'a> {
    Owned(std::slice::Iter<'a, ItemId>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl Iterator for Ids<'_> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        match &mut self.inner {
            IdsInner::Owned(it) => it.next().copied(),
            IdsInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let id = ItemId(img.w(*off));
                *off += 1;
                *left -= 1;
                Some(id)
            }
        }
    }
}

/// Iterator over a region's LCDD arcs (see [`EntryRef::lcdd`]).
pub struct Lcdds<'a> {
    inner: LcddsInner<'a>,
}

enum LcddsInner<'a> {
    Owned(std::slice::Iter<'a, LcddEntry>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl Iterator for Lcdds<'_> {
    type Item = LcddEntry;

    fn next(&mut self) -> Option<LcddEntry> {
        match &mut self.inner {
            LcddsInner::Owned(it) => it.next().copied(),
            LcddsInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let rec = *off;
                *off += LCDD_WORDS;
                *left -= 1;
                Some(LcddEntry {
                    src: ItemId(img.w(rec)),
                    dst: ItemId(img.w(rec + 1)),
                    kind: if img.w(rec + 2) == 0 {
                        DepKind::Definite
                    } else {
                        DepKind::Maybe
                    },
                    distance: if img.w(rec + 3) == 0 {
                        Distance::Const(img.w(rec + 4))
                    } else {
                        Distance::Unknown
                    },
                })
            }
        }
    }
}

/// One call REF/MOD entry, borrowed from an owned entry or an image.
#[derive(Clone, Copy)]
pub struct CrmRef<'a> {
    inner: CrmRefInner<'a>,
}

#[derive(Clone, Copy)]
enum CrmRefInner<'a> {
    Owned(&'a CallRefMod),
    View { img: HliEntryView<'a>, rec: u32 },
}

impl CrmRef<'_> {
    /// Which call(s) the entry describes.
    pub fn callee(&self) -> CallRef {
        match self.inner {
            CrmRefInner::Owned(c) => c.callee,
            CrmRefInner::View { img, rec } => {
                if img.w(rec) == 0 {
                    CallRef::Item(ItemId(img.w(rec + 1)))
                } else {
                    CallRef::SubRegion(RegionId(img.w(rec + 1)))
                }
            }
        }
    }

    /// Classes possibly read by the call(s).
    pub fn refs(&self) -> Ids<'_> {
        match self.inner {
            CrmRefInner::Owned(c) => Ids { inner: IdsInner::Owned(c.refs.iter()) },
            CrmRefInner::View { img, rec } => Ids {
                inner: IdsInner::View { img, off: img.w(rec + 2), left: img.w(rec + 3) },
            },
        }
    }

    /// Classes possibly written by the call(s).
    pub fn mods(&self) -> Ids<'_> {
        match self.inner {
            CrmRefInner::Owned(c) => Ids { inner: IdsInner::Owned(c.mods.iter()) },
            CrmRefInner::View { img, rec } => Ids {
                inner: IdsInner::View { img, off: img.w(rec + 4), left: img.w(rec + 5) },
            },
        }
    }
}

/// Iterator over a region's REF/MOD entries (see [`EntryRef::call_refmods`]).
pub struct Crms<'a> {
    inner: CrmsInner<'a>,
}

enum CrmsInner<'a> {
    Owned(std::slice::Iter<'a, CallRefMod>),
    View {
        img: HliEntryView<'a>,
        off: u32,
        left: u32,
    },
}

impl<'a> Iterator for Crms<'a> {
    type Item = CrmRef<'a>;

    fn next(&mut self) -> Option<CrmRef<'a>> {
        match &mut self.inner {
            CrmsInner::Owned(it) => it.next().map(|c| CrmRef { inner: CrmRefInner::Owned(c) }),
            CrmsInner::View { img, off, left } => {
                if *left == 0 {
                    return None;
                }
                let rec = *off;
                *off += CRM_WORDS;
                *left -= 1;
                Some(CrmRef { inner: CrmRefInner::View { img: *img, rec } })
            }
        }
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
    /// shared by every later view request (including across threads).
    validated: OnceLock<Result<(), DecodeError>>,
}

/// A zero-copy `HLI\x03` image: serves [`HliEntryView`]s straight over
/// the file bytes, with copy-on-write [`HliEntry`] overlays for units the
/// maintenance API mutates. Shareable across back-end workers (`Sync`).
pub struct HliImage {
    data: Vec<u8>,
    units: Vec<ImageUnit>,
    index: HashMap<String, usize>,
    /// COW arena: `Some` only for units [`HliImage::entry_mut`] touched.
    overlays: Vec<Option<Box<HliEntry>>>,
    units_validated: hli_obs::Counter,
}

impl HliImage {
    /// Open an image from in-memory bytes. Only the file frame (magic,
    /// directory, names) is checked and metered here — O(units), not
    /// O(bytes); bodies are validated lazily on first access.
    pub fn open(data: Vec<u8>, _opts: SerializeOpts) -> Result<Self, DecodeError> {
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
        let overlays = (0..n).map(|_| None).collect();
        Ok(HliImage {
            data,
            units,
            index,
            overlays,
            units_validated: r.counter("hli.image.units_validated"),
        })
    }

    /// Open an image file with positioned reads (`pread`) into a private
    /// buffer — the portable stand-in for `mmap` in a std-only workspace:
    /// one up-front copy, after which every access is zero-copy against
    /// the buffer.
    pub fn open_file(path: &std::path::Path, opts: SerializeOpts) -> Result<Self, DecodeError> {
        let data = read_file_pread(path)
            .map_err(|e| DecodeError(format!("read `{}`: {e}", path.display())))?;
        Self::open(data, opts)
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

    /// How many units have a copy-on-write overlay.
    pub fn overlaid_units(&self) -> usize {
        self.overlays.iter().filter(|o| o.is_some()).count()
    }

    fn view_at(&self, i: usize) -> Result<HliEntryView<'_>, DecodeError> {
        let u = &self.units[i];
        let name = self.name_of(u);
        let body = &self.data[u.body_off as usize * 4..(u.body_off + u.body_len) as usize * 4];
        let verdict = u.validated.get_or_init(|| {
            self.units_validated.inc();
            validate_body(body, name)
        });
        match verdict {
            Ok(()) => Ok(HliEntryView { name, body }),
            Err(e) => Err(e.clone()),
        }
    }

    /// The entry for `unit`: its COW overlay when one exists, otherwise a
    /// zero-copy view (structurally validated on first access, memoized —
    /// thread-safe). `Ok(None)` when the directory
    /// has no such unit; `Err` when the unit's body fails validation.
    pub fn get_ref(&self, unit: &str) -> Result<Option<EntryRef<'_>>, DecodeError> {
        let Some(&i) = self.index.get(unit) else {
            return Ok(None);
        };
        if let Some(e) = self.overlays[i].as_deref() {
            return Ok(Some(EntryRef::Owned(e)));
        }
        self.view_at(i).map(|v| Some(EntryRef::View(v)))
    }

    /// Mutable access for the maintenance API: materializes the unit's
    /// copy-on-write overlay on first call (counted as
    /// `hli.image.overlays`) and returns it on every later one. The
    /// overlay starts at generation 0 — the same value its view reported —
    /// and the maintenance ops bump it from there, so query caches keyed
    /// on `(unit, generation)` invalidate exactly as with owned files.
    pub fn entry_mut(&mut self, unit: &str) -> Result<Option<&mut HliEntry>, DecodeError> {
        let Some(&i) = self.index.get(unit) else {
            return Ok(None);
        };
        if self.overlays[i].is_none() {
            let e = self.view_at(i)?.materialize();
            hli_obs::metrics::cur().counter("hli.image.overlays").inc();
            self.overlays[i] = Some(Box::new(e));
        }
        Ok(self.overlays[i].as_deref_mut())
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
            let img = HliImage::open(bytes, opts).unwrap();
            assert_eq!(img.len(), 2);
            assert_eq!(img.units().collect::<Vec<_>>(), vec!["foo", "bar"]);
            for want in &file.entries {
                let got = match img.get_ref(&want.unit_name).unwrap().unwrap() {
                    EntryRef::View(v) => v.materialize(),
                    EntryRef::Owned(_) => panic!("fresh image must serve views"),
                };
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
    fn views_match_owned_accessors() {
        let opts = SerializeOpts { include_names: true };
        let e = figure2_like();
        let file = HliFile { entries: vec![e.clone()] };
        let img = HliImage::open(encode_file_v3(&file, opts), opts).unwrap();
        let view = img.get_ref("foo").unwrap().unwrap();
        let owned = EntryRef::Owned(&e);
        assert_eq!(view.unit_name(), "foo");
        assert_eq!(view.generation(), 0);
        assert_eq!(view.num_regions(), owned.num_regions());
        assert_eq!(
            view.line_items().collect::<Vec<_>>(),
            owned.line_items().collect::<Vec<_>>()
        );
        for ri in 0..e.regions.len() {
            let r = RegionId(ri as u32);
            assert_eq!(view.region_meta(r), owned.region_meta(r));
            assert_eq!(view.region_path(r), e.region_path(r));
            let vc: Vec<_> = view
                .classes(r)
                .map(|c| {
                    (
                        c.id(),
                        c.kind(),
                        c.members().collect::<Vec<_>>(),
                        c.name_hint().to_string(),
                    )
                })
                .collect();
            let oc: Vec<_> = owned
                .classes(r)
                .map(|c| {
                    (
                        c.id(),
                        c.kind(),
                        c.members().collect::<Vec<_>>(),
                        c.name_hint().to_string(),
                    )
                })
                .collect();
            assert_eq!(vc, oc);
            assert_eq!(
                view.alias_entries(r)
                    .map(|a| a.classes().collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
                owned
                    .alias_entries(r)
                    .map(|a| a.classes().collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            );
            assert_eq!(view.lcdd(r).collect::<Vec<_>>(), owned.lcdd(r).collect::<Vec<_>>());
            let vcrm: Vec<_> = view
                .call_refmods(r)
                .map(|c| (c.callee(), c.refs().collect::<Vec<_>>(), c.mods().collect::<Vec<_>>()))
                .collect();
            let ocrm: Vec<_> = owned
                .call_refmods(r)
                .map(|c| (c.callee(), c.refs().collect::<Vec<_>>(), c.mods().collect::<Vec<_>>()))
                .collect();
            assert_eq!(vcrm, ocrm);
        }
        assert_eq!(
            view.region_lca(RegionId(3), RegionId(2)),
            e.region_lca(RegionId(3), RegionId(2))
        );
        assert!(view.same_tables(&e));
    }

    #[test]
    fn open_decodes_only_the_directory() {
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let opts = SerializeOpts::default();
        let bytes = encode_file_v3(&two_unit_file(), opts);
        let total = bytes.len() as u64;
        let _g = hli_obs::metrics::scoped(reg.clone());
        let img = HliImage::open(bytes, opts).unwrap();
        let open_bytes = reg.snapshot().counter("hli.deserialize.bytes");
        assert!(
            open_bytes > 0 && open_bytes < total / 4,
            "open must meter only the frame ({open_bytes} of {total} B)"
        );
        // Serving and walking a view decodes nothing further.
        let r = img.get_ref("foo").unwrap().unwrap();
        let _ = r.line_items().count();
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
    fn cow_overlay_is_allocated_only_for_mutated_units() {
        let opts = SerializeOpts { include_names: true };
        let file = two_unit_file();
        let mut img = HliImage::open(encode_file_v3(&file, opts), opts).unwrap();
        assert_eq!(img.overlaid_units(), 0);
        // Mutate `foo` through the maintenance API on its overlay.
        let e = img.entry_mut("foo").unwrap().unwrap();
        assert_eq!(e.generation, 0);
        crate::maintain::delete_item(e, ItemId(0)).unwrap();
        assert!(e.generation > 0, "maintenance bumps the overlay generation");
        assert_eq!(img.overlaid_units(), 1, "only the mutated unit pays for an overlay");
        // The overlay (with its bumped generation) now shadows the view...
        let foo = img.get_ref("foo").unwrap().unwrap();
        assert!(matches!(foo, EntryRef::Owned(_)));
        assert!(foo.generation() > 0);
        assert!(!foo.same_tables(&file.entries[0]), "the mutation is visible");
        // ...while the untouched unit keeps being served zero-copy.
        let bar = img.get_ref("bar").unwrap().unwrap();
        assert!(matches!(bar, EntryRef::View(_)));
        assert!(bar.same_tables(&file.entries[1]));
        assert!(img.entry_mut("missing").unwrap().is_none());
    }

    #[test]
    fn pread_open_matches_in_memory_open() {
        let opts = SerializeOpts { include_names: true };
        let bytes = encode_file_v3(&two_unit_file(), opts);
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
        let path = dir.join(format!("zero-copy-pread-test-{}.hli", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let img = HliImage::open_file(&path, opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(img.len(), 2);
        let got = img.get_ref("bar").unwrap().unwrap().materialize();
        assert_eq!(got, two_unit_file().entries[1]);
        assert!(HliImage::open_file(&dir.join("no-such-image.hli"), opts).is_err());
    }

    #[test]
    fn misaligned_truncated_and_corrupt_images_fail_cleanly() {
        let opts = SerializeOpts { include_names: true };
        let bytes = encode_file_v3(&two_unit_file(), opts);
        // A clean image must open and validate.
        assert!(HliImage::open(bytes.clone(), opts).is_ok());
        // Misaligned: any non-word length is rejected at open.
        for cut in [1usize, 2, 3] {
            let err = HliImage::open(bytes[..bytes.len() - cut].to_vec(), opts)
                .err()
                .expect("misaligned image must be rejected");
            assert!(err.0.contains("word-aligned"), "got: {err:?}");
        }
        assert!(HliImage::open(b"HLI".to_vec(), opts).is_err());
        assert!(HliImage::open(b"NOPE0000".to_vec(), opts).is_err());
        // Another format, even of a misaligned length, is named as such.
        let err = HliImage::open(b"HLI\x02\x01".to_vec(), opts).err().expect("not an image");
        assert!(err.0.contains("bad magic"), "got: {err:?}");
        // Trailing words after the last body are rejected (as in v1).
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0, 0, 0]);
        assert!(HliImage::open(trailing, opts).is_err());
        // Word-aligned truncations must fail at open or at view
        // construction/walk — never panic, never read out of bounds.
        for cut in (0..bytes.len()).step_by(4) {
            let img = match HliImage::open(bytes[..cut].to_vec(), opts) {
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
        // The zero-copy trust boundary, exhaustively: flip each byte of
        // the image in turn; open + validate + a full materializing walk
        // must either fail with a DecodeError or produce *some* entry —
        // never panic, never touch out-of-bounds memory. (Semantic damage
        // that survives this structural gauntlet is vet_unit's job.)
        let opts = SerializeOpts { include_names: true };
        let file = HliFile { entries: vec![figure2_like()] };
        let bytes = encode_file_v3(&file, opts);
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xA5;
            let Ok(img) = HliImage::open(mutated, opts) else { continue };
            let names: Vec<String> = img.units().map(String::from).collect();
            for unit in names {
                if let Ok(Some(r)) = img.get_ref(&unit) {
                    let e = r.materialize();
                    // The materialized entry may be semantically bogus;
                    // verify (the semantic boundary) must stay panic-free.
                    let _ = e.verify();
                }
            }
        }
    }

    #[test]
    fn hostile_offsets_cannot_escape_the_body() {
        let opts = SerializeOpts { include_names: true };
        let file = HliFile { entries: vec![figure2_like()] };
        let clean = encode_file_v3(&file, opts);
        let img = HliImage::open(clean.clone(), opts).unwrap();
        let body_off = {
            // Word 4 of the directory record = body_off of unit 0.
            word_at(&clean, 4) as usize
        };
        // Poison the region table's class_off with a huge word offset;
        // validation must reject it rather than let a view chase it.
        let n_lines = word_at(&clean, body_off + 2) as usize;
        let n_items = word_at(&clean, body_off + 3) as usize;
        let reg0 = body_off + 8 + n_lines * 3 + n_items * 2;
        let mut evil = clean.clone();
        evil[(reg0 + 6) * 4..(reg0 + 6) * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let img2 = HliImage::open(evil, opts).unwrap();
        let err = match img2.get_ref("foo") {
            Err(e) => e,
            Ok(_) => panic!("hostile class_off must fail view construction"),
        };
        assert!(err.0.contains("class table"), "got: {err:?}");
        // And the memo serves the same error again without re-validating.
        assert!(img2.get_ref("foo").is_err());
        assert_eq!(img2.validated_units(), 1);
        drop(img);
    }
}
