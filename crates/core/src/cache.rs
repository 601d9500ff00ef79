//! Memoized query layer over [`HliQuery`].
//!
//! The back-end asks the same dependence questions repeatedly — the DDG
//! builder probes every item pair per block, and a second scheduling pass
//! (or a later pass like CSE/LICM over the same function) re-asks questions
//! the first pass already answered. [`QueryCache`] memoizes the answers of
//! the five basic query functions keyed on item/region IDs, and
//! [`CachedQuery`] exposes the same surface as [`HliQuery`] so passes
//! consume it unchanged.
//!
//! ## Invalidation contract
//!
//! Memoized answers are valid for one `(unit_name, generation)` pair. Every
//! successful maintenance operation ([`crate::maintain`]) bumps the entry's
//! generation; [`QueryCache::attach`] compares the stored pair against the
//! entry it is handed and flushes every memo on mismatch (counted as
//! `backend.query_cache.invalidate`). Passes that know exactly which items
//! they touched can instead call [`QueryCache::invalidate_items`] — sound
//! for item deletion and motion, whose collapse/cascade rules leave answers
//! between untouched items unchanged — and keep the rest of the memo warm.
//! Unrolling rewrites whole tables, so it relies on the wholesale flush.
//!
//! ## Provenance bypass
//!
//! When a decision-provenance sink is active, every basic query must stamp
//! a fresh query id so optimization decisions cite their full query chain.
//! A memo hit would skip the stamp, so the wrapper delegates directly to
//! [`HliQuery`] (no memo reads or writes, no hit/miss counting) whenever
//! the underlying index was built under a sink. Provenance output is
//! therefore byte-identical with and without the cache.
//!
//! Cache traffic is metered as `backend.query_cache.{hit,miss,invalidate}`.

use crate::ids::{ItemId, RegionId};
use crate::query::{CallAcc, EquivAcc, HliQuery, LcddAnswer};
use crate::tables::{HliEntry, ItemType, Region};
use hli_obs::provenance::QueryRef;
use hli_obs::Counter;
use std::collections::HashMap;
use std::sync::Mutex;

/// The mutable interior of a [`QueryCache`]: the validity key plus the
/// five memo maps, guarded together by one mutex so a key change and its
/// flush are atomic with respect to concurrent readers.
#[derive(Default)]
struct CacheState {
    /// Validity key: the unit and generation the memos were computed from.
    unit: String,
    generation: u64,
    equiv: HashMap<(ItemId, ItemId), EquivAcc>,
    alias: HashMap<(RegionId, ItemId, ItemId), bool>,
    lcdd: HashMap<(ItemId, ItemId), Option<LcddAnswer>>,
    lcdd_at: HashMap<(RegionId, ItemId, ItemId), Option<LcddAnswer>>,
    call: HashMap<(ItemId, ItemId), CallAcc>,
}

impl CacheState {
    fn memo_len(&self) -> usize {
        self.equiv.len() + self.alias.len() + self.lcdd.len() + self.lcdd_at.len() + self.call.len()
    }
}

/// Memo storage for one program unit's query answers. Create one per
/// function (or share one across passes over the same function) and
/// [`attach`](QueryCache::attach) it to the entry before querying — in
/// the back end, the tables `vet_unit` verified, whether an in-memory
/// file lent them or an image unit was decoded into them.
///
/// `Send + Sync`: the state sits behind a single `Mutex`, so one cache
/// may be probed from several threads — though the intended sharing
/// discipline (one cache per function, owned by whichever pool worker
/// holds that function) keeps the lock uncontended.
pub struct QueryCache {
    state: Mutex<CacheState>,
    hits: Counter,
    misses: Counter,
    invalidates: Counter,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryCache {
    /// An empty cache bound to the current metrics registry (counter
    /// handles are resolved here, once, not per query).
    pub fn new() -> Self {
        let r = hli_obs::metrics::cur();
        QueryCache {
            state: Mutex::new(CacheState::default()),
            hits: r.counter("backend.query_cache.hit"),
            misses: r.counter("backend.query_cache.miss"),
            invalidates: r.counter("backend.query_cache.invalidate"),
        }
    }

    /// Number of memoized answers currently held.
    pub fn memo_len(&self) -> usize {
        self.state.lock().unwrap().memo_len()
    }

    fn flush(&self, s: &mut CacheState) {
        let dropped = s.memo_len();
        if dropped > 0 {
            self.invalidates.add(dropped as u64);
        }
        s.equiv.clear();
        s.alias.clear();
        s.lcdd.clear();
        s.lcdd_at.clear();
        s.call.clear();
    }

    /// Build a cached query index over `entry`. Memos survive across attaches
    /// as long as the entry's `(unit_name, generation)` key is unchanged;
    /// any mismatch flushes them (counted as invalidations).
    pub fn attach<'a>(&'a self, entry: &'a HliEntry) -> CachedQuery<'a> {
        let mut s = self.state.lock().unwrap();
        if s.unit != entry.unit_name || s.generation != entry.generation {
            self.flush(&mut s);
            s.unit = entry.unit_name.clone();
            s.generation = entry.generation;
        }
        drop(s);
        CachedQuery { cache: self, inner: HliQuery::new(entry) }
    }

    /// Surgical invalidation: drop only the memos whose keys mention one of
    /// `items`, then adopt `entry`'s generation so the next
    /// [`attach`](QueryCache::attach) keeps the remaining memos.
    ///
    /// Sound for [`crate::maintain::delete_item`] and
    /// [`crate::maintain::move_item_to_region`]: their collapse/cascade
    /// rules only change answers for pairs involving the touched items
    /// (classes disappear only once their last member is gone). The alias
    /// memo is keyed by class IDs, which those cascades *can* remove, so it
    /// is flushed wholesale — it is only populated by direct `get_alias`
    /// calls and stays small. Do **not** use this after
    /// [`crate::maintain::unroll_loop`]; let the generation mismatch flush
    /// everything instead.
    pub fn invalidate_items(&self, entry: &HliEntry, items: &[ItemId]) {
        let mut s = self.state.lock().unwrap();
        if s.unit != entry.unit_name {
            // Different unit: nothing here belongs to `entry` at all.
            self.flush(&mut s);
            s.unit = entry.unit_name.clone();
            s.generation = entry.generation;
            return;
        }
        let hit = |a: &ItemId, b: &ItemId| items.contains(a) || items.contains(b);
        let mut dropped = 0usize;
        macro_rules! retain_pairs {
            ($map:expr) => {{
                let m = &mut $map;
                let before = m.len();
                m.retain(|(a, b), _| !hit(a, b));
                dropped += before - m.len();
            }};
        }
        retain_pairs!(s.equiv);
        retain_pairs!(s.lcdd);
        retain_pairs!(s.call);
        {
            let m = &mut s.lcdd_at;
            let before = m.len();
            m.retain(|(_, a, b), _| !hit(a, b));
            dropped += before - m.len();
        }
        dropped += s.alias.len();
        s.alias.clear();
        if dropped > 0 {
            self.invalidates.add(dropped as u64);
        }
        s.generation = entry.generation;
    }
}

/// A memoizing query index over one entry, mirroring the [`HliQuery`]
/// surface.
pub struct CachedQuery<'a> {
    cache: &'a QueryCache,
    inner: HliQuery<'a>,
}

/// Reorient an LCDD answer stored for `(lo, hi)` argument order to the
/// caller's order.
fn reorient(v: Option<LcddAnswer>, swapped: bool) -> Option<LcddAnswer> {
    match (v, swapped) {
        (Some(ans), true) => Some(LcddAnswer { reversed: !ans.reversed, ..ans }),
        _ => v,
    }
}

impl<'a> CachedQuery<'a> {
    /// The memo-bypass condition: under a provenance sink every query must
    /// stamp its id, so serve nothing from (and record nothing into) memos.
    fn bypass(&self) -> bool {
        self.inner.provenance_active()
    }

    /// Direct access to the underlying index.
    pub fn inner(&self) -> &HliQuery<'a> {
        &self.inner
    }

    /// See [`HliQuery::query_mark`].
    pub fn query_mark(&self) -> usize {
        self.inner.query_mark()
    }

    /// See [`HliQuery::queries_since`].
    pub fn queries_since(&self, mark: usize) -> Vec<QueryRef> {
        self.inner.queries_since(mark)
    }

    /// Region metadata (uncached: already a direct index into the entry).
    pub fn region_info(&self, r: RegionId) -> &'a Region {
        self.inner.region_info(r)
    }

    /// See [`HliQuery::region_of_item`] (uncached: a plain index lookup).
    pub fn region_of_item(&self, item: ItemId) -> Option<RegionId> {
        self.inner.region_of_item(item)
    }

    /// See [`HliQuery::owner_of`] (uncached: a plain index lookup).
    pub fn owner_of(&self, item: ItemId) -> Option<RegionId> {
        self.inner.owner_of(item)
    }

    /// See [`HliQuery::item_info`] (uncached: a plain index lookup).
    pub fn item_info(&self, item: ItemId) -> Option<(u32, ItemType)> {
        self.inner.item_info(item)
    }

    /// See [`HliQuery::class_of_item_at`] (uncached: a plain index lookup).
    pub fn class_of_item_at(&self, region: RegionId, item: ItemId) -> Option<ItemId> {
        self.inner.class_of_item_at(region, item)
    }

    /// Memoized [`HliQuery::get_equiv_acc`] (symmetric: keyed on the
    /// unordered pair).
    pub fn get_equiv_acc(&self, a: ItemId, b: ItemId) -> EquivAcc {
        if self.bypass() {
            return self.inner.get_equiv_acc(a, b);
        }
        let key = (a.min(b), a.max(b));
        if let Some(&v) = self.cache.state.lock().unwrap().equiv.get(&key) {
            self.cache.hits.inc();
            return v;
        }
        self.cache.misses.inc();
        let v = self.inner.get_equiv_acc(a, b);
        self.cache.state.lock().unwrap().equiv.insert(key, v);
        v
    }

    /// Memoized [`HliQuery::get_alias`] (symmetric in the class pair).
    pub fn get_alias(&self, region: RegionId, ca: ItemId, cb: ItemId) -> bool {
        if self.bypass() {
            return self.inner.get_alias(region, ca, cb);
        }
        let key = (region, ca.min(cb), ca.max(cb));
        if let Some(&v) = self.cache.state.lock().unwrap().alias.get(&key) {
            self.cache.hits.inc();
            return v;
        }
        self.cache.misses.inc();
        let v = self.inner.get_alias(region, ca, cb);
        self.cache.state.lock().unwrap().alias.insert(key, v);
        v
    }

    /// Memoized [`HliQuery::get_lcdd`]. Answers are stored for the
    /// `(lo, hi)` argument order; a swapped call flips `reversed`, which is
    /// exactly how the underlying two-direction table match behaves.
    pub fn get_lcdd(&self, a: ItemId, b: ItemId) -> Option<LcddAnswer> {
        if self.bypass() {
            return self.inner.get_lcdd(a, b);
        }
        let swapped = b < a;
        let key = (a.min(b), a.max(b));
        if let Some(&v) = self.cache.state.lock().unwrap().lcdd.get(&key) {
            self.cache.hits.inc();
            return reorient(v, swapped);
        }
        self.cache.misses.inc();
        let v = self.inner.get_lcdd(a, b);
        self.cache.state.lock().unwrap().lcdd.insert(key, reorient(v, swapped));
        v
    }

    /// Memoized [`HliQuery::get_lcdd_at`], same orientation rule.
    pub fn get_lcdd_at(&self, region: RegionId, a: ItemId, b: ItemId) -> Option<LcddAnswer> {
        if self.bypass() {
            return self.inner.get_lcdd_at(region, a, b);
        }
        let swapped = b < a;
        let key = (region, a.min(b), a.max(b));
        if let Some(&v) = self.cache.state.lock().unwrap().lcdd_at.get(&key) {
            self.cache.hits.inc();
            return reorient(v, swapped);
        }
        self.cache.misses.inc();
        let v = self.inner.get_lcdd_at(region, a, b);
        self.cache.state.lock().unwrap().lcdd_at.insert(key, reorient(v, swapped));
        v
    }

    /// Memoized [`HliQuery::get_call_acc`] (directional: `(mem, call)`).
    pub fn get_call_acc(&self, mem: ItemId, call: ItemId) -> CallAcc {
        if self.bypass() {
            return self.inner.get_call_acc(mem, call);
        }
        let key = (mem, call);
        if let Some(&v) = self.cache.state.lock().unwrap().call.get(&key) {
            self.cache.hits.inc();
            return v;
        }
        self.cache.misses.inc();
        let v = self.inner.get_call_acc(mem, call);
        self.cache.state.lock().unwrap().call.insert(key, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain;
    use crate::tables::tests::figure2_like;
    use crate::tables::Distance;
    use std::sync::Arc;

    fn scoped_registry() -> (Arc<hli_obs::MetricsRegistry>, hli_obs::metrics::ScopedRegistry) {
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let g = hli_obs::metrics::scoped(reg.clone());
        (reg, g)
    }

    #[test]
    fn repeat_queries_hit_and_agree() {
        let (reg, _g) = scoped_registry();
        let e = figure2_like();
        let cache = QueryCache::new();
        let q = cache.attach(&e);
        let first = q.get_equiv_acc(ItemId(9), ItemId(10));
        let second = q.get_equiv_acc(ItemId(9), ItemId(10));
        assert_eq!(first, second);
        assert_eq!(first, EquivAcc::Definite);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.miss"), 1);
        assert_eq!(snap.counter("backend.query_cache.hit"), 1);
    }

    #[test]
    fn symmetric_queries_share_one_memo() {
        let (reg, _g) = scoped_registry();
        let e = figure2_like();
        let cache = QueryCache::new();
        let q = cache.attach(&e);
        assert_eq!(
            q.get_equiv_acc(ItemId(5), ItemId(6)),
            q.get_equiv_acc(ItemId(6), ItemId(5))
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.miss"), 1);
        assert_eq!(snap.counter("backend.query_cache.hit"), 1);
    }

    #[test]
    fn lcdd_hit_flips_direction_for_swapped_args() {
        let (_reg, _g) = scoped_registry();
        let e = figure2_like();
        let cache = QueryCache::new();
        let q = cache.attach(&e);
        let plain = HliQuery::new(&e);
        // Warm with one order, then hit with the other; both must match
        // the uncached answers exactly.
        let fwd = q.get_lcdd(ItemId(5), ItemId(6)).unwrap();
        let rev = q.get_lcdd(ItemId(6), ItemId(5)).unwrap();
        assert_eq!(Some(fwd), plain.get_lcdd(ItemId(5), ItemId(6)));
        assert_eq!(Some(rev), plain.get_lcdd(ItemId(6), ItemId(5)));
        assert_eq!(fwd.distance, Distance::Const(1));
        assert!(!fwd.reversed);
        assert!(rev.reversed);
    }

    #[test]
    fn memos_survive_reattach_on_same_generation() {
        let (reg, _g) = scoped_registry();
        let e = figure2_like();
        let cache = QueryCache::new();
        {
            let q = cache.attach(&e);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10));
        }
        {
            let q = cache.attach(&e);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.hit"), 1, "second pass hits");
        assert_eq!(snap.counter("backend.query_cache.invalidate"), 0);
    }

    #[test]
    fn maintenance_bumps_generation_and_invalidates() {
        let (reg, _g) = scoped_registry();
        let mut e = figure2_like();
        let cache = QueryCache::new();
        {
            let q = cache.attach(&e);
            assert_eq!(q.get_equiv_acc(ItemId(9), ItemId(10)), EquivAcc::Definite);
        }
        let gen_before = e.generation;
        maintain::delete_item(&mut e, ItemId(9)).unwrap();
        assert!(e.generation > gen_before);
        {
            let q = cache.attach(&e);
            // Stale memo was flushed; the fresh answer sees the deletion.
            assert_eq!(q.get_equiv_acc(ItemId(9), ItemId(10)), EquivAcc::Unknown);
        }
        let snap = reg.snapshot();
        assert!(snap.counter("backend.query_cache.invalidate") > 0);
        assert_eq!(snap.counter("backend.query_cache.hit"), 0);
    }

    #[test]
    fn failed_maintenance_leaves_memos_valid() {
        let (reg, _g) = scoped_registry();
        let mut e = figure2_like();
        let cache = QueryCache::new();
        {
            let q = cache.attach(&e);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10));
        }
        assert!(maintain::delete_item(&mut e, ItemId(999)).is_err());
        {
            let q = cache.attach(&e);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.hit"), 1);
        assert_eq!(snap.counter("backend.query_cache.invalidate"), 0);
    }

    #[test]
    fn surgical_invalidation_keeps_unrelated_memos() {
        let (reg, _g) = scoped_registry();
        let mut e = figure2_like();
        let cache = QueryCache::new();
        {
            let q = cache.attach(&e);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10)); // sum pair
            let _ = q.get_equiv_acc(ItemId(5), ItemId(7)); // b[j] pair
        }
        maintain::delete_item(&mut e, ItemId(9)).unwrap();
        cache.invalidate_items(&e, &[ItemId(9)]);
        {
            let q = cache.attach(&e);
            // Unrelated pair still memoized; touched pair recomputed.
            assert_eq!(q.get_equiv_acc(ItemId(5), ItemId(7)), EquivAcc::Definite);
            assert_eq!(q.get_equiv_acc(ItemId(9), ItemId(10)), EquivAcc::Unknown);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.hit"), 1);
        assert_eq!(snap.counter("backend.query_cache.invalidate"), 1);
    }

    #[test]
    fn attaching_a_different_unit_flushes() {
        let (reg, _g) = scoped_registry();
        let e1 = figure2_like();
        let mut e2 = figure2_like();
        e2.unit_name = "bar".into();
        let cache = QueryCache::new();
        {
            let q = cache.attach(&e1);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10));
        }
        {
            // Same item IDs, different unit: must not reuse foo's answers.
            let q = cache.attach(&e2);
            let _ = q.get_equiv_acc(ItemId(9), ItemId(10));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.hit"), 0);
        assert_eq!(snap.counter("backend.query_cache.invalidate"), 1);
        assert_eq!(snap.counter("backend.query_cache.miss"), 2);
    }

    #[test]
    fn provenance_bypass_stamps_every_query_and_skips_memos() {
        use hli_obs::provenance::{self, ProvenanceSink};
        let (reg, _g) = scoped_registry();
        let e = figure2_like();
        let cache = QueryCache::new();
        let sink = Arc::new(ProvenanceSink::new());
        let _p = provenance::scoped(sink);
        let q = cache.attach(&e);
        let mark = q.query_mark();
        let _ = q.get_equiv_acc(ItemId(5), ItemId(6));
        let _ = q.get_equiv_acc(ItemId(5), ItemId(6));
        // Both calls stamped their full chain (equiv + internal alias).
        assert_eq!(q.queries_since(mark).len(), 4);
        assert_eq!(cache.memo_len(), 0, "bypass must not populate memos");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.query_cache.hit"), 0);
        assert_eq!(snap.counter("backend.query_cache.miss"), 0);
    }

    #[test]
    fn concurrent_maintenance_only_invalidates_its_own_unit() {
        // The parallel driver hands each worker its own function's cache
        // from one shared `HashMap<String, QueryCache>`. Maintenance on one
        // worker's function bumps only that entry's generation, so the
        // other unit's memos must stay warm: the `(unit, generation)` key
        // isolates invalidation per cache.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryCache>();

        let (reg, _g) = scoped_registry();
        let e_foo = figure2_like();
        let mut e_bar = figure2_like();
        e_bar.unit_name = "bar".into();
        let mut caches = std::collections::HashMap::new();
        caches.insert(e_foo.unit_name.clone(), QueryCache::new());
        caches.insert(e_bar.unit_name.clone(), QueryCache::new());
        // Warm both caches, then maintain `bar` on another thread while
        // `foo`'s worker keeps querying through the shared map.
        let _ = caches[&e_foo.unit_name].attach(&e_foo).get_equiv_acc(ItemId(9), ItemId(10));
        let _ = caches[&e_bar.unit_name].attach(&e_bar).get_equiv_acc(ItemId(9), ItemId(10));
        std::thread::scope(|s| {
            let (caches, e_foo) = (&caches, &e_foo);
            let e_bar = &mut e_bar;
            s.spawn(move || {
                maintain::delete_item(e_bar, ItemId(9)).unwrap();
                let c = &caches[&e_bar.unit_name];
                c.invalidate_items(e_bar, &[ItemId(9)]);
                assert_eq!(c.attach(e_bar).get_equiv_acc(ItemId(9), ItemId(10)), EquivAcc::Unknown);
            });
            s.spawn(move || {
                for _ in 0..50 {
                    let q = caches[&e_foo.unit_name].attach(e_foo);
                    assert_eq!(q.get_equiv_acc(ItemId(9), ItemId(10)), EquivAcc::Definite);
                }
            });
        });
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("backend.query_cache.invalidate"),
            1,
            "only bar's touched memo dropped; foo's stayed warm"
        );
        assert_eq!(
            snap.counter("backend.query_cache.miss"),
            3,
            "foo warm + bar warm + bar redo"
        );
        assert_eq!(snap.counter("backend.query_cache.hit"), 50, "every foo re-query hit");
    }

    #[test]
    fn cached_answers_match_uncached_exhaustively() {
        let (_reg, _g) = scoped_registry();
        let e = figure2_like();
        let cache = QueryCache::new();
        let q = cache.attach(&e);
        let plain = HliQuery::new(&e);
        for a in 0..12u32 {
            for b in 0..12u32 {
                let (a, b) = (ItemId(a), ItemId(b));
                assert_eq!(q.get_equiv_acc(a, b), plain.get_equiv_acc(a, b), "{a} {b}");
                assert_eq!(q.get_lcdd(a, b), plain.get_lcdd(a, b), "{a} {b}");
            }
        }
    }
}
