//! The persistent content-addressed object store — layout, object
//! schema, eviction and quarantine rules normative in docs/SERVE.md
//! ("Cache layout", "Eviction", "Quarantine and trust").
//!
//! One JSON object per function per key under
//! `<root>/v1/objects/<2hex>/<16hex>.json`, written atomically
//! (tmp + rename). Each object carries the scheduled output (dump +
//! hash + query stats) *and* the function's full observability shard,
//! so a cache hit can be [`hli_obs::commit`]ted exactly like a fresh
//! capture — that is what makes cached and cold `--stats json` /
//! provenance output byte-identical.
//!
//! Objects that fail to parse or to self-identify are deleted on sight
//! and treated as misses (`serve.cache.quarantined`): the same
//! never-trust-never-abort stance as the compiler's `vet_unit` boundary.

use crate::key::CacheKey;
use hli_backend::ddg::QueryStats;
use hli_obs::json::{self, escape_into, Json};
use hli_obs::metrics::HistSnapshot;
use hli_obs::{DecisionRecord, MetricsSnapshot, ObsShard};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// The serializable part of an [`ObsShard`]: everything a compile
/// capture produces (captures never trace, so spans are always empty).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardData {
    /// Query/span ids the capture stamped (renumbered at commit).
    pub ids_used: u64,
    /// The capture's metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Decision records with shard-local ids.
    pub records: Vec<DecisionRecord>,
}

impl ShardData {
    /// Copy the serializable fields out of a captured shard.
    pub fn from_shard(shard: &ObsShard) -> ShardData {
        ShardData {
            ids_used: shard.ids_used,
            metrics: shard.metrics.clone(),
            records: shard.records.clone(),
        }
    }

    /// Reconstruct a committable shard — replaying this through
    /// [`hli_obs::commit`] is observably identical to committing the
    /// original capture.
    pub fn into_shard(self) -> ObsShard {
        ObsShard {
            metrics: self.metrics,
            records: self.records,
            ids_used: self.ids_used,
            spans: Vec::new(),
            seq_used: 0,
        }
    }
}

/// One cached compile answer (the on-disk object schema in SERVE.md).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedObject {
    pub key: CacheKey,
    pub function: String,
    /// FNV-1a 64 of `dump`.
    pub sched_hash: u64,
    /// The scheduled RTL text.
    pub dump: String,
    pub stats: QueryStats,
    pub shard: ShardData,
}

impl CachedObject {
    /// Canonical single-line JSON rendering (the file contents, plus a
    /// trailing newline when written).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"schema_version\": {}, \"serve_version\": {}, \"key\": \"{}\", \"function\": ",
            hli_obs::SCHEMA_VERSION,
            crate::SERVE_VERSION,
            self.key.hex()
        );
        escape_into(&mut s, &self.function);
        let _ = write!(s, ", \"sched_hash\": \"{:016x}\", \"stats\": ", self.sched_hash);
        let q = &self.stats;
        let _ = write!(
            s,
            "{{\"total_tests\": {}, \"gcc_yes\": {}, \"hli_yes\": {}, \
             \"combined_yes\": {}, \"call_queries\": {}}}",
            q.total_tests, q.gcc_yes, q.hli_yes, q.combined_yes, q.call_queries
        );
        s.push_str(", \"dump\": ");
        escape_into(&mut s, &self.dump);
        let _ = write!(
            s,
            ", \"shard\": {{\"ids_used\": {}, \"counters\": {{",
            self.shard.ids_used
        );
        for (i, (k, v)) in self.shard.metrics.counters.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape_into(&mut s, k);
            let _ = write!(s, ": {v}");
        }
        s.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.shard.metrics.gauges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape_into(&mut s, k);
            let _ = write!(s, ": {v}");
        }
        s.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.shard.metrics.histograms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape_into(&mut s, k);
            let _ = write!(
                s,
                ": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.max
            );
            for (j, (lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{lo}, {n}]");
            }
            s.push_str("]}");
        }
        s.push_str("}, \"records\": [");
        for (i, r) in self.shard.records.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape_into(&mut s, &r.to_json_line());
        }
        s.push_str("]}}");
        s
    }

    /// Parse an object file's contents; `Err` means the object is
    /// corrupt or from a different generation and must be quarantined.
    pub fn parse(text: &str) -> Result<CachedObject, String> {
        let v = json::parse(text.trim_end())?;
        let num = |j: &Json, what: &str| -> Result<u64, String> {
            j.as_num()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("bad {what}"))
        };
        let field_num = |k: &str| num(v.get(k).ok_or_else(|| format!("missing `{k}`"))?, k);
        if field_num("schema_version")? != hli_obs::SCHEMA_VERSION {
            return Err("schema_version mismatch".into());
        }
        if field_num("serve_version")? != crate::SERVE_VERSION {
            return Err("serve_version mismatch".into());
        }
        let hex_field = |k: &str| -> Result<u64, String> {
            let s = v.get(k).and_then(Json::as_str).ok_or_else(|| format!("missing `{k}`"))?;
            CacheKey::from_hex(s).map(|c| c.0).ok_or_else(|| format!("bad hex in `{k}`"))
        };
        let key = CacheKey(hex_field("key")?);
        let function = v
            .get("function")
            .and_then(Json::as_str)
            .ok_or("missing `function`")?
            .to_string();
        let stats_v = v.get("stats").ok_or("missing `stats`")?;
        let sf = |k: &str| num(stats_v.get(k).ok_or_else(|| format!("missing stats.{k}"))?, k);
        let stats = QueryStats {
            total_tests: sf("total_tests")?,
            gcc_yes: sf("gcc_yes")?,
            hli_yes: sf("hli_yes")?,
            combined_yes: sf("combined_yes")?,
            call_queries: sf("call_queries")?,
        };
        let dump = v.get("dump").and_then(Json::as_str).ok_or("missing `dump`")?.to_string();
        let shard_v = v.get("shard").ok_or("missing `shard`")?;
        let mut metrics = MetricsSnapshot::default();
        if let Some(Json::Obj(m)) = shard_v.get("counters") {
            for (k, val) in m {
                metrics.counters.insert(k.clone(), num(val, "counter")?);
            }
        }
        if let Some(Json::Obj(m)) = shard_v.get("gauges") {
            for (k, val) in m {
                let n = val.as_num().filter(|n| n.fract() == 0.0).ok_or("bad gauge")?;
                metrics.gauges.insert(k.clone(), n as i64);
            }
        }
        if let Some(Json::Obj(m)) = shard_v.get("histograms") {
            for (k, val) in m {
                let hf = |f: &str| num(val.get(f).ok_or_else(|| format!("missing hist.{f}"))?, f);
                let buckets = val
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or("missing hist.buckets")?
                    .iter()
                    .map(|b| {
                        let pair = b.as_arr().filter(|p| p.len() == 2).ok_or("bad bucket")?;
                        Ok((num(&pair[0], "bucket lo")?, num(&pair[1], "bucket n")?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                metrics.histograms.insert(
                    k.clone(),
                    HistSnapshot {
                        count: hf("count")?,
                        sum: hf("sum")?,
                        max: hf("max")?,
                        buckets,
                    },
                );
            }
        }
        let records = shard_v
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing `shard.records`")?
            .iter()
            .map(|r| {
                let line = r.as_str().ok_or("record must be a string")?;
                DecisionRecord::parse_line(line)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let shard = ShardData {
            ids_used: num(shard_v.get("ids_used").ok_or("missing `shard.ids_used`")?, "ids_used")?,
            metrics,
            records,
        };
        Ok(CachedObject {
            key,
            function,
            sched_hash: hex_field("sched_hash")?,
            dump,
            stats,
            shard,
        })
    }
}

/// The on-disk store. The object files are the presence index: `get`
/// reads the key's file, and a file that is not there is a plain miss.
///
/// In memory the store keeps two running totals (objects and bytes
/// resident) and, only when a byte budget is set, one recency entry per
/// resident object. Recency is in-process (objects found at startup are
/// seeded least-recent-first in name order — deterministic, if
/// arbitrary); eviction deletes whole object files until the budget fits.
/// Counters: `serve.cache.{hits,misses,evictions,quarantined}` and the
/// `serve.cache.bytes` gauge.
#[derive(Debug)]
pub struct DiskCache {
    objects_dir: PathBuf,
    /// 0 = unlimited.
    max_bytes: u64,
    /// Objects resident.
    count: usize,
    /// Object bytes resident.
    bytes: u64,
    /// Budgeted stores only: `key -> (object bytes, last-touched tick)`;
    /// the min tick is the eviction victim. Empty without a budget.
    recency: HashMap<CacheKey, (u64, u64)>,
    tick: u64,
}

impl DiskCache {
    /// Open (creating if needed) the store under `root`.
    pub fn open(root: &Path, max_bytes: u64) -> io::Result<DiskCache> {
        let objects_dir = root.join("v1").join("objects");
        std::fs::create_dir_all(&objects_dir)?;
        let mut cache = DiskCache {
            objects_dir,
            max_bytes,
            count: 0,
            bytes: 0,
            recency: HashMap::new(),
            tick: 0,
        };
        let mut names: BTreeMap<String, (CacheKey, u64)> = BTreeMap::new();
        for shard_dir in std::fs::read_dir(&cache.objects_dir)? {
            let shard_dir = shard_dir?;
            if !shard_dir.file_type()?.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(shard_dir.path())? {
                let f = f?;
                let name = f.file_name().to_string_lossy().into_owned();
                let Some(key) = name.strip_suffix(".json").and_then(CacheKey::from_hex) else {
                    continue;
                };
                let len = f.metadata()?.len();
                cache.count += 1;
                cache.bytes += len;
                if max_bytes > 0 {
                    names.insert(name, (key, len));
                }
            }
        }
        // BTreeMap iteration = name order: deterministic startup recency.
        for (key, len) in names.into_values() {
            cache.tick += 1;
            cache.recency.insert(key, (len, cache.tick));
        }
        cache.stamp_bytes();
        Ok(cache)
    }

    fn path_of(&self, key: CacheKey) -> PathBuf {
        let hex = key.hex();
        self.objects_dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    fn stamp_bytes(&self) {
        hli_obs::metrics::cur().gauge("serve.cache.bytes").set(self.bytes as i64);
    }

    /// Object bytes currently on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of objects resident.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The size of `key`'s resident object as the totals count it: the
    /// recency entry of a budgeted store, else the file's own length.
    fn counted_len(&self, key: CacheKey, path: &Path) -> Option<u64> {
        if self.max_bytes > 0 {
            self.recency.get(&key).map(|&(len, _)| len)
        } else {
            std::fs::metadata(path).ok().map(|m| m.len())
        }
    }

    /// Delete `key`'s object and take it out of the totals.
    fn forget(&mut self, key: CacheKey) {
        let path = self.path_of(key);
        if let Some(len) = self.counted_len(key, &path) {
            self.count = self.count.saturating_sub(1);
            self.bytes = self.bytes.saturating_sub(len);
        }
        self.recency.remove(&key);
        let _ = std::fs::remove_file(path);
    }

    /// Look `key` up. `function` is the caller's expected unit name. A
    /// missing object file is a plain miss; an object that cannot be
    /// read, fails to parse or self-identify, or names another function
    /// is quarantined (deleted) and reported as a miss.
    pub fn get(&mut self, key: CacheKey, function: &str) -> Option<CachedObject> {
        let reg = hli_obs::metrics::cur();
        let found = match std::fs::read_to_string(self.path_of(key)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                reg.counter("serve.cache.misses").inc();
                // A budgeted store drops the entry of an object deleted
                // behind its back, so its totals stay exact.
                if self.recency.contains_key(&key) {
                    self.forget(key);
                    self.stamp_bytes();
                }
                return None;
            }
            Err(_) => None,
            Ok(text) => CachedObject::parse(&text)
                .ok()
                .filter(|obj| obj.key == key && obj.function == function),
        };
        let Some(obj) = found else {
            reg.counter("serve.cache.quarantined").inc();
            reg.counter("serve.cache.misses").inc();
            self.forget(key);
            self.stamp_bytes();
            return None;
        };
        if let Some(entry) = self.recency.get_mut(&key) {
            self.tick += 1;
            entry.1 = self.tick;
        }
        reg.counter("serve.cache.hits").inc();
        Some(obj)
    }

    /// Store `obj`, atomically, then evict least-recently-used objects
    /// (never the one just written) until the byte budget fits.
    pub fn put(&mut self, obj: &CachedObject) -> io::Result<()> {
        let key = obj.key;
        let path = self.path_of(key);
        std::fs::create_dir_all(path.parent().unwrap())?;
        let mut body = obj.to_json();
        body.push('\n');
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &body)?;
        let replaced = self.counted_len(key, &path);
        std::fs::rename(&tmp, &path)?;
        let len = body.len() as u64;
        match replaced {
            Some(old) => self.bytes = self.bytes.saturating_sub(old),
            None => self.count += 1,
        }
        self.bytes += len;
        if self.max_bytes > 0 {
            self.tick += 1;
            self.recency.insert(key, (len, self.tick));
            let reg = hli_obs::metrics::cur();
            while self.bytes > self.max_bytes {
                let victim = self
                    .recency
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, &(_, t))| t)
                    .map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                self.forget(victim);
                reg.counter("serve.cache.evictions").inc();
            }
        }
        self.stamp_bytes();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_obs::provenance::QueryRef;
    use hli_obs::Verdict;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hli-serve-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn obj(key: u64, fill: usize) -> CachedObject {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("backend.ddg.tests".into(), 4);
        metrics.gauges.insert("backend.sched.depth".into(), -2);
        metrics.histograms.insert(
            "backend.ddg.block_size".into(),
            HistSnapshot { count: 2, sum: 6, max: 4, buckets: vec![(2, 1), (4, 1)] },
        );
        CachedObject {
            key: CacheKey(key),
            function: "f0".into(),
            sched_hash: 0xdead_beef,
            dump: format!("func f0:\n{}", "  1 @1 nop\n".repeat(fill.max(1))),
            stats: QueryStats {
                total_tests: 3,
                gcc_yes: 2,
                hli_yes: 1,
                combined_yes: 1,
                call_queries: 0,
            },
            shard: ShardData {
                ids_used: 2,
                metrics,
                records: vec![DecisionRecord {
                    pass: "sched.pair".into(),
                    function: "f0".into(),
                    region_id: Some(1),
                    order: 3,
                    span: 1,
                    est_cycles: 2,
                    hli_queries: vec![QueryRef(2)],
                    verdict: Verdict::Blocked { reason: "may\nalias".into() },
                }],
            },
        }
    }

    #[test]
    fn object_json_roundtrips() {
        let o = obj(0x0123_4567_89ab_cdef, 1);
        let text = o.to_json();
        assert_eq!(CachedObject::parse(&text).unwrap(), o, "{text}");
        // Shard reconstruction is lossless.
        let shard = o.shard.clone().into_shard();
        assert_eq!(ShardData::from_shard(&shard), o.shard);
    }

    #[test]
    fn parse_rejects_foreign_generations_and_garbage() {
        let good = obj(1, 1).to_json();
        assert!(CachedObject::parse(
            &good.replace("\"serve_version\": 1", "\"serve_version\": 99")
        )
        .is_err());
        assert!(CachedObject::parse(&good.replace(
            &format!("\"schema_version\": {}", hli_obs::SCHEMA_VERSION),
            "\"schema_version\": 0"
        ))
        .is_err());
        assert!(CachedObject::parse("not json").is_err());
        assert!(CachedObject::parse("{}").is_err());
    }

    #[test]
    fn put_get_roundtrip_and_persistence() {
        let root = tmp("roundtrip");
        let o = obj(42, 1);
        {
            let mut c = DiskCache::open(&root, 0).unwrap();
            assert!(c.get(o.key, "f0").is_none(), "empty cache misses");
            c.put(&o).unwrap();
            assert_eq!(c.get(o.key, "f0").unwrap(), o);
        }
        // A fresh open (daemon restart) still serves the object.
        let mut c = DiskCache::open(&root, 0).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(o.key, "f0").unwrap(), o);
        // Wrong expected function ⇒ quarantine, not a wrong answer.
        assert!(c.get(o.key, "other").is_none());
        assert_eq!(c.len(), 0, "mismatched object was deleted");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_objects_are_quarantined() {
        let root = tmp("quarantine");
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let _g = hli_obs::metrics::scoped(reg.clone());
        let o = obj(7, 1);
        let mut c = DiskCache::open(&root, 0).unwrap();
        c.put(&o).unwrap();
        // Truncate the object file behind the cache's back.
        let path = root.join("v1").join("objects").join(&o.key.hex()[..2]);
        let file = path.join(format!("{}.json", o.key.hex()));
        std::fs::write(&file, "{\"schema_version\": 2").unwrap();
        assert!(c.get(o.key, "f0").is_none());
        assert!(!file.exists(), "corrupt object deleted");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.cache.quarantined"), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Object files on disk under `root`: (count, bytes).
    fn on_disk(root: &Path) -> (usize, u64) {
        let mut totals = (0, 0);
        for shard in std::fs::read_dir(root.join("v1").join("objects")).unwrap() {
            for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let f = f.unwrap();
                if f.file_name().to_string_lossy().ends_with(".json") {
                    totals.0 += 1;
                    totals.1 += f.metadata().unwrap().len();
                }
            }
        }
        totals
    }

    /// `len()`, `bytes()` and the gauge all agree with the disk, and the
    /// store keeps one recency entry per object only under a budget.
    fn assert_exact(c: &DiskCache, root: &Path, reg: &hli_obs::MetricsRegistry) {
        let (count, bytes) = on_disk(root);
        assert_eq!((c.len(), c.bytes()), (count, bytes));
        assert_eq!(reg.snapshot().gauges["serve.cache.bytes"], bytes as i64);
        let per_object = if c.max_bytes > 0 { count } else { 0 };
        assert_eq!(c.recency.len(), per_object);
    }

    fn accounting_stays_exact(name: &str, max_bytes: u64) {
        let root = tmp(name);
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let _g = hli_obs::metrics::scoped(reg.clone());
        let mut c = DiskCache::open(&root, max_bytes).unwrap();
        c.put(&obj(1, 1)).unwrap();
        c.put(&obj(2, 3)).unwrap();
        assert_eq!(c.len(), 2);
        assert_exact(&c, &root, &reg);
        // Overwrite key 1 with a larger object: one object, new size.
        c.put(&obj(1, 9)).unwrap();
        assert_eq!(c.len(), 2);
        assert_exact(&c, &root, &reg);
        // Corrupt key 2 in place and quarantine it. (Rot keeps the length;
        // an unbudgeted store sees a size changed behind its back only at
        // the next open, since it keeps no per-object size.)
        let file = c.path_of(CacheKey(2));
        let mut rotten = std::fs::read(&file).unwrap();
        rotten[0] = b'#';
        std::fs::write(&file, rotten).unwrap();
        assert!(c.get(CacheKey(2), "f0").is_none());
        assert_eq!(reg.snapshot().counter("serve.cache.quarantined"), 1);
        assert_eq!(c.len(), 1);
        assert_exact(&c, &root, &reg);
        drop(c);
        // Reopen.
        let c = DiskCache::open(&root, max_bytes).unwrap();
        assert_eq!(c.len(), 1);
        assert_exact(&c, &root, &reg);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unbudgeted_accounting_stays_exact() {
        accounting_stays_exact("exact-unbudgeted", 0);
    }

    #[test]
    fn budgeted_accounting_stays_exact() {
        accounting_stays_exact("exact-budgeted", 1 << 20);
    }

    #[test]
    fn object_deleted_behind_the_cache_is_a_plain_miss() {
        for max_bytes in [0, 1 << 20] {
            let root = tmp(&format!("deleted-{max_bytes}"));
            let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
            let _g = hli_obs::metrics::scoped(reg.clone());
            let o = obj(5, 1);
            let mut c = DiskCache::open(&root, max_bytes).unwrap();
            c.put(&o).unwrap();
            std::fs::remove_file(c.path_of(o.key)).unwrap();
            assert!(c.get(o.key, "f0").is_none());
            let snap = reg.snapshot();
            assert_eq!(snap.counter("serve.cache.misses"), 1);
            assert_eq!(snap.counter("serve.cache.quarantined"), 0, "a missing file is no fault");
            if max_bytes > 0 {
                assert_exact(&c, &root, &reg);
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let root = tmp("evict");
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let _g = hli_obs::metrics::scoped(reg.clone());
        let a = obj(1, 8);
        let one_size = (a.to_json().len() + 1) as u64;
        // Budget for about two objects of this shape.
        let mut c = DiskCache::open(&root, 2 * one_size + one_size / 2).unwrap();
        c.put(&obj(1, 8)).unwrap();
        c.put(&obj(2, 8)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(CacheKey(1), "f0").is_some());
        c.put(&obj(3, 8)).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get(CacheKey(2), "f0").is_none(), "LRU object evicted");
        assert!(c.get(CacheKey(1), "f0").is_some());
        assert!(c.get(CacheKey(3), "f0").is_some());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.cache.evictions"), 1);
        assert!(snap.gauges["serve.cache.bytes"] as u64 <= 2 * one_size + one_size / 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
