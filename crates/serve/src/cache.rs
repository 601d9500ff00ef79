//! The persistent content-addressed store — layout, file schemas,
//! eviction and quarantine rules normative in docs/SERVE.md ("Cache
//! layout", "Direct mode", "Eviction", "Quarantine and trust").
//!
//! One JSON file per key under `<root>/v1/objects/<2hex>/<16hex>.json`,
//! written atomically (tmp + rename). A function's object carries the
//! scheduled output (dump + hash + query stats) *and* the function's full
//! observability shard, so a cache hit can be [`hli_obs::commit`]ted
//! exactly like a fresh capture — that is what makes cached and cold
//! `--stats json` / provenance output byte-identical. A program's
//! direct-mode entry ([`ProgramEntry`]) lists its function keys and keeps
//! prep's shard the same way, in the same tree.
//!
//! Files that fail to parse or to self-identify are deleted on sight
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

/// The serializable form of an [`ObsShard`]: the same fields, read and
/// written as part of a cache object or entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardData {
    /// Query/span ids the capture stamped (renumbered at commit).
    pub ids_used: u64,
    /// The capture's metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Decision records with shard-local ids.
    pub records: Vec<DecisionRecord>,
}

impl From<ObsShard> for ShardData {
    fn from(shard: ObsShard) -> ShardData {
        ShardData {
            ids_used: shard.ids_used,
            metrics: shard.metrics,
            records: shard.records,
        }
    }
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
        }
    }

    /// Append the `shard` object of the file schemas.
    fn write_json(&self, s: &mut String) {
        let _ = write!(s, "{{\"ids_used\": {}, \"counters\": ", self.ids_used);
        write_map(s, &self.metrics.counters, |s, v| {
            let _ = write!(s, "{v}");
        });
        s.push_str(", \"gauges\": ");
        write_map(s, &self.metrics.gauges, |s, v| {
            let _ = write!(s, "{v}");
        });
        s.push_str(", \"histograms\": ");
        write_map(s, &self.metrics.histograms, |s, h| {
            let _ = write!(
                s,
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.max
            );
            for (j, (lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{lo}, {n}]");
            }
            s.push_str("]}");
        });
        s.push_str(", \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape_into(s, &r.to_json_line());
        }
        s.push_str("]}");
    }

    /// Read the `shard` object of the file schemas back.
    fn parse(v: &Json) -> Result<ShardData, String> {
        let mut metrics = MetricsSnapshot::default();
        if let Some(Json::Obj(m)) = v.get("counters") {
            for (k, val) in m {
                metrics.counters.insert(k.clone(), num(val, "counter")?);
            }
        }
        if let Some(Json::Obj(m)) = v.get("gauges") {
            for (k, val) in m {
                let n = val.as_num().filter(|n| n.fract() == 0.0).ok_or("bad gauge")?;
                metrics.gauges.insert(k.clone(), n as i64);
            }
        }
        if let Some(Json::Obj(m)) = v.get("histograms") {
            for (k, val) in m {
                let hf = |f: &str| num(field(val, f)?, f);
                let buckets = field(val, "buckets")?
                    .as_arr()
                    .ok_or("bad hist.buckets")?
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
        let records = field(v, "records")?
            .as_arr()
            .ok_or("bad `records`")?
            .iter()
            .map(|r| DecisionRecord::parse_line(r.as_str().ok_or("record must be a string")?))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ShardData {
            ids_used: num(field(v, "ids_used")?, "ids_used")?,
            metrics,
            records,
        })
    }
}

/// Append `{"k": v, ...}` in map order, each value written by `value`.
fn write_map<V>(s: &mut String, map: &BTreeMap<String, V>, value: impl Fn(&mut String, &V)) {
    s.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        escape_into(s, k);
        s.push_str(": ");
        value(s, v);
    }
    s.push('}');
}

/// The opening every stored file shares: both generation numbers.
fn versions_json() -> String {
    format!(
        "{{\"schema_version\": {}, \"serve_version\": {}, ",
        hli_obs::SCHEMA_VERSION,
        crate::SERVE_VERSION
    )
}

/// A non-negative integral number.
fn num(j: &Json, what: &str) -> Result<u64, String> {
    j.as_num()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("bad {what}"))
}

fn field<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
    v.get(k).ok_or_else(|| format!("missing `{k}`"))
}

fn str_field<'a>(v: &'a Json, k: &str) -> Result<&'a str, String> {
    field(v, k)?.as_str().ok_or_else(|| format!("bad `{k}`"))
}

fn hex_field(v: &Json, k: &str) -> Result<CacheKey, String> {
    CacheKey::from_hex(str_field(v, k)?).ok_or_else(|| format!("bad hex in `{k}`"))
}

/// Parse a stored file; `Err` unless it is of this generation.
fn parse_current(text: &str) -> Result<Json, String> {
    let v = json::parse(text.trim_end())?;
    if num(field(&v, "schema_version")?, "schema_version")? != hli_obs::SCHEMA_VERSION {
        return Err("schema_version mismatch".into());
    }
    if num(field(&v, "serve_version")?, "serve_version")? != crate::SERVE_VERSION {
        return Err("serve_version mismatch".into());
    }
    Ok(v)
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
        let mut s = versions_json();
        let _ = write!(s, "\"key\": \"{}\", \"function\": ", self.key.hex());
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
        s.push_str(", \"shard\": ");
        self.shard.write_json(&mut s);
        s.push('}');
        s
    }

    /// Parse an object file's contents; `Err` means the object is
    /// corrupt or from a different generation and must be quarantined.
    pub fn parse(text: &str) -> Result<CachedObject, String> {
        let v = parse_current(text)?;
        let stats_v = field(&v, "stats")?;
        let sf = |k: &str| num(field(stats_v, k)?, k);
        let stats = QueryStats {
            total_tests: sf("total_tests")?,
            gcc_yes: sf("gcc_yes")?,
            hli_yes: sf("hli_yes")?,
            combined_yes: sf("combined_yes")?,
            call_queries: sf("call_queries")?,
        };
        Ok(CachedObject {
            key: hex_field(&v, "key")?,
            function: str_field(&v, "function")?.to_string(),
            sched_hash: hex_field(&v, "sched_hash")?.0,
            dump: str_field(&v, "dump")?.to_string(),
            stats,
            shard: ShardData::parse(field(&v, "shard")?)?,
        })
    }
}

/// A program's direct-mode entry (docs/SERVE.md, "Direct mode"): the
/// function keys prep derived for one program key, and prep's own
/// observability capture.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramEntry {
    pub key: CacheKey,
    /// `(function, key)`, name-sorted.
    pub functions: Vec<(String, CacheKey)>,
    pub shard: ShardData,
}

impl ProgramEntry {
    /// Canonical single-line JSON rendering, as [`CachedObject::to_json`].
    pub fn to_json(&self) -> String {
        let mut s = versions_json();
        let _ = write!(s, "\"program_key\": \"{}\", \"functions\": [", self.key.hex());
        for (i, (name, key)) in self.functions.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('[');
            escape_into(&mut s, name);
            let _ = write!(s, ", \"{}\"]", key.hex());
        }
        s.push_str("], \"shard\": ");
        self.shard.write_json(&mut s);
        s.push('}');
        s
    }

    /// Parse an entry file's contents; `Err` means quarantine.
    pub fn parse(text: &str) -> Result<ProgramEntry, String> {
        let v = parse_current(text)?;
        let functions = field(&v, "functions")?
            .as_arr()
            .ok_or("bad `functions`")?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([name, key]) => Ok((
                    name.as_str().ok_or("bad function name")?.to_string(),
                    key.as_str().and_then(CacheKey::from_hex).ok_or("bad function key")?,
                )),
                _ => Err("bad function pair".to_string()),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ProgramEntry {
            key: hex_field(&v, "program_key")?,
            functions,
            shard: ShardData::parse(field(&v, "shard")?)?,
        })
    }
}

/// The on-disk store. The files are the presence index: a lookup reads
/// the key's file, and a file that is not there is a plain miss. Objects
/// and entries share the tree, the totals, the budget and the quarantine.
///
/// In memory the store keeps two running totals (files and bytes
/// resident) and, only when a byte budget is set, one recency entry per
/// resident file. Recency is in-process (files found at startup are
/// seeded least-recent-first in name order — deterministic, if
/// arbitrary); eviction deletes whole files until the budget fits.
/// Counters: `serve.cache.{hits,misses}` (objects only),
/// `serve.cache.{evictions,quarantined}` and the `serve.cache.bytes`
/// gauge.
#[derive(Debug)]
pub struct DiskCache {
    objects_dir: PathBuf,
    /// 0 = unlimited.
    max_bytes: u64,
    /// Files resident.
    count: usize,
    /// File bytes resident.
    bytes: u64,
    /// Budgeted stores only: `key -> (file bytes, last-touched tick)`;
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

    /// File bytes currently on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of files (objects and entries) resident.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The size of `key`'s resident file as the totals count it: the
    /// recency entry of a budgeted store, else the file's own length.
    fn counted_len(&self, key: CacheKey, path: &Path) -> Option<u64> {
        if self.max_bytes > 0 {
            self.recency.get(&key).map(|&(len, _)| len)
        } else {
            std::fs::metadata(path).ok().map(|m| m.len())
        }
    }

    /// Delete `key`'s file and take it out of the totals.
    fn forget(&mut self, key: CacheKey) {
        let path = self.path_of(key);
        if let Some(len) = self.counted_len(key, &path) {
            self.count = self.count.saturating_sub(1);
            self.bytes = self.bytes.saturating_sub(len);
        }
        self.recency.remove(&key);
        let _ = std::fs::remove_file(path);
    }

    /// Read `key`'s file through `parse`, which returns `None` for a file
    /// that fails to parse or to self-identify. A missing file is a plain
    /// `None`; an unreadable or rejected one is quarantined (deleted).
    fn read<T>(&mut self, key: CacheKey, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let found = match std::fs::read_to_string(self.path_of(key)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // A budgeted store drops the entry of a file deleted
                // behind its back, so its totals stay exact.
                if self.recency.contains_key(&key) {
                    self.forget(key);
                    self.stamp_bytes();
                }
                return None;
            }
            Err(_) => None,
            Ok(text) => parse(&text),
        };
        let Some(found) = found else {
            hli_obs::metrics::cur().counter("serve.cache.quarantined").inc();
            self.forget(key);
            self.stamp_bytes();
            return None;
        };
        if let Some(entry) = self.recency.get_mut(&key) {
            self.tick += 1;
            entry.1 = self.tick;
        }
        Some(found)
    }

    /// Look a function's object up. `function` is the caller's expected
    /// unit name: an object that names another function or key is
    /// quarantined. Counts `serve.cache.hits` or `serve.cache.misses`.
    pub fn get(&mut self, key: CacheKey, function: &str) -> Option<CachedObject> {
        let obj = self.read(key, |text| {
            CachedObject::parse(text)
                .ok()
                .filter(|obj| obj.key == key && obj.function == function)
        });
        let outcome = if obj.is_some() {
            "serve.cache.hits"
        } else {
            "serve.cache.misses"
        };
        hli_obs::metrics::cur().counter(outcome).inc();
        obj
    }

    /// Look a program's direct-mode entry up; one that names another
    /// program key is quarantined.
    pub fn get_entry(&mut self, key: CacheKey) -> Option<ProgramEntry> {
        self.read(key, |text| ProgramEntry::parse(text).ok().filter(|e| e.key == key))
    }

    /// Store `obj`, atomically, then evict least-recently-used files
    /// (never the one just written) until the byte budget fits.
    pub fn put(&mut self, obj: &CachedObject) -> io::Result<()> {
        self.write(obj.key, obj.to_json())
    }

    /// Store `entry` as [`DiskCache::put`] stores an object.
    pub fn put_entry(&mut self, entry: &ProgramEntry) -> io::Result<()> {
        self.write(entry.key, entry.to_json())
    }

    /// Store `body` as `key`'s file: [`DiskCache::put`] for either schema.
    fn write(&mut self, key: CacheKey, mut body: String) -> io::Result<()> {
        let path = self.path_of(key);
        std::fs::create_dir_all(path.parent().expect("a file path has its shard directory"))?;
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

    fn entry(key: u64) -> ProgramEntry {
        ProgramEntry {
            key: CacheKey(key),
            functions: vec![
                ("f0".into(), CacheKey(0xdead_beef)),
                ("main".into(), CacheKey(2)),
            ],
            shard: obj(0, 1).shard,
        }
    }

    /// Caches already on disk hold objects in this exact layout; the
    /// shard writer that entries share must not move a byte of it.
    #[test]
    fn object_bytes_are_pinned() {
        let want = r#"{"schema_version": 2, "serve_version": 1, "key": "0123456789abcdef", "function": "f0", "sched_hash": "00000000deadbeef", "stats": {"total_tests": 3, "gcc_yes": 2, "hli_yes": 1, "combined_yes": 1, "call_queries": 0}, "dump": "func f0:\n  1 @1 nop\n  1 @1 nop\n", "shard": {"ids_used": 2, "counters": {"backend.ddg.tests": 4}, "gauges": {"backend.sched.depth": -2}, "histograms": {"backend.ddg.block_size": {"count": 2, "sum": 6, "max": 4, "buckets": [[2, 1], [4, 1]]}}, "records": ["{\"pass\": \"sched.pair\", \"function\": \"f0\", \"region\": 1, \"order\": 3, \"span\": 1, \"est\": 2, \"queries\": [2], \"verdict\": \"blocked\", \"reason\": \"may\\nalias\"}"]}}"#;
        assert_eq!(obj(0x0123_4567_89ab_cdef, 2).to_json(), want);
    }

    #[test]
    fn entry_bytes_are_pinned_and_roundtrip() {
        let e = entry(0x0123_4567_89ab_cdef);
        let want = r#"{"schema_version": 2, "serve_version": 1, "program_key": "0123456789abcdef", "functions": [["f0", "00000000deadbeef"], ["main", "0000000000000002"]], "shard": {"ids_used": 2, "counters": {"backend.ddg.tests": 4}, "gauges": {"backend.sched.depth": -2}, "histograms": {"backend.ddg.block_size": {"count": 2, "sum": 6, "max": 4, "buckets": [[2, 1], [4, 1]]}}, "records": ["{\"pass\": \"sched.pair\", \"function\": \"f0\", \"region\": 1, \"order\": 3, \"span\": 1, \"est\": 2, \"queries\": [2], \"verdict\": \"blocked\", \"reason\": \"may\\nalias\"}"]}}"#;
        assert_eq!(e.to_json(), want);
        assert_eq!(ProgramEntry::parse(want).unwrap(), e);
        // Neither schema reads as the other.
        assert!(ProgramEntry::parse(&obj(1, 1).to_json()).is_err());
        assert!(CachedObject::parse(want).is_err());
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
        c.put_entry(&entry(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_exact(&c, &root, &reg);
        // Overwrite key 1 with a larger object and entry 3 with a smaller
        // one: one file each, new sizes.
        c.put(&obj(1, 9)).unwrap();
        c.put_entry(&ProgramEntry { functions: Vec::new(), ..entry(3) }).unwrap();
        assert_eq!(c.len(), 3);
        assert_exact(&c, &root, &reg);
        assert!(c.get_entry(CacheKey(3)).unwrap().functions.is_empty());
        // Corrupt key 2 in place and quarantine it. (Rot keeps the length;
        // an unbudgeted store sees a size changed behind its back only at
        // the next open, since it keeps no per-object size.)
        let file = c.path_of(CacheKey(2));
        let mut rotten = std::fs::read(&file).unwrap();
        rotten[0] = b'#';
        std::fs::write(&file, rotten).unwrap();
        assert!(c.get(CacheKey(2), "f0").is_none());
        assert_eq!(reg.snapshot().counter("serve.cache.quarantined"), 1);
        assert_eq!(c.len(), 2);
        assert_exact(&c, &root, &reg);
        // An object read as an entry does not identify as one: it is
        // quarantined the same way.
        assert!(c.get_entry(CacheKey(1)).is_none());
        assert_eq!(reg.snapshot().counter("serve.cache.quarantined"), 2);
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
