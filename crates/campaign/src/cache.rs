//! Content-addressed on-disk result cache.
//!
//! Entries live under a cache directory (default
//! `target/campaign-cache/`), one file per run, addressed by the run's
//! 128-bit content key (see [`crate::run::RunSpec::key`]): path
//! `<dir>/<first two hex digits>/<32-hex-digit key>.json`. An entry is
//! two lines:
//!
//! ```text
//! {"schema":"amo-cache-v1","key":"<hex>","len":N,"checksum":"<hex>"}
//! <amo-run-artifacts-v1 payload>
//! ```
//!
//! The header pins the payload's byte length and its FNV-1a-128
//! checksum, so a truncated, bit-flipped, or hand-edited entry is
//! detected on read and treated as a miss — the run recomputes and the
//! entry is rewritten. Stale entries never need detection: any change
//! to the run's inputs (config, seeds, workload parameters, code
//! fingerprint) changes the key, so stale results are simply never
//! addressed again. Writes go through a temp file + rename, so a
//! crashed campaign cannot leave a half-written entry under a live key.

use crate::run::{outcome_from_json, outcome_to_json, RunArtifacts};
use amo_types::jsonv::Json;
use amo_types::seed::{key_hex, stable_hash128};
use amo_types::JsonWriter;
use std::path::{Path, PathBuf};

/// Schema tag of the entry header line.
pub(crate) const CACHE_SCHEMA: &str = "amo-cache-v1";

/// A handle on one on-disk cache directory.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Cache rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The conventional location: `target/campaign-cache` under the
    /// current directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target").join("campaign-cache")
    }

    /// Root directory of this cache.
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: (u64, u64)) -> PathBuf {
        let hex = key_hex(key);
        self.dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Look up `key`. Returns the cached outcome if the entry exists and
    /// passes verification; any defect (unreadable, malformed header,
    /// key/length/checksum mismatch, undecodable payload) is a miss.
    pub fn get(&self, key: (u64, u64)) -> Option<Result<RunArtifacts, String>> {
        outcome_from_json(&read_entry(&self.entry_path(key), key)?).ok()
    }

    /// Store `outcome` under `key`, atomically (temp file + rename).
    /// I/O failures are reported, not fatal: a read-only cache directory
    /// degrades a campaign to cold runs, it does not kill it.
    pub fn put(
        &self,
        key: (u64, u64),
        outcome: &Result<RunArtifacts, String>,
    ) -> Result<(), String> {
        write_entry(&self.entry_path(key), key, &outcome_to_json(outcome))
    }

    /// Path of the derived-artifact blob of `kind` for `key`:
    /// `<dir>/<kind>/<first two hex digits>/<hex key>.json`.
    pub(crate) fn blob_path(&self, kind: &str, key: (u64, u64)) -> PathBuf {
        let hex = key_hex(key);
        self.dir
            .join(kind)
            .join(&hex[..2])
            .join(format!("{hex}.json"))
    }

    /// Look up a derived-artifact blob (e.g. a verification-matrix cell
    /// summary) stored under `kind`/`key`. Entries use the same
    /// header-plus-checksum envelope as run outcomes, so corruption is a
    /// miss here too.
    pub fn get_blob(&self, kind: &str, key: (u64, u64)) -> Option<String> {
        read_entry(&self.blob_path(kind, key), key)
    }

    /// Store a derived-artifact blob under `kind`/`key`, atomically.
    pub fn put_blob(&self, kind: &str, key: (u64, u64), payload: &str) -> Result<(), String> {
        write_entry(&self.blob_path(kind, key), key, payload)
    }
}

/// Read one cache entry and return its payload if the header's schema,
/// key, length and checksum all verify.
fn read_entry(path: &Path, key: (u64, u64)) -> Option<String> {
    let mut raw = std::fs::read_to_string(path).ok()?;
    let (header, payload) = raw.split_once('\n')?;
    let payload = payload.strip_suffix('\n').unwrap_or(payload);
    let h = Json::parse(header).ok()?;
    if h.get("schema")?.as_str()? != CACHE_SCHEMA {
        return None;
    }
    if h.get("key")?.as_str()? != key_hex(key) {
        return None;
    }
    if h.get("len")?.as_u64()? != payload.len() as u64 {
        return None;
    }
    if h.get("checksum")?.as_str()? != key_hex(stable_hash128(payload.as_bytes())) {
        return None;
    }
    // Keep the payload in the buffer the file was read into.
    let (start, len) = (header.len() + 1, payload.len());
    raw.truncate(start + len);
    raw.drain(..start);
    Some(raw)
}

/// Write one checksummed cache entry (header line + payload) via a temp
/// file and rename.
fn write_entry(path: &Path, key: (u64, u64), payload: &str) -> Result<(), String> {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", CACHE_SCHEMA);
    w.kv_str("key", &key_hex(key));
    w.kv_u64("len", payload.len() as u64);
    w.kv_str("checksum", &key_hex(stable_hash128(payload.as_bytes())));
    w.end_obj();
    let entry = format!("{}\n{payload}\n", w.finish());

    let parent = path.parent().expect("entry path has a parent");
    std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, &entry).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::Stats;

    fn art(v: f64) -> Result<RunArtifacts, String> {
        Ok(RunArtifacts {
            numbers: vec![("x".into(), v)],
            stats: Stats::new(),
        })
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("amo-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn put_then_get_round_trips() {
        let cache = ResultCache::new(tmpdir("roundtrip"));
        let key = (0x1234, 0xABCD);
        assert!(cache.get(key).is_none(), "cold cache misses");
        cache.put(key, &art(42.5)).unwrap();
        let got = cache.get(key).expect("hit").expect("ok");
        assert_eq!(got.numbers, [("x".to_string(), 42.5)]);
        // Error outcomes cache too (a known-bad cell must not re-simulate).
        let ekey = (0x9999, 0x1111);
        cache.put(ekey, &Err("boom".into())).unwrap();
        assert_eq!(cache.get(ekey).unwrap().unwrap_err(), "boom");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Entries written before the payload dropped the `derived` view
    /// still hit: they decode to the same artifacts, and re-encoding
    /// them gives the counters-only payload.
    #[test]
    fn entries_with_the_derived_view_still_hit() {
        use crate::run::RunSpec;
        use amo_sync::Mechanism;
        use amo_workloads::runner::BarrierBench;

        let outcome = RunSpec::Barrier(BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Amo, 4)
        })
        .execute();
        let stats = outcome.as_ref().expect("runs").stats.to_json();
        let payload = outcome_to_json(&outcome);
        assert!(!payload.contains(r#""derived""#), "{payload}");
        // The payload as earlier versions wrote it: the full report
        // document in place of the counters-only one.
        let at = payload.find(r#""stats":"#).unwrap() + r#""stats":"#.len();
        let old = format!("{}{stats}}}", &payload[..at]);
        assert!(old.contains(r#""derived":{"#));

        let cache = ResultCache::new(tmpdir("derived"));
        let key = (0xD1, 0xD2);
        write_entry(&cache.entry_path(key), key, &old).unwrap();
        let got = cache.get(key).expect("hit").expect("ok");
        let want = outcome.unwrap();
        assert_eq!(got.numbers, want.numbers);
        assert_eq!(got.stats.to_json(), stats);
        assert_eq!(outcome_to_json(&Ok(got)), payload);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_payload_is_a_miss() {
        let cache = ResultCache::new(tmpdir("corrupt"));
        let key = (7, 8);
        cache.put(key, &art(1.0)).unwrap();
        let path = cache.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte (past the header line).
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[nl + 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.get(key).is_none(), "flipped byte must fail checksum");
        // Recompute-and-rewrite restores the entry.
        cache.put(key, &art(1.0)).unwrap();
        assert!(cache.get(key).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn blobs_round_trip_and_detect_corruption() {
        let cache = ResultCache::new(tmpdir("blob"));
        let key = (0xAA, 0xBB);
        assert!(cache.get_blob("critpath", key).is_none(), "cold miss");
        cache
            .put_blob("critpath", key, r#"{"schema":"amo-critpath-v1"}"#)
            .unwrap();
        assert_eq!(
            cache.get_blob("critpath", key).as_deref(),
            Some(r#"{"schema":"amo-critpath-v1"}"#)
        );
        // Kinds are separate namespaces.
        assert!(cache.get_blob("other", key).is_none());
        // A flipped payload byte fails the checksum.
        let path = cache.blob_path("critpath", key);
        let mut bytes = std::fs::read(&path).unwrap();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[nl + 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.get_blob("critpath", key).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_and_mislabeled_entries_are_misses() {
        let cache = ResultCache::new(tmpdir("defects"));
        let key = (21, 22);
        cache.put(key, &art(3.0)).unwrap();
        let path = cache.entry_path(key);
        let full = std::fs::read_to_string(&path).unwrap();
        // Truncation.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(cache.get(key).is_none());
        // An entry stored under the wrong key (e.g. a renamed file).
        let other = (23, 24);
        std::fs::create_dir_all(cache.entry_path(other).parent().unwrap()).unwrap();
        std::fs::write(cache.entry_path(other), &full).unwrap();
        assert!(cache.get(other).is_none(), "embedded key must match path");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
