//! The compiled-artifact cache: LRU in memory, versioned codec on disk.
//!
//! A serving daemon compiles each model family once and then answers
//! requests out of the cached artifact; compilation only re-runs when a
//! client asks for a `(family, CompileConfig)` pair the cache has never
//! seen (or that LRU eviction pushed out). The cache key is
//! [`distill::artifact_key`] — family name plus every compile knob — so two
//! clients that want the same family at different opt levels or seeds get
//! distinct artifacts rather than silently sharing one.
//!
//! With a disk directory configured, every compiled artifact is also
//! persisted with the versioned codec from [`distill::artifact`]. A miss
//! first tries the disk copy: a load succeeds only when the bytes carry the
//! current [`distill::ARTIFACT_VERSION`] *and* the stored
//! [`CompileConfig`] equals the requested one (the key encodes the config,
//! but the config check keeps a renamed or hand-copied file from smuggling
//! in a mismatched artifact). Stale-version files are recompiled and
//! overwritten in place, which is how a daemon upgrades its artifact
//! directory across codec revisions without an explicit migration step.

use std::path::PathBuf;
use std::sync::Arc;

use distill::{artifact_key, compile, read_artifact, write_artifact, ArtifactError, Composition};
use distill_codegen::{CompileConfig, CompiledModel};

use crate::ServeError;

/// Hit/miss/eviction counters for an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that had to compile or load from disk.
    pub misses: u64,
    /// Artifacts evicted by the LRU policy.
    pub evictions: u64,
    /// Misses answered by a valid on-disk artifact instead of a compile.
    pub disk_hits: u64,
    /// On-disk artifacts rejected for carrying a stale codec version (each
    /// one is recompiled and the file overwritten).
    pub disk_stale: u64,
}

/// In-memory LRU cache of compiled artifacts, optionally backed by an
/// artifact directory on disk.
///
/// Entries are `Arc`'d so the server's lanes (and any number of in-flight
/// spans) keep using an artifact after the cache evicts it; eviction only
/// drops the cache's own reference. Disk copies are never deleted by
/// eviction — they are the warm-restart story, not part of the LRU budget.
#[derive(Debug)]
pub struct ArtifactCache {
    capacity: usize,
    disk_dir: Option<PathBuf>,
    /// Front = most recently used.
    entries: Vec<(String, Arc<CompiledModel>)>,
    stats: CacheStats,
}

impl ArtifactCache {
    /// A memory-only cache holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            capacity: capacity.max(1),
            disk_dir: None,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// A cache that also persists artifacts under `dir` (created on first
    /// write) and serves misses from valid on-disk copies.
    pub fn with_disk(capacity: usize, dir: PathBuf) -> ArtifactCache {
        ArtifactCache {
            disk_dir: Some(dir),
            ..ArtifactCache::new(capacity)
        }
    }

    /// Number of artifacts currently held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cache keys from most to least recently used (test/introspection aid).
    pub fn keys(&self) -> Vec<String> {
        self.entries.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Fetch the artifact for `(family, config)`, compiling `model` on a
    /// cold miss. `model` must be the family's composition; the cache trusts
    /// the caller on that pairing (the server resolves both from the
    /// registry).
    ///
    /// # Errors
    /// [`ServeError::Build`] when compilation fails.
    pub fn get_or_compile(
        &mut self,
        family: &str,
        model: &Composition,
        config: CompileConfig,
    ) -> Result<Arc<CompiledModel>, ServeError> {
        let before = self.stats;
        let result = self.get_or_compile_inner(family, model, config);
        if distill_telemetry::enabled() {
            // Mirror this lookup's counter deltas into the global registry,
            // so a live telemetry snapshot agrees with `CacheStats`.
            let p = crate::probes::cache_probes();
            p.hits.add(self.stats.hits - before.hits);
            p.misses.add(self.stats.misses - before.misses);
            p.evictions.add(self.stats.evictions - before.evictions);
            p.disk_hits.add(self.stats.disk_hits - before.disk_hits);
            p.disk_stale.add(self.stats.disk_stale - before.disk_stale);
        }
        result
    }

    fn get_or_compile_inner(
        &mut self,
        family: &str,
        model: &Composition,
        config: CompileConfig,
    ) -> Result<Arc<CompiledModel>, ServeError> {
        let key = artifact_key(family, &config);
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.stats.hits += 1;
            let entry = self.entries.remove(pos);
            let artifact = entry.1.clone();
            self.entries.insert(0, entry);
            return Ok(artifact);
        }
        self.stats.misses += 1;

        let path = self
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.dstl")));
        let mut refresh_disk = path.is_some();
        let mut loaded = None;
        if let Some(path) = &path {
            match read_artifact(path) {
                Ok(compiled) if compiled.config == config => {
                    self.stats.disk_hits += 1;
                    refresh_disk = false;
                    loaded = Some(compiled);
                }
                // A file that exists but cannot be used — stale codec
                // version, bad magic, truncated or bit-flipped bytes — is a
                // counted miss: the family recompiles and the entry is
                // overwritten in place, same as a codec upgrade.
                Err(
                    ArtifactError::StaleVersion { .. }
                    | ArtifactError::BadMagic
                    | ArtifactError::Corrupt(_),
                ) => self.stats.disk_stale += 1,
                // Missing/unreadable file or a config mismatch under a
                // forged key: fall through to a fresh compile, uncounted.
                Ok(_) | Err(ArtifactError::Io(_)) => {}
            }
        }
        let compiled = match loaded {
            Some(compiled) => compiled,
            None => {
                // Chaos seam: an armed build-panic fires here, before any
                // state is touched — a mid-build panic must leave no
                // half-inserted entry (the insert below only runs after a
                // successful compile).
                distill::chaos::check_panic_build(family);
                compile(model, config).map_err(|e| ServeError::Build(e.to_string()))?
            }
        };
        if refresh_disk {
            if let (Some(dir), Some(path)) = (&self.disk_dir, &path) {
                // Best-effort: a read-only artifact directory degrades the
                // warm-restart path, not request serving.
                let _ = std::fs::create_dir_all(dir);
                let _ = write_artifact(path, &compiled);
            }
        }

        let artifact = Arc::new(compiled);
        self.entries.insert(0, (key, artifact.clone()));
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.stats.evictions += 1;
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill::OptLevel;

    fn family() -> (&'static str, Composition) {
        let spec = distill_models::by_name("necker_cube_3").unwrap();
        (
            "necker_cube_3",
            spec.build(distill_models::Scale::Reduced).model,
        )
    }

    fn config(opt: OptLevel) -> CompileConfig {
        CompileConfig {
            opt_level: opt,
            ..CompileConfig::default()
        }
    }

    #[test]
    fn hits_misses_and_mru_order() {
        let (name, model) = family();
        let mut cache = ArtifactCache::new(4);
        let a = cache
            .get_or_compile(name, &model, config(OptLevel::O0))
            .unwrap();
        let b = cache
            .get_or_compile(name, &model, config(OptLevel::O2))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);

        // A repeat lookup hits, returns the same Arc and moves to the front.
        let a2 = cache
            .get_or_compile(name, &model, config(OptLevel::O0))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        let keys = cache.keys();
        assert_eq!(keys.len(), 2);
        assert!(keys[0].contains("O0") && keys[1].contains("O2"));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (name, model) = family();
        let mut cache = ArtifactCache::new(2);
        cache
            .get_or_compile(name, &model, config(OptLevel::O0))
            .unwrap();
        cache
            .get_or_compile(name, &model, config(OptLevel::O1))
            .unwrap();
        // Touch O0 so O1 becomes the LRU entry, then insert a third config.
        cache
            .get_or_compile(name, &model, config(OptLevel::O0))
            .unwrap();
        cache
            .get_or_compile(name, &model, config(OptLevel::O2))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let keys = cache.keys();
        assert!(keys[0].contains("O2") && keys[1].contains("O0"), "{keys:?}");
        // The evicted config is a miss again.
        cache
            .get_or_compile(name, &model, config(OptLevel::O1))
            .unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn disk_round_trip_and_stale_rejection() {
        let (name, model) = family();
        let dir = std::env::temp_dir().join(format!(
            "distill-serve-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let cfg = config(OptLevel::O1);
        let key = artifact_key(name, &cfg);
        let path = dir.join(format!("{key}.dstl"));
        {
            let mut cache = ArtifactCache::with_disk(2, dir.clone());
            cache.get_or_compile(name, &model, cfg).unwrap();
            assert!(path.is_file(), "artifact persisted to {path:?}");
        }
        // A fresh cache (a restarted daemon) loads the disk copy: a miss in
        // memory, answered without recompiling.
        {
            let mut cache = ArtifactCache::with_disk(2, dir.clone());
            let loaded = cache.get_or_compile(name, &model, cfg).unwrap();
            assert_eq!(cache.stats().misses, 1);
            assert_eq!(cache.stats().disk_hits, 1);
            assert_eq!(loaded.config, cfg);
        }
        // Corrupt the version field: the reload is rejected as stale, the
        // family recompiles and the file is rewritten at the current version.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = bytes[8].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        {
            let mut cache = ArtifactCache::with_disk(2, dir.clone());
            cache.get_or_compile(name, &model, cfg).unwrap();
            assert_eq!(cache.stats().disk_hits, 0);
            assert_eq!(cache.stats().disk_stale, 1);
        }
        assert!(
            distill::read_artifact(&path).is_ok(),
            "stale file rewritten"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_counted_misses_and_overwritten() {
        let (name, model) = family();
        let dir = std::env::temp_dir().join(format!(
            "distill-serve-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let cfg = config(OptLevel::O1);
        let path = dir.join(format!("{}.dstl", artifact_key(name, &cfg)));
        ArtifactCache::with_disk(2, dir.clone())
            .get_or_compile(name, &model, cfg)
            .unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Bit-flip the first payload byte, the compile-mode tag (past
        // magic+version, so it is a payload corruption, not a version
        // skew), and truncate — each must be a counted disk_stale miss that
        // recompiles and overwrites in place. The codec has no checksum, so
        // a flip inside a constant's bits would decode; the tag flip cannot.
        let mut flipped = clean.clone();
        flipped[distill::artifact::ARTIFACT_MAGIC.len() + 4] ^= 0x20;
        let truncated = clean[..clean.len() / 3].to_vec();
        for (label, bad) in [("bit-flipped", flipped), ("truncated", truncated)] {
            std::fs::write(&path, &bad).unwrap();
            let mut cache = ArtifactCache::with_disk(2, dir.clone());
            let artifact = cache.get_or_compile(name, &model, cfg).unwrap();
            assert_eq!(artifact.config, cfg, "{label}");
            assert_eq!(
                cache.stats().disk_hits,
                0,
                "{label}: corrupt file must not hit"
            );
            assert_eq!(
                cache.stats().disk_stale,
                1,
                "{label}: counted as disk_stale"
            );
            // Overwritten: a fresh cache now disk-hits again.
            let mut fresh = ArtifactCache::with_disk(2, dir.clone());
            fresh.get_or_compile(name, &model, cfg).unwrap();
            assert_eq!(fresh.stats().disk_hits, 1, "{label}: file was rewritten");
        }

        // A missing file stays an uncounted plain miss.
        std::fs::remove_file(&path).unwrap();
        let mut cache = ArtifactCache::with_disk(2, dir.clone());
        cache.get_or_compile(name, &model, cfg).unwrap();
        assert_eq!(cache.stats().disk_stale, 0);
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
