//! The one on-disk store format, and the snapshot store.
//!
//! ValueCheck persists three kinds of state between runs: the snapshot
//! store ([`SnapshotStore`], serve's shutdown flush and `vcheck delta
//! --baseline`), the suppression store
//! ([`SuppressStore`](crate::suppress::SuppressStore)) and the findings
//! database ([`LifeDb`](crate::lifedb::LifeDb)). All three share one file
//! format; each store only encodes and decodes its own records:
//!
//! ```text
//! <magic> v<N>
//! <kind> <field>\t<field>\t...
//! checksum <hex16>
//! ```
//!
//! - a header naming the store and its format version — a file of another
//!   version is a cold start, never parsed across versions;
//! - one record per line, fields separated by tabs;
//! - a trailing FNV-1a `checksum` of everything above it.
//!
//! The files are written by tools that may be killed mid-write and read by
//! newer binaries with another format, so a save is atomic (temp file in
//! the same directory + fsync + rename + directory fsync: a concurrent
//! reader sees the old file or the new one, never a torn mix) and removes
//! its temp file on any failure, counting `harden.snapshot_save_failed`;
//! and a load never fails: a missing file is a silent cold start, a
//! checksum mismatch degrades to an empty store under the store's
//! `corrupt` counter, and a truncated, malformed or version-mismatched file
//! under its `recovered` counter.

use std::{
    collections::HashSet,
    io::Write as _,
    path::Path, //
};

use vc_obs::hash::{
    fnv1a_bytes,
    FNV_SEED, //
};
use vc_vcs::CommitId;

use crate::delta::{
    Finding,
    Fingerprint, //
};

/// The `(corrupt, recovered)` counter pair a store's load defects go to.
pub(crate) type LoadCounters = (&'static str, &'static str);

/// The snapshot store's (and the findings database's) load counters.
pub(crate) const SNAPSHOT_COUNTERS: LoadCounters = (
    vc_obs::names::HARDEN_SNAPSHOT_CORRUPT,
    vc_obs::names::HARDEN_SNAPSHOT_RECOVERED,
);

/// FNV-1a over a text blob — the checksum of every store file.
pub(crate) fn content_hash(text: &str) -> u64 {
    fnv1a_bytes(FNV_SEED, text.as_bytes())
}

/// A store file's full text: the `<magic> v<version>` header, the lines
/// `records` appends, and the checksum line.
pub(crate) fn encode(magic: &str, version: u32, records: impl FnOnce(&mut String)) -> String {
    let mut out = format!("{magic} v{version}\n");
    records(&mut out);
    out.push_str(&format!("checksum {:016x}\n", content_hash(&out)));
    out
}

/// Writes `text` to `path` **atomically**: to a temp file in the same
/// directory, fsynced, then renamed over `path`, and the directory fsynced
/// (best-effort: not every platform can). Any failure removes the temp
/// file — a long-lived daemon saves on every shutdown and would otherwise
/// accumulate orphans — and counts `harden.snapshot_save_failed`.
pub(crate) fn save(path: &Path, text: &str) -> std::io::Result<()> {
    let Some(file_name) = path.file_name() else {
        vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_SAVE_FAILED);
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no file name",
        ));
    };
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_and_rename = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write_and_rename() {
        let _ = std::fs::remove_file(&tmp);
        vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_SAVE_FAILED);
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads a store file. **Never fails**: a missing file is an empty store;
/// a checksum mismatch is an empty store counted under `corrupt`; a file
/// without a checksum line, with another header or version, or with a
/// record `record` rejects is an empty store counted under `recovered`.
/// `record` decodes one non-empty record line into the store.
pub(crate) fn load<T: Default>(
    path: &Path,
    magic: &str,
    version: u32,
    (corrupt, recovered): LoadCounters,
    record: impl FnMut(&mut T, &str) -> Option<()>,
) -> T {
    let Ok(text) = std::fs::read_to_string(path) else {
        return T::default();
    };
    let Some((body, sum)) = split_checksum(&text) else {
        // No checksum line: an older format or a file truncated mid-write.
        vc_obs::counter_inc(recovered);
        return T::default();
    };
    if content_hash(body) != sum {
        vc_obs::counter_inc(corrupt);
        return T::default();
    }
    decode(body, magic, version, record).unwrap_or_else(|| {
        vc_obs::counter_inc(recovered);
        T::default()
    })
}

/// Splits a store file into (body, trailing checksum). `None` when the
/// last line is not a well-formed `checksum <hex16>` record.
fn split_checksum(text: &str) -> Option<(&str, u64)> {
    let trimmed = text.strip_suffix('\n')?;
    let body_end = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let sum = u64::from_str_radix(trimmed[body_end..].strip_prefix("checksum ")?, 16).ok()?;
    Some((&text[..body_end], sum))
}

fn decode<T: Default>(
    body: &str,
    magic: &str,
    version: u32,
    mut record: impl FnMut(&mut T, &str) -> Option<()>,
) -> Option<T> {
    let mut lines = body.lines();
    let found = lines.next()?.strip_prefix(magic)?.strip_prefix(" v")?;
    if found.parse::<u32>().ok()? != version {
        return None;
    }
    let mut store = T::default();
    for line in lines.filter(|l| !l.is_empty()) {
        record(&mut store, line)?;
    }
    Some(store)
}

/// The tab-separated fields of a record; `None` unless there are exactly
/// `N` of them.
pub(crate) fn fields<const N: usize>(record: &str) -> Option<[&str; N]> {
    record.split('\t').collect::<Vec<_>>().try_into().ok()
}

/// On-disk format version of [`SnapshotStore`]. Bumped whenever the line
/// format changes; older files are treated as cold caches, never parsed
/// across versions. v2 added the trailing `checksum` line; v3 added the
/// file, scenario, and drift-stable fingerprint fields (so a store doubles
/// as a `vcheck delta --baseline` suppression set).
pub const SNAPSHOT_FILE_VERSION: u32 = 3;

const SNAPSHOT_MAGIC: &str = "valuecheck-snapshot";

/// Findings persisted between runs: serve's shutdown flush and `vcheck
/// delta`'s baselines. Its records, in the store format above:
///
/// ```text
/// valuecheck-snapshot v3
/// commit 42
/// finding <function>\t<variable>\t<line>\t<file>\t<scenario>\t<fp-hex16>
/// checksum <hex16>
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStore {
    /// The commit the stored findings belong to, when known.
    pub commit: Option<CommitId>,
    /// The findings of the stored run: the identity triple plus the
    /// coordinates the differential scanner needs (file, scenario, and the
    /// drift-stable [`Fingerprint`]), enough to diff runs without
    /// re-ranking.
    pub findings: Vec<Finding>,
}

impl SnapshotStore {
    /// Loads a store from disk. **Never fails**: a missing file is a cold
    /// start; a checksum mismatch degrades to an empty store under
    /// `harden.snapshot_corrupt`, any other defect under
    /// `harden.snapshot_recovered`.
    pub fn load(path: &Path) -> SnapshotStore {
        load(
            path,
            SNAPSHOT_MAGIC,
            SNAPSHOT_FILE_VERSION,
            SNAPSHOT_COUNTERS,
            |store: &mut SnapshotStore, rec| {
                if let Some(c) = rec.strip_prefix("commit ") {
                    store.commit = Some(CommitId(c.parse().ok()?));
                    return Some(());
                }
                let [function, variable, line, file, scenario, fingerprint] =
                    fields(rec.strip_prefix("finding ")?)?;
                store.findings.push(Finding {
                    function: function.to_string(),
                    variable: variable.to_string(),
                    line: line.parse().ok()?,
                    file: file.to_string(),
                    scenario: scenario.to_string(),
                    fingerprint: Fingerprint::parse_hex(fingerprint)?,
                });
                Some(())
            },
        )
    }

    /// Writes the store atomically (temp file + fsync + rename), as every
    /// store in this module's format is written.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let text = encode(SNAPSHOT_MAGIC, SNAPSHOT_FILE_VERSION, |out| {
            if let Some(c) = self.commit {
                out.push_str(&format!("commit {}\n", c.0));
            }
            for f in &self.findings {
                out.push_str(&format!(
                    "finding {}\t{}\t{}\t{}\t{}\t{:016x}\n",
                    f.function, f.variable, f.line, f.file, f.scenario, f.fingerprint.0
                ));
            }
        });
        save(path, &text)
    }

    /// The stored fingerprints as a suppression set (`vcheck delta
    /// --baseline`).
    pub fn fingerprint_set(&self) -> HashSet<u64> {
        self.findings.iter().map(|f| f.fingerprint.0).collect()
    }

    /// Builds a store directly from fingerprinted findings (`vcheck delta
    /// --write-baseline` records the new-revision scan this way).
    pub fn from_findings(commit: CommitId, findings: &[Finding]) -> SnapshotStore {
        SnapshotStore {
            commit: Some(commit),
            findings: findings.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        lifedb::LifeDb,
        suppress::SuppressStore, //
    };
    use vc_obs::{
        names,
        ObsSession, //
    };

    /// One store under test: a sample file body (header and records, no
    /// checksum line), the counters its load defects must land in, and
    /// two operations through the store's own type.
    struct Store {
        body: &'static str,
        counters: LoadCounters,
        /// Whether loading the file comes back empty.
        loads_empty: fn(&Path) -> bool,
        /// Loads the first file and saves what it loaded to the second.
        resave: fn(&Path, &Path) -> std::io::Result<()>,
    }

    const STORES: [Store; 3] = [
        Store {
            body:
                "valuecheck-snapshot v3\ncommit 7\nfinding f\tx\t3\ta.c\tretval\tdeadbeef01234567\n",
            counters: SNAPSHOT_COUNTERS,
            loads_empty: |p| SnapshotStore::load(p) == SnapshotStore::default(),
            resave: |from, to| SnapshotStore::load(from).save(to),
        },
        Store {
            body: "vcheck-suppress v1\nallow 000000000000abcd\ta.c\t7\tretval\tvetted\n",
            counters: (
                names::SUPPRESS_STORE_CORRUPT,
                names::SUPPRESS_STORE_RECOVERED,
            ),
            loads_empty: |p| SuppressStore::load(p) == SuppressStore::default(),
            resave: |from, to| SuppressStore::load(from).save(to),
        },
        Store {
            body: "vcheck-lifedb v1\nevent 1\t0000000000000011\t0000000000000011\tborn\ta.c\t4\tf\
                   \tret\tretval\nagg 1\t2\t1\tcursor=1\t1\n",
            counters: SNAPSHOT_COUNTERS,
            loads_empty: |p| LifeDb::load(p) == LifeDb::default(),
            resave: |from, to| LifeDb::load(from).save(to),
        },
    ];

    fn sealed(body: &str) -> String {
        format!("{body}checksum {:016x}\n", content_hash(body))
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vc-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Entries of `dir` other than the store files the test wrote.
    fn debris(dir: &Path) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "sample" && n != "store")
            .collect()
    }

    #[test]
    fn every_store_degrades_the_same_way_on_every_defect() {
        for (i, store) in STORES.iter().enumerate() {
            let (corrupt, recovered) = store.counters;
            let (header, records) = store.body.split_once('\n').unwrap();
            let (magic, version) = header.rsplit_once(" v").unwrap();
            let version: u32 = version.parse().unwrap();
            let dir = scratch_dir(magic);
            let (sample, path) = (dir.join("sample"), dir.join("store"));

            // A clean load and save reproduce the file byte for byte, twice
            // over the same path, and leave no temp file behind.
            std::fs::write(&sample, sealed(store.body)).unwrap();
            assert!(!(store.loads_empty)(&sample), "store {i}: sample loads");
            for _ in 0..2 {
                (store.resave)(&sample, &path).unwrap();
                assert_eq!(
                    std::fs::read_to_string(&path).unwrap(),
                    sealed(store.body),
                    "store {i}: saved bytes"
                );
            }
            assert!(debris(&dir).is_empty(), "store {i}: temp file left");

            let mut flipped = store.body.as_bytes().to_vec();
            flipped[header.len() + 3] ^= 1;
            let flipped = String::from_utf8(flipped).unwrap();
            let reversioned = |v| encode(magic, v, |out| out.push_str(records));
            let cases = [
                // Killed mid-write, before the checksum line.
                (
                    "truncated",
                    store.body[..store.body.len() - 4].to_string(),
                    Some(recovered),
                ),
                // One content byte flipped under the original checksum.
                (
                    "flipped byte",
                    flipped + &sealed(store.body)[store.body.len()..],
                    Some(corrupt),
                ),
                // Valid checksums: the version gate alone must reject.
                ("older version", reversioned(version - 1), Some(recovered)),
                ("newer version", reversioned(999), Some(recovered)),
            ];
            for (case, text, counted) in cases {
                std::fs::write(&path, text).unwrap();
                let obs = ObsSession::new();
                let empty = {
                    let _g = obs.install();
                    (store.loads_empty)(&path)
                };
                assert!(empty, "store {i} {case}: loads empty");
                for name in [corrupt, recovered] {
                    let want = u64::from(Some(name) == counted);
                    assert_eq!(obs.registry.counter(name), want, "store {i} {case}: {name}");
                }
            }

            // A missing file is a silent cold start.
            std::fs::remove_file(&path).unwrap();
            let obs = ObsSession::new();
            let empty = {
                let _g = obs.install();
                (store.loads_empty)(&path)
            };
            assert!(empty, "store {i} missing: loads empty");
            assert!(
                obs.registry.snapshot().counters.is_empty(),
                "store {i} missing: counted nothing"
            );

            // The rename over a non-empty directory fails after the temp
            // file was written: the save errs, counts, and cleans up.
            std::fs::create_dir_all(path.join("occupied")).unwrap();
            let obs = ObsSession::new();
            let result = {
                let _g = obs.install();
                (store.resave)(&sample, &path)
            };
            assert!(result.is_err(), "store {i}: rename must fail");
            assert_eq!(
                obs.registry.counter(names::HARDEN_SNAPSHOT_SAVE_FAILED),
                1,
                "store {i}: save failure counted"
            );
            assert!(debris(&dir).is_empty(), "store {i}: temp file left");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn snapshot_store_roundtrips() {
        let dir = scratch_dir("snapshot-roundtrip");
        let path = dir.join("store");
        let store = SnapshotStore {
            commit: Some(CommitId(7)),
            findings: vec![Finding {
                function: "f".into(),
                variable: "x".into(),
                line: 3,
                file: "a.c".into(),
                scenario: "retval".into(),
                fingerprint: Fingerprint(0xDEAD_BEEF_0123_4567),
            }],
        };
        store.save(&path).unwrap();
        assert_eq!(SnapshotStore::load(&path), store);
        assert_eq!(store.fingerprint_set().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
