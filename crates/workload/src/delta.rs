//! Two-revision workloads with differential ground truth.
//!
//! The delta scanner's contract is about finding *lifecycles*, so its
//! evaluation workload is a pair of revisions with a known split: some bugs
//! persist (only drifting down the file as lines are inserted above them),
//! some are fixed, and some are introduced. Every planted bug is a
//! library-retval pattern with a uniquely named callee, which keeps it
//! cross-scope even in a single-author history (a library callee has no
//! project author) and keeps it clear of peer-definition pruning (one call
//! site per callee, far below the ≥10 threshold).

use vc_obs::SplitMix64;
use vc_vcs::{
    CommitId,
    FileWrite,
    Repository, //
};

/// Shape of a generated delta workload.
#[derive(Clone, Debug)]
pub struct DeltaProfile {
    /// PRNG seed; same seed, same workload.
    pub seed: u64,
    /// Bugs present in both revisions.
    pub persisting: usize,
    /// Bugs present only in the old revision (fixed by the new one).
    pub fixed: usize,
    /// Bugs present only in the new revision.
    pub new: usize,
    /// Source files the functions are spread across.
    pub files: usize,
    /// Padding declarations inserted at the top of every file in the new
    /// revision — the pure line drift the fingerprints must survive.
    pub drift_lines: usize,
}

impl Default for DeltaProfile {
    fn default() -> Self {
        DeltaProfile {
            seed: 1,
            persisting: 4,
            fixed: 2,
            new: 2,
            files: 2,
            drift_lines: 6,
        }
    }
}

/// A generated two-revision workload plus its ground truth (function names
/// per expected classification).
#[derive(Clone, Debug)]
pub struct DeltaWorkload {
    /// The two-commit history.
    pub repo: Repository,
    /// The old revision.
    pub from: CommitId,
    /// The new revision.
    pub to: CommitId,
    /// Functions whose bug exists in both revisions.
    pub expected_persisting: Vec<String>,
    /// Functions whose bug exists only in the old revision.
    pub expected_fixed: Vec<String>,
    /// Functions whose bug exists only in the new revision.
    pub expected_new: Vec<String>,
}

/// One planted library-retval bug: `ret` is assigned from a library call,
/// then overwritten before any read — the Fig. 8 acl pattern.
pub(crate) fn buggy_fn(name: &str) -> String {
    format!(
        "int get_{name}(void);\nint calc_{name}(void);\nint {name}(void) {{\nint ret = \
         get_{name}();\nret = calc_{name}();\nif (ret) {{ sink_{name}(ret); }}\nreturn 0;\n}}\n"
    )
}

/// The fixed form: the first definition is read before being replaced.
pub(crate) fn fixed_fn(name: &str) -> String {
    format!(
        "int get_{name}(void);\nint calc_{name}(void);\nint {name}(void) {{\nint ret = \
         get_{name}();\nlog_{name}(ret);\nret = calc_{name}();\nif (ret) {{ sink_{name}(ret); \
         }}\nreturn 0;\n}}\n"
    )
}

/// Generates the two-revision workload for `profile`.
pub fn generate_delta(profile: &DeltaProfile) -> DeltaWorkload {
    let mut rng = SplitMix64::new(profile.seed ^ 0xDE17A);
    let files = profile.files.max(1);

    // Name and place every function: (name, file index, kind).
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Persisting,
        Fixed,
        New,
    }
    let mut plan: Vec<(String, usize, Kind)> = Vec::new();
    for i in 0..profile.persisting {
        let tag = rng.next_u64() & 0xFFFF;
        plan.push((
            format!("keep_{i}_{tag:04x}"),
            rng.range_usize(0, files),
            Kind::Persisting,
        ));
    }
    for i in 0..profile.fixed {
        let tag = rng.next_u64() & 0xFFFF;
        plan.push((
            format!("gone_{i}_{tag:04x}"),
            rng.range_usize(0, files),
            Kind::Fixed,
        ));
    }
    for i in 0..profile.new {
        let tag = rng.next_u64() & 0xFFFF;
        plan.push((
            format!("fresh_{i}_{tag:04x}"),
            rng.range_usize(0, files),
            Kind::New,
        ));
    }
    rng.shuffle(&mut plan);

    // Old revision: persisting + to-be-fixed bugs, in plan order.
    let mut old_files = vec![String::new(); files];
    for (name, file, kind) in &plan {
        match kind {
            Kind::Persisting | Kind::Fixed => old_files[*file].push_str(&buggy_fn(name)),
            Kind::New => {}
        }
    }
    // New revision: drift padding on top, fixes applied, new bugs appended.
    let mut new_files = vec![String::new(); files];
    for (fi, content) in new_files.iter_mut().enumerate() {
        for p in 0..profile.drift_lines {
            content.push_str(&format!("int pad_f{fi}_{p}(void);\n"));
        }
    }
    for (name, file, kind) in &plan {
        match kind {
            Kind::Persisting => new_files[*file].push_str(&buggy_fn(name)),
            Kind::Fixed => new_files[*file].push_str(&fixed_fn(name)),
            Kind::New => {}
        }
    }
    for (name, file, kind) in &plan {
        if *kind == Kind::New {
            new_files[*file].push_str(&buggy_fn(name));
        }
    }

    let mut repo = Repository::new();
    let dev = repo.add_author("dev");
    let writes = |contents: &[String]| -> Vec<FileWrite> {
        contents
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(i, c)| FileWrite {
                path: format!("mod_{i}.c"),
                content: c.clone(),
            })
            .collect()
    };
    let from = repo.commit(dev, 1_000, "initial tree", writes(&old_files));
    let to = repo.commit(dev, 2_000, "pad, fix, and extend", writes(&new_files));

    let names = |kind: Kind| -> Vec<String> {
        let mut v: Vec<String> = plan
            .iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(n, _, _)| n.clone())
            .collect();
        v.sort();
        v
    };
    DeltaWorkload {
        repo,
        from,
        to,
        expected_persisting: names(Kind::Persisting),
        expected_fixed: names(Kind::Fixed),
        expected_new: names(Kind::New),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_delta(&DeltaProfile::default());
        let b = generate_delta(&DeltaProfile::default());
        assert_eq!(a.expected_persisting, b.expected_persisting);
        assert_eq!(a.expected_fixed, b.expected_fixed);
        assert_eq!(a.expected_new, b.expected_new);
        assert_eq!(
            a.repo.snapshot_at(a.to),
            b.repo.snapshot_at(b.to),
            "same seed, same tree"
        );
    }

    #[test]
    fn revisions_differ_only_as_planned() {
        let w = generate_delta(&DeltaProfile::default());
        let old = w.repo.snapshot_at(w.from);
        let new = w.repo.snapshot_at(w.to);
        for name in &w.expected_persisting {
            let in_old = old
                .values()
                .any(|c| c.contains(&format!("int {name}(void)")));
            let in_new = new
                .values()
                .any(|c| c.contains(&format!("int {name}(void)")));
            assert!(in_old && in_new, "{name} must exist in both revisions");
        }
        for name in &w.expected_new {
            assert!(
                !old.values().any(|c| c.contains(name.as_str())),
                "{name} must not exist in the old revision"
            );
        }
        // Drift is real: every carried-over file grew at the top.
        for (path, content) in &old {
            let new_content = &new[path];
            assert!(new_content.starts_with("int pad_"), "{path} must be padded");
            assert!(new_content.len() > content.len());
        }
    }
}
