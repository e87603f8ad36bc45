//! Multi-commit workloads with lifecycle ground truth.
//!
//! The lifecycle observatory (`vcheck history`) follows findings across a
//! whole history, so its evaluation workload is an N-commit repository
//! where every planted bug has a scripted fate, known at generation time:
//!
//! - **live** — planted at the first commit, drifts down the file as pad
//!   declarations accumulate above it, still reported at head;
//! - **fixed** — planted at the first commit, repaired (the dead store
//!   gains a read) at the action commit;
//! - **suppressed** — planted at the first commit, triaged with a
//!   standalone `// vcheck:allow(retval)` annotation at the action
//!   commit, which rides every later revision;
//! - **churned** — planted at the top of its file, relocated wholesale to
//!   the bottom at the action commit (past the stable anchor functions),
//!   then live to head: same fingerprint, one `churned` event.
//!
//! Every bug is a library-retval pattern with a uniquely named callee
//! (cross-scope in a single-author history, immune to peer-definition
//! pruning), and every file carries two clean *anchor* functions so the
//! churn move always has a longer stable block for the LCS diff to hold
//! on to.

use vc_obs::SplitMix64;
use vc_vcs::{
    CommitId,
    FileWrite,
    Repository, //
};

use crate::delta::{
    buggy_fn,
    fixed_fn, //
};

/// Shape of a generated lifecycle workload.
#[derive(Clone, Debug)]
pub struct LifeProfile {
    /// PRNG seed; same seed, same workload.
    pub seed: u64,
    /// Total commits in the history (min 3: plant, action, at least one
    /// drift commit after).
    pub commits: usize,
    /// Bugs that survive to head unsuppressed (and un-churned).
    pub live: usize,
    /// Bugs fixed at the action commit.
    pub fixed: usize,
    /// Bugs annotated at the action commit (suppressed at head).
    pub suppressed: usize,
    /// Bugs relocated at the action commit (live at head, churn event).
    pub churned: usize,
    /// Source files the functions are spread across.
    pub files: usize,
    /// Pad declarations prepended to every file at each commit after the
    /// first — the cumulative drift the fingerprints must survive.
    pub drift_lines: usize,
}

impl Default for LifeProfile {
    fn default() -> Self {
        LifeProfile {
            seed: 1,
            commits: 5,
            live: 3,
            fixed: 2,
            suppressed: 2,
            churned: 1,
            files: 2,
            drift_lines: 4,
        }
    }
}

/// A generated N-commit workload plus its lifecycle ground truth
/// (function names per expected final state).
#[derive(Clone, Debug)]
pub struct LifeWorkload {
    /// The generated history.
    pub repo: Repository,
    /// Every commit, in order (`commits[0]` plants, the action commit
    /// fixes/annotates/relocates, the rest drift).
    pub commits: Vec<CommitId>,
    /// Index into `commits` of the action commit.
    pub action: usize,
    /// Functions live and unsuppressed at head (includes the churned
    /// ones — churn is a location event, not a terminal state).
    pub expected_live: Vec<String>,
    /// Functions fixed at the action commit.
    pub expected_fixed: Vec<String>,
    /// Functions suppressed at head.
    pub expected_suppressed: Vec<String>,
    /// Subset of `expected_live` that must carry a `churned` event.
    pub expected_churned: Vec<String>,
}

/// The same bug with a standalone suppression annotation covering the
/// dead definition line. The annotation is a comment: parsing, the
/// fingerprint, and the finding itself are unchanged — only reporting is.
fn annotated_fn(name: &str) -> String {
    buggy_fn(name).replace(
        &format!("int ret = get_{name}();"),
        &format!("// vcheck:allow(retval)\nint ret = get_{name}();"),
    )
}

/// A clean anchor function: no findings, just stable lines for the diff.
fn anchor_fn(name: &str) -> String {
    format!("int {name}(int v) {{\nreturn v + 1;\n}}\n")
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Live,
    Fixed,
    Suppressed,
    Churned,
}

/// Generates the N-commit workload for `profile`.
pub fn generate_life(profile: &LifeProfile) -> LifeWorkload {
    let mut rng = SplitMix64::new(profile.seed ^ 0x11FE);
    let files = profile.files.max(1);
    let commits = profile.commits.max(3);
    // Action near the middle: drift both before and after it.
    let action = commits / 2;

    let mut plan: Vec<(String, usize, Kind)> = Vec::new();
    let push = |plan: &mut Vec<(String, usize, Kind)>,
                rng: &mut SplitMix64,
                count: usize,
                prefix: &str,
                kind: Kind| {
        for i in 0..count {
            let tag = rng.next_u64() & 0xFFFF;
            plan.push((
                format!("{prefix}_{i}_{tag:04x}"),
                rng.range_usize(0, files),
                kind,
            ));
        }
    };
    push(&mut plan, &mut rng, profile.live, "stay", Kind::Live);
    push(&mut plan, &mut rng, profile.fixed, "gone", Kind::Fixed);
    push(
        &mut plan,
        &mut rng,
        profile.suppressed,
        "hush",
        Kind::Suppressed,
    );
    push(&mut plan, &mut rng, profile.churned, "roam", Kind::Churned);

    // Renders one file at one commit index.
    let render = |fi: usize, at: usize| -> String {
        let mut out = String::new();
        // Cumulative drift: one pad batch per commit after the first.
        for batch in 1..=at {
            for p in 0..profile.drift_lines {
                out.push_str(&format!("int pad_f{fi}_c{batch}_{p}(void);\n"));
            }
        }
        let acted = at >= action;
        let body = |name: &str, kind: Kind| -> String {
            match kind {
                Kind::Live | Kind::Churned => buggy_fn(name),
                Kind::Fixed => {
                    if acted {
                        fixed_fn(name)
                    } else {
                        buggy_fn(name)
                    }
                }
                Kind::Suppressed => {
                    if acted {
                        annotated_fn(name)
                    } else {
                        buggy_fn(name)
                    }
                }
            }
        };
        // Pre-action layout: churned bugs at the top, everything else,
        // then the anchors. Post-action: the churned bugs jump to the
        // bottom, past the anchors — delete-up-top, insert-down-low.
        if !acted {
            for (name, f, kind) in &plan {
                if *f == fi && *kind == Kind::Churned {
                    out.push_str(&body(name, *kind));
                }
            }
        }
        for (name, f, kind) in &plan {
            if *f == fi && *kind != Kind::Churned {
                out.push_str(&body(name, *kind));
            }
        }
        for a in 0..2 {
            out.push_str(&anchor_fn(&format!("anchor_f{fi}_a{a}")));
        }
        if acted {
            for (name, f, kind) in &plan {
                if *f == fi && *kind == Kind::Churned {
                    out.push_str(&body(name, *kind));
                }
            }
        }
        out
    };

    let mut repo = Repository::new();
    let dev = repo.add_author("dev");
    let mut ids = Vec::with_capacity(commits);
    for at in 0..commits {
        let writes: Vec<FileWrite> = (0..files)
            .map(|fi| FileWrite {
                path: format!("mod_{fi}.c"),
                content: render(fi, at),
            })
            .collect();
        let msg = if at == 0 {
            "plant".to_string()
        } else if at == action {
            "fix, triage, and reorganise".to_string()
        } else {
            format!("drift {at}")
        };
        ids.push(repo.commit(dev, 1_000 * (at as i64 + 1), &msg, writes));
    }

    let names = |kinds: &[Kind]| -> Vec<String> {
        let mut v: Vec<String> = plan
            .iter()
            .filter(|(_, _, k)| kinds.contains(k))
            .map(|(n, _, _)| n.clone())
            .collect();
        v.sort();
        v
    };
    LifeWorkload {
        repo,
        commits: ids,
        action,
        expected_live: names(&[Kind::Live, Kind::Churned]),
        expected_fixed: names(&[Kind::Fixed]),
        expected_suppressed: names(&[Kind::Suppressed]),
        expected_churned: names(&[Kind::Churned]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_life(&LifeProfile::default());
        let b = generate_life(&LifeProfile::default());
        assert_eq!(a.expected_live, b.expected_live);
        assert_eq!(a.expected_fixed, b.expected_fixed);
        assert_eq!(
            a.repo.snapshot_at(*a.commits.last().unwrap()),
            b.repo.snapshot_at(*b.commits.last().unwrap()),
            "same seed, same head tree"
        );
    }

    #[test]
    fn history_applies_the_scripted_actions() {
        let w = generate_life(&LifeProfile::default());
        let first = w.repo.snapshot_at(w.commits[0]);
        let acted = w.repo.snapshot_at(w.commits[w.action]);
        let head = w.repo.snapshot_at(*w.commits.last().unwrap());
        for name in &w.expected_fixed {
            let log_call = format!("log_{name}(ret);");
            assert!(
                !first.values().any(|c| c.contains(&log_call)),
                "{name} must start buggy"
            );
            assert!(
                acted.values().any(|c| c.contains(&log_call)),
                "{name} must be fixed at the action commit"
            );
        }
        for _name in &w.expected_suppressed {
            assert!(
                acted
                    .values()
                    .any(|c| c.contains("// vcheck:allow(retval)")),
                "annotations must appear at the action commit"
            );
        }
        for name in &w.expected_churned {
            let decl = format!("int {name}(void)");
            let (_, first_file) = first
                .iter()
                .find(|(_, c)| c.contains(&decl))
                .expect("churned bug planted");
            let head_file = head.values().find(|c| c.contains(&decl)).unwrap();
            let before = first_file.find(&decl).unwrap();
            let after = head_file.find(&decl).unwrap();
            assert!(
                after > before,
                "{name} must move towards the end of its file"
            );
            assert!(
                head_file[after..].find("int anchor_").is_none(),
                "{name} must sit below the anchors at head"
            );
        }
        // Drift is cumulative: head files start with the pad block.
        for content in head.values() {
            assert!(content.starts_with("int pad_"));
        }
    }
}
