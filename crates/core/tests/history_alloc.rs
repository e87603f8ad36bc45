//! Linear-cost guard for `vcheck history`.
//!
//! The replay walks the history forward once: one running checkout grows
//! by one commit per step, each revision is one borrowed snapshot, and line
//! maps are built over borrowed lines. A commit that edits one line of a
//! large file then costs a bounded number of allocations on the replay's
//! own thread, however long the file and the history. Checking out each
//! commit from scratch re-allocates every line of every file (and copies
//! every earlier commit) once per commit, and copying lines into the line
//! maps allocates two strings per line; either blows the per-commit bound.
//!
//! Lives in its own integration-test binary because it needs the counting
//! global allocator. Allocations are attributed per thread and scope, so
//! the count covers the replay thread's `mem.history.*` window: checkout,
//! snapshot, build, classification and suppression, but not detection or
//! the back-end stages, which have their own scopes.

use valuecheck::{
    history::history_scan,
    pipeline::Options,
    sentinel::SentinelConfig,
    suppress::SuppressStore, //
};
use vc_obs::ObsSession;
use vc_vcs::{
    FileWrite,
    Repository, //
};

#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

/// Comment lines in the large file: they cost the front end nothing, so
/// per-line work anywhere else in the replay dominates the count.
const LINES: usize = 3000;
const COMMITS: usize = 120;

/// The large file at revision `rev`: `LINES` comment lines, one of them
/// edited per revision, and one library-retval bug (cross-scope even in a
/// single-author history) so every revision classifies a finding and
/// builds the file's line map.
fn revision(rev: usize) -> String {
    let mut text = String::new();
    for i in 0..LINES {
        if rev > 0 && i == rev % LINES {
            text.push_str(&format!("// line {i}, edited at revision {rev}\n"));
        } else {
            text.push_str(&format!("// line {i} of the licence header\n"));
        }
    }
    text.push_str(
        "int get_value(void);\nint calc_value(void);\nvoid update(void) {\nint ret = \
         get_value();\nret = calc_value();\nif (ret) { sink(ret); }\n}\n",
    );
    text
}

#[test]
fn replay_allocates_a_bounded_amount_per_commit() {
    let mut repo = Repository::new();
    let dev = repo.add_author("dev");
    for rev in 0..COMMITS {
        repo.commit(
            dev,
            rev as i64,
            format!("revision {rev}"),
            vec![FileWrite {
                path: "big.c".into(),
                content: revision(rev),
            }],
        );
    }

    let obs = ObsSession::new();
    let out = history_scan(
        &repo,
        &[],
        &Options::paper(),
        &SentinelConfig::sequential(),
        SuppressStore::default(),
        obs.clone(),
    )
    .unwrap();
    assert_eq!(out.commits, COMMITS);
    let funnel = out.db.funnel();
    assert_eq!((funnel.born, funnel.live), (1, 1), "one finding, one track");

    let allocs = obs
        .registry
        .histogram(&vc_obs::names::mem("history", "allocs"))
        .sum;
    let per_commit = allocs / COMMITS as u64;
    eprintln!("history_alloc: {allocs} allocations, {per_commit} per commit");

    // Measured on this workload: 288 allocations per commit with the
    // forward walk (the build of the one function, the revision's owned
    // sources, line-map vectors, spans and lifecycle bookkeeping); 10,744
    // per commit when each commit is checked out from scratch and line maps
    // copy their lines, about 3.6 per line of the file. The bound leaves
    // over 3x headroom over the first and sits at a third of one
    // allocation per line.
    const MAX_ALLOCS_PER_COMMIT: u64 = 1000;
    assert!(
        per_commit <= MAX_ALLOCS_PER_COMMIT,
        "the replay made {allocs} allocations over {COMMITS} commits ({per_commit} per commit, \
         bound {MAX_ALLOCS_PER_COMMIT})"
    );
}
