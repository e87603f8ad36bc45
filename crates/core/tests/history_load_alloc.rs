//! Allocation guard for loading a project's `history.json`.
//!
//! `load_dir` reads the commits straight from the JSON bytes, copying each
//! path, message and content once at its exact length, and replays blame
//! over only the bytes a write changed: blame is one entry per line, and
//! no line owns a string. A commit that edits one line of a large file then
//! costs a bounded number of allocations, however long the file, and the
//! load allocates about the JSON text once more. Growing each decoded
//! content by doubling costs a reallocation per doubling and about as many
//! bytes again; an owned string per line costs a file's worth of
//! allocations for its first write; a `Json` tree between the text and the
//! commits costs both. Each blows a bound.
//!
//! Lives in its own integration-test binary because it needs the counting
//! global allocator. Allocations are attributed per thread, so only the
//! load's own are counted.

use valuecheck::project::load_dir;
use vc_obs::{
    alloc::SCOPE_OTHER,
    MemScope, //
};
use vc_vcs::{
    spec::{
        CommitSpec,
        WriteSpec, //
    },
    HistorySpec,
};

mod common {
    pub mod tree;
}
use common::tree::write_tree;

#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

const LINES: usize = 3000;
const COMMITS: usize = 120;

/// The file at revision `rev`: `LINES` lines, one of them edited per
/// revision.
fn revision(rev: usize) -> String {
    let mut text = String::new();
    for i in 0..LINES {
        if rev > 0 && i == rev % LINES {
            text.push_str(&format!("// line {i}, edited at revision {rev}\n"));
        } else {
            text.push_str(&format!("// line {i} of the licence header\n"));
        }
    }
    text.push_str("int f(void) { return 1; }\n");
    text
}

#[test]
fn history_load_allocates_a_bounded_amount_per_commit() {
    let spec = HistorySpec {
        commits: (0..COMMITS)
            .map(|rev| CommitSpec {
                author: "dev".into(),
                timestamp: rev as i64,
                message: format!("revision {rev}"),
                writes: vec![WriteSpec {
                    path: "big.c".into(),
                    content: revision(rev),
                }],
            })
            .collect(),
    };
    let json = spec.to_json();
    let head = revision(COMMITS - 1);
    let dir = write_tree(
        "history-load-alloc",
        &[("big.c", &head), ("history.json", &json)],
    );
    drop(spec);

    let scope = MemScope::enter(SCOPE_OTHER);
    let project = load_dir(&dir).expect("the history matches the tree");
    let delta = scope.finish();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(project.has_history);
    assert_eq!(project.repo.log("big.c").len(), COMMITS);
    let edited = (COMMITS - 1) % LINES + 1;
    let blame = project.repo.blame("big.c", edited as u32).unwrap();
    assert_eq!(blame.commit.0 as usize, COMMITS - 1, "the last edit");
    let untouched = project.repo.blame("big.c", 1).unwrap();
    assert_eq!(untouched.commit.0, 0, "a line no commit edited");

    let per_commit = delta.allocs / COMMITS as u64;
    let bytes_per_json_byte = delta.alloc_bytes as f64 / json.len() as f64;
    eprintln!(
        "history_load_alloc: {} allocations ({per_commit} per commit), {} bytes \
         ({bytes_per_json_byte:.2} per byte of a {}-byte history.json)",
        delta.allocs,
        delta.alloc_bytes,
        json.len()
    );
    // Measured on this workload: 10 allocations per commit and 2.01 bytes
    // per byte of history.json (the text itself, then each content once);
    // 67 per commit and 5.75 bytes per byte through a `Json` tree with
    // doubling strings and a string per line. The bounds leave 2.4x and
    // 1.5x headroom over the first and sit well under the second.
    const MAX_ALLOCS_PER_COMMIT: u64 = 24;
    assert!(
        per_commit <= MAX_ALLOCS_PER_COMMIT,
        "the load made {} allocations over {COMMITS} commits ({per_commit} per commit, bound \
         {MAX_ALLOCS_PER_COMMIT})",
        delta.allocs
    );
    const MAX_BYTES_PER_JSON_BYTE: f64 = 3.0;
    assert!(
        bytes_per_json_byte <= MAX_BYTES_PER_JSON_BYTE,
        "the load allocated {} bytes for a {}-byte history.json ({bytes_per_json_byte:.2}x, \
         bound {MAX_BYTES_PER_JSON_BYTE}x)",
        delta.alloc_bytes,
        json.len()
    );
}
