//! Allocation guards for warm `vcheck serve` requests.
//!
//! - A unit-cache hit shares its cached summary (an `Arc` bump) and moves
//!   the cache entry into the next generation, so a warm rescan of an
//!   unchanged tree allocates only the rebound candidates and the
//!   per-request bookkeeping. Deep-copying summaries or cache entries on a
//!   hit roughly triples the allocations the detect stage makes per
//!   function, which the per-hit bound catches.
//! - The parse cache keeps lowered files, so after a one-file edit the
//!   front end parses and lowers only that file. Re-lowering every function
//!   allocates several times the bound on the parse stage.
//!
//! Lives in its own integration-test binary because it needs the counting
//! global allocator. Allocations are attributed per thread, so the tests
//! can run in parallel.

use std::{fs, path::PathBuf};

use valuecheck::serve::{ServeConfig, ServeEngine};

#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

const FILES: usize = 4;
const FNS_PER_FILE: usize = 50;

/// One function with exactly two dead stores (`a = n` and `b = 2`, each
/// overwritten before any read).
fn function(i: usize) -> String {
    format!(
        "int f{i}(int n) {{\n\
         \x20 int a = n;\n\
         \x20 a = 1;\n\
         \x20 int b = 2;\n\
         \x20 b = n + 1;\n\
         \x20 return a + b;\n\
         }}\n"
    )
}

/// Writes `files` files of `per_file` functions each into a fresh
/// directory named after `tag`.
fn write_tree(tag: &str, files: usize, per_file: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc-serve-alloc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for file in 0..files {
        let text: String = (0..per_file)
            .map(|k| function(file * per_file + k))
            .collect();
        fs::write(dir.join(format!("m{file}.c")), text).unwrap();
    }
    dir
}

#[test]
fn warm_hits_allocate_a_bounded_amount_per_function() {
    let dir = write_tree("hits", FILES, FNS_PER_FILE);
    let units = (FILES * FNS_PER_FILE) as u64;

    let mut engine = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
    let cold = engine.scan(None).unwrap();
    assert_eq!(cold.unit_misses, units);
    assert_eq!(
        cold.raw_candidates as u64,
        2 * units,
        "two dead stores each"
    );

    let allocs = vc_obs::names::mem("detect", "allocs");
    let before = engine.obs().registry.histogram(&allocs).sum;
    let warm = engine.scan(None).unwrap();
    let after = engine.obs().registry.histogram(&allocs).sum;
    assert_eq!(warm.unit_hits, units, "unchanged tree: every unit hits");
    assert_eq!(warm.raw_candidates as u64, 2 * units);

    // Measured on this workload: 8.3 allocations per hit when the hit
    // shares its summary and moves its entry (the two rebound candidates'
    // names, overwriter lists and store info, plus the request's fixed
    // bookkeeping spread over 200 units); 25.3 when it deep-copies the
    // summary twice and the entry once. The bound leaves ~70% headroom
    // over the first and sits ~45% under the second.
    const MAX_ALLOCS_PER_HIT: u64 = 14;
    let per_hit = (after - before) as f64 / units as f64;
    assert!(
        after - before <= MAX_ALLOCS_PER_HIT * units,
        "warm detect made {} allocations for {units} hits ({per_hit:.1} per hit, bound \
         {MAX_ALLOCS_PER_HIT})",
        after - before,
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_one_file_edit_relowers_only_that_file() {
    // The same 200 functions over 20 files: one file is 5% of the tree.
    const EDIT_FILES: usize = 20;
    let dir = write_tree("edit", EDIT_FILES, FILES * FNS_PER_FILE / EDIT_FILES);
    let parse_bytes = vc_obs::names::mem("parse", "alloc_bytes");
    let mut engine = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
    let sum = |engine: &ServeEngine| engine.obs().registry.histogram(&parse_bytes).sum;

    let before = sum(&engine);
    engine.scan(None).unwrap();
    let cold = sum(&engine) - before;

    let edited = dir.join("m7.c");
    let mut text = fs::read_to_string(&edited).unwrap();
    text.push_str("int vc_probe(void) { return 1; }\n");
    fs::write(&edited, text).unwrap();
    let before = sum(&engine);
    let warm = engine.scan(None).unwrap();
    let warm_bytes = sum(&engine) - before;
    assert_eq!(
        warm.unit_hits as usize,
        FILES * FNS_PER_FILE - FNS_PER_FILE * FILES / EDIT_FILES,
        "functions outside the edited file stay warm"
    );
    eprintln!("serve_alloc: warm parse {warm_bytes} bytes, cold {cold}");

    // Measured on this workload: the warm request allocates 7.3% of the
    // cold one (the edited file's parse and lowering, plus copies of the
    // sources and the program-wide tables); re-lowering every function
    // from cached ASTs allocates 43%.
    assert!(
        warm_bytes * 10 <= cold,
        "warm parse allocated {warm_bytes} bytes, cold {cold} (bound 10%)"
    );
    let _ = fs::remove_dir_all(&dir);
}
