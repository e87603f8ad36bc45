//! Allocation guard for warm `vcheck serve` hits: a unit-cache hit shares
//! its cached summary (an `Arc` bump) and moves the cache entry into the
//! next generation, so a warm rescan of an unchanged tree allocates only
//! the rebound candidates and the per-request bookkeeping. Deep-copying
//! summaries or cache entries on a hit roughly triples the allocations
//! the detect stage makes per function, which the per-hit bound below
//! catches.
//!
//! Lives in its own integration-test binary because it needs the counting
//! global allocator (a single #[test]).

use std::fs;

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

#[test]
fn warm_hits_allocate_a_bounded_amount_per_function() {
    let dir = std::env::temp_dir().join(format!("vc-serve-alloc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for file in 0..FILES {
        let text: String = (0..FNS_PER_FILE)
            .map(|k| function(file * FNS_PER_FILE + k))
            .collect();
        fs::write(dir.join(format!("m{file}.c")), text).unwrap();
    }
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
