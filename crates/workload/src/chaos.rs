//! Seeded chaos plans for the `vcheck serve` daemon.
//!
//! Where [`crate::corrupt()`] attacks the *parser* and [`crate::faults`] the
//! *batch pipeline*, this module attacks the *daemon*: it builds a seeded
//! script of protocol requests interleaved with on-disk file corruption,
//! malformed input, oversized bursts against a wedged worker, injected
//! panics, and mid-stream kill+restart. The plan states what must be true
//! afterwards, so a harness can hold `vcheck serve` to its contract:
//!
//! - the daemon process never exits except on `shutdown`/EOF (and then
//!   with status 0);
//! - every scan/update reply not degraded by an injected fault carries a
//!   report **byte-identical** to a cold batch scan of the tree as it was
//!   at that moment;
//! - the protocol counters balance: every line sent is answered or shed,
//!   bad lines are counted, every injected panic costs exactly one
//!   quarantine (`serve.state_rebuilds`);
//! - the analysis funnel balances cumulatively
//!   (`funnel.cross_scope == funnel_pruned(*) + funnel.reported`).
//!
//! The plan is pure data (strings and trees): this module does not depend
//! on the analyzer. The executing harness lives next to the `vcheck`
//! binary, which owns `CARGO_BIN_EXE_vcheck`.

use vc_obs::SplitMix64;

use crate::{
    corrupt::{
        corrupt,
        plant_fault_file,
        CorruptKind, //
    },
    generate::generate,
    profile::AppProfile,
};

/// One scripted action against a live daemon.
#[derive(Clone, Debug)]
pub enum ChaosStep {
    /// Send `{"op":"scan"}`; the reply must be `ok` (or the armed panic for
    /// this seq) and, when clean, byte-identical to a cold scan.
    Scan,
    /// Send `{"op":"update","files":[..]}` naming the files edited since
    /// the last request. Same reply contract as `Scan`.
    Update {
        /// The edited files, as protocol hints.
        files: Vec<String>,
    },
    /// Rewrite one file on disk before the next request.
    Edit {
        /// Tree-relative path.
        path: String,
        /// New content.
        content: String,
    },
    /// Send one line of non-protocol garbage; the daemon must answer
    /// `ok:false` and keep serving.
    BadLine {
        /// The raw line (no trailing newline).
        line: String,
    },
    /// Wedge the worker with `{"op":"sleep"}` and immediately send `count`
    /// scans. With `count > queue_depth`, at least one must be shed.
    Burst {
        /// How long the wedge holds the worker, in milliseconds.
        wedge_ms: u64,
        /// Scans fired while wedged.
        count: usize,
    },
}

impl ChaosStep {
    /// How many protocol lines (and thus request seqs) this step consumes.
    pub fn lines(&self) -> u64 {
        match self {
            ChaosStep::Scan | ChaosStep::Update { .. } | ChaosStep::BadLine { .. } => 1,
            ChaosStep::Edit { .. } => 0,
            ChaosStep::Burst { count, .. } => 1 + *count as u64,
        }
    }
}

/// One daemon lifetime: the harness starts a fresh process per segment
/// (kill+restart between segments), arming `panic_seqs` via
/// `VCHECK_SERVE_PANIC_SEQS` before spawning.
#[derive(Clone, Debug)]
pub struct ChaosSegment {
    /// Request seqs that must panic inside the daemon (one-shot each).
    pub panic_seqs: Vec<u64>,
    /// The scripted actions, in order.
    pub steps: Vec<ChaosStep>,
    /// Whether this segment ends with `{"op":"shutdown"}` (graceful) or by
    /// killing the process mid-stream (the restart must come up cold and
    /// correct).
    pub graceful: bool,
}

/// A complete chaos plan over one project tree.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// The generating seed.
    pub seed: u64,
    /// Initial tree, `(relative path, content)`, sorted by path. Written
    /// without a `history.json`: chaos edits corrupt files freely, and a
    /// stale history head would reject the tree at load time.
    pub initial_tree: Vec<(String, String)>,
    /// Daemon lifetimes, executed in order against the same tree.
    pub segments: Vec<ChaosSegment>,
    /// The queue depth the daemon must run with for the burst math.
    pub queue_depth: usize,
    /// Minimum sheds the plan's bursts guarantee (each burst wedges the
    /// worker, then overfills the queue by at least one).
    pub min_sheds: u64,
}

/// Builds the seeded plan. Deterministic: same seed, same plan.
pub fn generate_chaos(seed: u64) -> ChaosPlan {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5C4A_05C4_A05C);

    // A small generated app plus the corruptible fault file. The history
    // is discarded (see `initial_tree`): only the sources travel.
    let mut profile = AppProfile::nfs_ganesha().scaled(0.01);
    profile.seed = seed;
    profile.name = format!("chaos{seed}");
    let mut app = generate(&profile);
    let ff = plant_fault_file(&mut app, seed);
    let pristine: String = app
        .sources
        .iter()
        .find(|(p, _)| *p == ff.path)
        .expect("fault file planted")
        .1
        .clone();

    // Corrupted variants of the fault file, one per kind, made on clones
    // so the plan's `initial_tree` stays pristine.
    let variants: Vec<(CorruptKind, String)> = CorruptKind::ALL
        .iter()
        .map(|&kind| {
            let mut clone = app.clone();
            corrupt(&mut clone, &ff, kind);
            let text = clone
                .sources
                .iter()
                .find(|(p, _)| *p == ff.path)
                .unwrap()
                .1
                .clone();
            (kind, text)
        })
        .collect();

    let queue_depth = 3;
    let mut min_sheds = 0u64;
    let segment_count = 2 + (seed as usize % 2);
    let mut segments = Vec::new();
    for seg_idx in 0..segment_count {
        let mut steps = vec![ChaosStep::Scan];
        let mut seq = 1u64; // the opening scan
        let mut panic_seqs = Vec::new();
        let mut corrupted = false;
        let step_count = rng.range_inclusive_usize(5, 8);
        for _ in 0..step_count {
            match rng.bounded(6) {
                0 => {
                    seq += 1;
                    steps.push(ChaosStep::Scan);
                }
                1 => {
                    // Corrupt the fault file (or restore it) and rescan.
                    let (content, files) = if corrupted {
                        (pristine.clone(), vec![ff.path.clone()])
                    } else {
                        let (_, text) = &variants[rng.range_usize(0, variants.len())];
                        (text.clone(), vec![ff.path.clone()])
                    };
                    corrupted = !corrupted;
                    steps.push(ChaosStep::Edit {
                        path: ff.path.clone(),
                        content,
                    });
                    seq += 1;
                    steps.push(ChaosStep::Update { files });
                }
                2 => {
                    let line = match rng.bounded(4) {
                        0 => "this is not json".to_string(),
                        1 => "[1, 2, 3]".to_string(),
                        2 => "{}".to_string(),
                        _ => format!("{{\"op\":\"nonsense{}\"}}", rng.bounded(100)),
                    };
                    seq += 1;
                    steps.push(ChaosStep::BadLine { line });
                }
                3 => {
                    // Overfill a wedged queue: the wedge occupies the
                    // worker, `queue_depth + overflow` scans pile up, and
                    // at least `overflow` of them must shed.
                    let overflow = rng.range_inclusive_usize(1, 2);
                    let count = queue_depth + overflow;
                    min_sheds += overflow as u64;
                    seq += 1 + count as u64;
                    steps.push(ChaosStep::Burst {
                        wedge_ms: 150,
                        count,
                    });
                }
                4 => {
                    // Arm a panic on the next scan: the daemon must reply
                    // with an error, quarantine, and keep serving.
                    seq += 1;
                    panic_seqs.push(seq);
                    steps.push(ChaosStep::Scan);
                }
                _ => {
                    seq += 1;
                    steps.push(ChaosStep::Update { files: Vec::new() });
                }
            }
        }
        // Always leave the tree pristine and verified before the segment
        // ends, so the next segment's cold start has a known-good floor.
        if corrupted {
            steps.push(ChaosStep::Edit {
                path: ff.path.clone(),
                content: pristine.clone(),
            });
        }
        steps.push(ChaosStep::Scan);
        let graceful = seg_idx % 2 == 0;
        segments.push(ChaosSegment {
            panic_seqs,
            steps,
            graceful,
        });
    }

    let mut initial_tree = app.sources;
    initial_tree.sort_by(|a, b| a.0.cmp(&b.0));
    ChaosPlan {
        seed,
        initial_tree,
        segments,
        queue_depth,
        min_sheds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let a = generate_chaos(42);
        let b = generate_chaos(42);
        assert_eq!(a.initial_tree, b.initial_tree);
        assert_eq!(a.segments.len(), b.segments.len());
        assert_eq!(a.min_sheds, b.min_sheds);
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.panic_seqs, sb.panic_seqs);
            assert_eq!(sa.steps.len(), sb.steps.len());
        }
        let c = generate_chaos(43);
        assert!(
            c.initial_tree != a.initial_tree || c.segments.len() != a.segments.len(),
            "different seeds vary the plan"
        );
    }

    #[test]
    fn panic_seqs_match_the_line_arithmetic() {
        for seed in [1, 7, 42, 99] {
            let plan = generate_chaos(seed);
            for seg in &plan.segments {
                let mut seq = 0u64;
                let mut scan_update_seqs = Vec::new();
                for step in &seg.steps {
                    match step {
                        ChaosStep::Scan | ChaosStep::Update { .. } => {
                            seq += 1;
                            scan_update_seqs.push(seq);
                        }
                        other => seq += other.lines(),
                    }
                }
                for p in &seg.panic_seqs {
                    assert!(
                        scan_update_seqs.contains(p),
                        "panic seq {p} must land on a scan/update line (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn bursts_overflow_the_declared_queue_depth() {
        for seed in [3, 14, 27] {
            let plan = generate_chaos(seed);
            for seg in &plan.segments {
                for step in &seg.steps {
                    if let ChaosStep::Burst { count, .. } = step {
                        assert!(*count > plan.queue_depth);
                    }
                }
            }
        }
    }

    #[test]
    fn tree_has_no_history_file_and_ends_pristine() {
        let plan = generate_chaos(11);
        assert!(plan
            .initial_tree
            .iter()
            .all(|(p, _)| !p.ends_with("history.json")));
        // Replay the edits: after each segment the fault file is pristine.
        let fault_path = plan
            .segments
            .iter()
            .flat_map(|s| &s.steps)
            .find_map(|s| match s {
                ChaosStep::Edit { path, .. } => Some(path.clone()),
                _ => None,
            });
        if let Some(path) = fault_path {
            let pristine = plan
                .initial_tree
                .iter()
                .find(|(p, _)| *p == path)
                .unwrap()
                .1
                .clone();
            let mut current = pristine.clone();
            for seg in &plan.segments {
                for step in &seg.steps {
                    if let ChaosStep::Edit { content, .. } = step {
                        current = content.clone();
                    }
                }
                assert_eq!(current, pristine, "segment leaves the tree pristine");
            }
        }
    }
}
