//! Property tests for the pointer analysis: determinism, address-of
//! containment, and consistency between field-sensitive and insensitive
//! modes on arbitrary generated programs.
//!
//! Each property runs as a deterministic loop over cases drawn from a
//! seeded [`SplitMix64`]; a failing case prints its seed so it can be
//! replayed exactly.

use vc_ir::{
    ir::{
        Inst,
        TempOrigin, //
    },
    testing::source_from_seed,
    FuncId, Program, TempId,
};
use vc_obs::SplitMix64;
use vc_pointer::{
    Config,
    PointsTo, //
};

fn build(seed: u64) -> Program {
    let src = source_from_seed(seed);
    Program::build(&[("g.c", src.as_str())], &[]).expect("generated source builds")
}

/// Solving the same program twice yields identical fact counts and call
/// graphs (determinism).
#[test]
fn solving_is_deterministic() {
    let mut rng = SplitMix64::new(0xA1);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let a = PointsTo::solve(&prog);
        let b = PointsTo::solve(&prog);
        assert_eq!(a.fact_count(), b.fact_count(), "seed {seed}");
        assert_eq!(a.call_edges(), b.call_edges(), "seed {seed}");
    }
}

/// The result temp of every `&place` instruction points at the place's
/// object (address-of containment).
#[test]
fn addr_of_containment() {
    let mut rng = SplitMix64::new(0xA2);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let pts = PointsTo::solve(&prog);
        for (fi, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for bb in &f.blocks {
                for inst in &bb.insts {
                    if let Inst::AddrOf { dst, place, .. } = inst {
                        // Direct places must appear in the points-to set.
                        if place.var_key().is_some() {
                            assert!(
                                !pts.points_to(fid, *dst).is_empty(),
                                "seed {seed}: &{place:?} has empty points-to set"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Field-insensitive mode never resolves *fewer* function-pointer
/// targets than field-sensitive mode (it only merges objects).
#[test]
fn field_insensitive_is_coarser() {
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let fs = PointsTo::solve_with(
            &prog,
            Config {
                field_sensitive: true,
                ..Config::default()
            },
        );
        let fi = PointsTo::solve_with(
            &prog,
            Config {
                field_sensitive: false,
                ..Config::default()
            },
        );
        for (f_idx, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(f_idx as u32);
            for (t_idx, origin) in f.temp_origins.iter().enumerate() {
                if matches!(origin, TempOrigin::Load(_)) {
                    let t = TempId(t_idx as u32);
                    let fs_funcs = fs.resolve_fn_ptr(fid, t).len();
                    let fi_funcs = fi.resolve_fn_ptr(fid, t).len();
                    assert!(
                        fi_funcs >= fs_funcs,
                        "seed {seed}: insensitive mode lost targets at t{t_idx} in {}",
                        f.name
                    );
                }
            }
        }
    }
}
