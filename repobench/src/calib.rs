//! Host-speed calibration.
//!
//! On a shared host, neighbouring load can slow every instruction the
//! benchmark runs by half again for minutes at a time, without any of it
//! showing as stolen time. So each operation is bracketed by a fixed
//! calibration kernel — code in this file only, untouched by any change to
//! the pipeline — and the operation's time is scaled by [`REFERENCE_MS`]
//! over the kernel's time. A scaled time reads in milliseconds of a host
//! that runs the kernel in [`REFERENCE_MS`]; it moves with the pipeline's
//! cost and much less with the neighbours' load than the raw time does.

use std::{
    collections::{
        hash_map::DefaultHasher,
        HashMap, //
    },
    hash::BuildHasherDefault,
    hint::black_box,
    time::Instant, //
};

/// The kernel's time, in milliseconds, that scaled times refer to: the
/// median calibration over five 25 s `serve-edit` runs on a 2-vCPU Xeon
/// host, so scaled times there read close to raw milliseconds.
pub const REFERENCE_MS: f64 = 1.75;

/// Kernel runs per calibration; the fastest one counts.
const RUNS: usize = 3;

/// One SplitMix64 step.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One run of the calibration kernel, in milliseconds: the kinds of work
/// the pipeline does — short strings allocated, hashed and sorted, and
/// scattered reads and writes over a table the size of a core's L2 cache.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x5EED;
    let mut names: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..4096 {
        let v = mix(&mut x);
        names.insert(format!("v{:x}", v & 0xFFF_FFFF), v);
    }
    let mut sorted: Vec<&String> = names.keys().collect();
    sorted.sort_unstable();
    let mut table = vec![0u64; 1 << 16];
    let mask = table.len() - 1;
    for i in 0..1u64 << 17 {
        let z = mix(&mut x);
        let j = z as usize & mask;
        table[j] = table[j].wrapping_add(z ^ i);
    }
    black_box((&sorted, &table));
    t.elapsed().as_secs_f64() * 1e3
}

/// The fastest of [`RUNS`] kernel runs, in milliseconds.
fn kernel_fastest_ms() -> f64 {
    (0..RUNS).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min)
}

/// The factor that scales a time measured now to the reference host speed:
/// [`REFERENCE_MS`] over the fastest of [`RUNS`] kernel runs.
pub fn factor() -> f64 {
    REFERENCE_MS / kernel_fastest_ms()
}

/// Runs `f` between two calibrations; returns its result, its raw
/// milliseconds, and its milliseconds scaled by [`REFERENCE_MS`] over the
/// mean of the two calibrations, which bracket the host speed `f` ran at.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = kernel_fastest_ms();
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let after = kernel_fastest_ms();
    (out, ms, ms * REFERENCE_MS / ((before + after) / 2.0))
}
