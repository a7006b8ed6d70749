//! Pinned hashes of every application model's generated trace.
//!
//! `AppModel::generate` is the input of every application experiment and
//! of the replay benchmark's `apps`, `apps-dvmm` and `tenants-storm`
//! workloads. Its skewed draws come from `DetRng::zipf`, whose ζ(n)
//! normaliser is an exact 1024-term sum up to `n = 1024` pages and a head
//! sum plus an integral tail beyond. The three working sets below put `n`
//! under (2 MiB, 512 pages), at (4 MiB, 1024 pages) and over (8 MiB, 2048
//! pages, the benchmark's size) that boundary, so both branches are pinned.
//!
//! Each trace is hashed with FNV-1a over every access's page, write flag
//! and compute time; a mismatch prints the full actual table.

use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_workloads::AccessTrace;
use leap_repro::prelude::*;

/// Accesses per generated trace (the benchmark's `apps` size).
const ACCESSES: usize = 20_000;
/// Model seed (the benchmark's CI seed).
const SEED: u64 = 1;

/// `(kind, working set in MiB, FNV-1a hash of the generated trace)`.
const PINS: [(AppKind, u64, u64); 12] = [
    (AppKind::PowerGraph, 2, 0x6026b27f57223d0d),
    (AppKind::PowerGraph, 4, 0xd2244e812ab957e4),
    (AppKind::PowerGraph, 8, 0x96a005df092fbb1c),
    (AppKind::NumPy, 2, 0x29b1def6260b9968),
    (AppKind::NumPy, 4, 0x4e29832cded5881a),
    (AppKind::NumPy, 8, 0xb3f9e593209fc341),
    (AppKind::VoltDb, 2, 0x32b142255311969a),
    (AppKind::VoltDb, 4, 0x363b4e1cf7530152),
    (AppKind::VoltDb, 8, 0x3553b80c328390b8),
    (AppKind::Memcached, 2, 0x0daf943a3b57a46f),
    (AppKind::Memcached, 4, 0xd5921a85cdfdd332),
    (AppKind::Memcached, 8, 0x211551850f70307c),
];

/// FNV-1a (64-bit) over each access's page, write flag and compute nanos.
fn trace_hash(trace: &AccessTrace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for access in trace.iter() {
        feed(&access.page.to_le_bytes());
        feed(&[u8::from(access.is_write)]);
        feed(&access.compute.as_nanos().to_le_bytes());
    }
    hash
}

#[test]
fn generated_traces_match_the_pinned_hashes() {
    let actual: Vec<(AppKind, u64, u64)> = PINS
        .iter()
        .map(|&(kind, mib, _)| {
            let trace = AppModel::new(kind, SEED)
                .with_working_set(mib * MIB)
                .with_accesses(ACCESSES)
                .generate();
            assert_eq!(trace.len(), ACCESSES, "{kind} at {mib} MiB");
            (kind, mib, trace_hash(&trace))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(kind, mib, hash)| format!("    (AppKind::{kind:?}, {mib}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(
        actual,
        PINS.to_vec(),
        "generated traces drifted; actual pins:\n{table}"
    );
}
