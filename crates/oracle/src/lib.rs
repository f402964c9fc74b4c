#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Test equipment for `mr-sim`'s integration tests, kept out of every
//! production build (`publish = false`, a dev-dependency of `mr-sim`
//! only): the original `BTreeMap` shuffle over a schema, [`naive`], as
//! the columnar data plane's independent oracle, and the batteries'
//! shared workloads.
//! A `#[cfg(test)]` module inside `mr-sim` cannot use it: it would see a
//! second copy of `mr-sim`'s types.

pub mod naive;

pub use naive::run_schema_naive;

use mr_sim::{run_schema, EngineConfig, ReducerId, RoundMetrics, SchemaJob};
use std::collections::BTreeSet;

/// Indexes a key sequence into `(position, key)` inputs.
pub fn indexed(keys: &[u64]) -> Vec<(u64, u64)> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (i as u64, k))
        .collect()
}

/// The order-sensitive digest of one reducer's positions: `(reducer,
/// count, rotate-xor chain of the positions)`. Any within-reducer
/// reordering or cross-reducer leakage changes it.
pub fn digest(reducer: ReducerId, positions: impl ExactSizeIterator<Item = u64>) -> DigestRow {
    let count = positions.len() as u64;
    let chain = positions.fold(0u64, |acc, v| acc.rotate_left(7) ^ v);
    (reducer, count, chain)
}

/// One [`digest`] row.
pub type DigestRow = (u64, u64, u64);

/// Sends each [`indexed`] `(position, key)` input to reducer `key`; each
/// reducer emits the [`digest`] of the positions it received.
#[derive(Clone, Copy)]
pub struct Digest;

impl SchemaJob<(u64, u64), DigestRow> for Digest {
    fn assign_into(&self, &(_, key): &(u64, u64), emit: &mut dyn FnMut(ReducerId)) {
        emit(key)
    }

    fn reduce(&self, r: ReducerId, inputs: &[(u64, u64)], emit: &mut dyn FnMut(DigestRow)) {
        emit(digest(r, inputs.iter().map(|&(position, _)| position)))
    }
}

/// One [`Digest`] round over [`indexed`] inputs, on the columnar engine.
/// Panics if `config`'s reducer budget overflows.
pub fn digest_round(inputs: &[(u64, u64)], config: &EngineConfig) -> DigestOutput {
    run_schema(inputs, &Digest, config).expect("no q bound set")
}

/// [`digest_round`] on the [`naive`] oracle.
pub fn digest_round_naive(inputs: &[(u64, u64)], config: &EngineConfig) -> DigestOutput {
    run_schema_naive(inputs, &Digest, config).expect("no q bound set")
}

/// A digest round's outputs and metrics.
pub type DigestOutput = (Vec<DigestRow>, RoundMetrics);

/// A digest round on one data plane.
pub type DigestRound = fn(&[(u64, u64)], &EngineConfig) -> DigestOutput;

/// Both data planes' digest rounds, named, for columnar-vs-naive arms.
pub const DIGEST_PLANES: [(&str, DigestRound); 2] =
    [("columnar", digest_round), ("naive", digest_round_naive)];

/// An oblivious schema (§2.2): input `x` goes to up to `reps` of `groups`
/// reducers, picked from `x` alone, and each reducer emits an
/// order-sensitive digest of its input list.
#[derive(Clone, Copy)]
pub struct DigestFan {
    /// Number of reducers.
    pub groups: u64,
    /// Reducers per input, before duplicates collapse.
    pub reps: u64,
}

impl SchemaJob<u64, u64> for DigestFan {
    fn assign_into(&self, x: &u64, emit: &mut dyn FnMut(ReducerId)) {
        let set: BTreeSet<u64> = (0..self.reps)
            .map(|j| x.wrapping_mul(2 * j + 7).wrapping_add(j) % self.groups)
            .collect();
        set.into_iter().for_each(emit);
    }

    fn reduce(&self, r: u64, inputs: &[u64], emit: &mut dyn FnMut(u64)) {
        let digest = inputs.iter().fold(0u64, |acc, v| acc.rotate_left(9) ^ v);
        emit(
            r.wrapping_mul(1_000_003)
                .wrapping_add(inputs.len() as u64)
                .wrapping_add(digest.rotate_left(17)),
        );
    }
}
