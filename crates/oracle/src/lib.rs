#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Test equipment for `mr-sim`'s integration tests, kept out of every
//! production build (`publish = false`, a dev-dependency of `mr-sim`
//! only): the original `BTreeMap` shuffle, [`naive`], as the columnar
//! data plane's independent oracle, and the batteries' shared workloads.
//! A `#[cfg(test)]` module inside `mr-sim` cannot use it: it would see a
//! second copy of `mr-sim`'s types.

pub mod naive;

pub use naive::run_round_naive;

use mr_sim::{run_round, EngineConfig, FnMapper, FnReducer, Mapper, Reducer};
use mr_sim::{RoundMetrics, SchemaJob};
use std::collections::BTreeSet;

/// Indexes a key sequence into `(position, key)` inputs.
pub fn indexed(keys: &[u64]) -> Vec<(u64, u64)> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (i as u64, k))
        .collect()
}

/// Per key, `(key, value count, rotate-xor chain of the values)`: the
/// chain is order-sensitive, so any within-key reordering or cross-key
/// leakage changes the output.
pub fn digest_reducer() -> impl Reducer<u64, u64, (u64, u64, u64)> {
    FnReducer(
        |k: &u64, vs: &[u64], emit: &mut dyn FnMut((u64, u64, u64))| {
            emit((
                *k,
                vs.len() as u64,
                vs.iter().fold(0u64, |acc, v| acc.rotate_left(7) ^ v),
            ))
        },
    )
}

/// Emits each `(position, key)` input's position under its key.
fn digest_mapper() -> impl Mapper<(u64, u64), u64, u64> {
    FnMapper(|&(idx, key): &(u64, u64), emit: &mut dyn FnMut(u64, u64)| emit(key, idx))
}

/// One round over [`indexed`] inputs into the [`digest_reducer`], on the
/// columnar engine. Panics if `config`'s reducer budget overflows.
pub fn digest_round(inputs: &[(u64, u64)], config: &EngineConfig) -> DigestOutput {
    run_round(inputs, &digest_mapper(), &digest_reducer(), config).expect("no q bound set")
}

/// [`digest_round`] on the [`naive`] oracle.
pub fn digest_round_naive(inputs: &[(u64, u64)], config: &EngineConfig) -> DigestOutput {
    run_round_naive(inputs, &digest_mapper(), &digest_reducer(), config).expect("no q bound set")
}

/// A digest round's outputs and metrics.
pub type DigestOutput = (Vec<(u64, u64, u64)>, RoundMetrics);

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
    fn assign(&self, x: &u64) -> Vec<u64> {
        let set: BTreeSet<u64> = (0..self.reps)
            .map(|j| x.wrapping_mul(2 * j + 7).wrapping_add(j) % self.groups)
            .collect();
        set.into_iter().collect()
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
