//! The matrix-multiplication model instance and the one-phase algorithm
//! (§6.1, §6.2), for `R` (`m×n`) times `S` (`n×p`); the paper's square
//! case is `m = n = p`.
//!
//! The §6.1 rectangle argument never uses squareness: a reducer covering
//! outputs in `w` rows and `h` columns needs `n(w+h) ≤ q` inputs and
//! covers `w·h` outputs, so `g(q) = q²/(4n²)` and
//!
//! ```text
//! r ≥ q·|O| / (g(q)·|I|) = 4·n·m·p / (q·(m + p))
//! ```
//!
//! which is the paper's `2n²/q` at `m = n = p`. The matching one-phase
//! schema tiles rows into groups of `sr` and columns into groups of `sc`;
//! square output tiles stay optimal (`w = h` in the bound).
//!
//! Every matmul round that reads matrix entries — the one-phase schema
//! here, §6.3's phase 1 in [`two_phase`](super::two_phase) and
//! [`recursive`](super::recursive) — assigns and multiplies through one
//! cube tiling, `Cubes`: the one-phase tiling is phase 1 with a single
//! block of `t = n` j-values.

use super::matrix::Matrix;
use crate::model::{MappingSchema, Problem, ReducerId};
use crate::recipe::LowerBoundRecipe;
use mr_sim::schema::SchemaJob;
use mr_sim::{run_schema, EngineConfig, EngineError, RoundMetrics};

/// One potential input: an entry of `R` or of `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatEntry {
    /// `R[i][j]`, `i < m`, `j < n`.
    R(u32, u32),
    /// `S[j][k]`, `j < n`, `k < p`.
    S(u32, u32),
}

/// The `m×n · n×p` matrix multiplication problem: `|I| = (m + p)n`,
/// `|O| = mp`, and output `(i, k)` depends on row `i` of `R` and column
/// `k` of `S`.
#[derive(Debug, Clone, Copy)]
pub struct MatMulProblem {
    /// Rows of `R` (and of the output).
    pub m: u32,
    /// Inner dimension — the side length in the square case.
    pub n: u32,
    /// Columns of `S` (and of the output).
    pub p: u32,
}

impl MatMulProblem {
    /// The square `n×n` problem.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        MatMulProblem::rectangular(n, n, n)
    }

    /// The `m×n · n×p` problem.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn rectangular(m: u32, n: u32, p: u32) -> Self {
        assert!(m > 0 && n > 0 && p > 0, "matrices must be non-empty");
        MatMulProblem { m, n, p }
    }

    /// `|I| = (m + p)n` — `2n²` when square.
    pub fn closed_form_inputs(&self) -> u64 {
        (self.m as u64 + self.p as u64) * self.n as u64
    }

    /// `|O| = mp`.
    pub fn closed_form_outputs(&self) -> u64 {
        self.m as u64 * self.p as u64
    }

    /// The §6.1 recipe: `g(q) = q²/(4n²)`.
    pub fn recipe(&self) -> LowerBoundRecipe {
        let n = self.n as f64;
        LowerBoundRecipe::new(
            move |q| q * q / (4.0 * n * n),
            self.closed_form_inputs() as f64,
            self.closed_form_outputs() as f64,
        )
    }
}

impl Problem for MatMulProblem {
    type Input = MatEntry;
    type Output = (u32, u32);

    fn inputs(&self) -> Vec<MatEntry> {
        let mut v = Vec::with_capacity(self.closed_form_inputs() as usize);
        for i in 0..self.m {
            for j in 0..self.n {
                v.push(MatEntry::R(i, j));
            }
        }
        for j in 0..self.n {
            for k in 0..self.p {
                v.push(MatEntry::S(j, k));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::with_capacity(self.closed_form_outputs() as usize);
        for i in 0..self.m {
            for k in 0..self.p {
                v.push((i, k));
            }
        }
        v
    }

    fn inputs_of(&self, o: &(u32, u32)) -> Vec<MatEntry> {
        let (i, k) = *o;
        let mut v = Vec::with_capacity(2 * self.n as usize);
        for j in 0..self.n {
            v.push(MatEntry::R(i, j));
        }
        for j in 0..self.n {
            v.push(MatEntry::S(j, k));
        }
        v
    }

    fn num_inputs(&self) -> u64 {
        self.closed_form_inputs()
    }

    fn num_outputs(&self) -> u64 {
        self.closed_form_outputs()
    }
}

/// §6.1: the lower bound `r ≥ 2n²/q`.
pub fn lower_bound_r(n: u32, q: f64) -> f64 {
    2.0 * (n as f64) * (n as f64) / q
}

/// §6.1 for `m×n · n×p`: `r ≥ 4·n·m·p / (q·(m+p))`, which is
/// [`lower_bound_r`] at `m = n = p`.
pub fn rect_lower_bound(m: u32, n: u32, p: u32, q: f64) -> f64 {
    4.0 * n as f64 * m as f64 * p as f64 / (q * (m as f64 + p as f64))
}

/// §6.3: total communication of the optimal one-phase method,
/// `r · |I| = (2n²/q) · 2n² = 4n⁴/q`.
pub fn one_phase_communication(n: u32, q: f64) -> f64 {
    let n = n as f64;
    4.0 * n.powi(4) / q
}

/// A concrete numeric input for simulator runs: an entry with its value.
pub type NumericEntry = (MatEntry, [u8; 8]);

/// A partial or final output cell `(i, k, f64 bits)`.
pub type Cell = (u32, u32, [u8; 8]);

/// The tiling of the `(i, j, k)` cube into blocks of `sr` rows × `sc`
/// columns × `t` j-values, one reducer per block. At `t = n` a block is
/// one row band of `R` against one column band of `S` — the §6.2
/// one-phase tiling; below it, §6.3's phase 1.
#[derive(Debug, Clone, Copy)]
pub(super) struct Cubes {
    sr: u32,
    sc: u32,
    t: u32,
    row_blocks: u64,
    col_blocks: u64,
    j_blocks: u64,
}

impl Cubes {
    /// Tiles `dims`; each block side must divide its dimension (the
    /// callers' constructors check it).
    pub(super) fn new(dims: MatMulProblem, sr: u32, sc: u32, t: u32) -> Self {
        Cubes {
            sr,
            sc,
            t,
            row_blocks: (dims.m / sr) as u64,
            col_blocks: (dims.p / sc) as u64,
            j_blocks: (dims.n / t) as u64,
        }
    }

    fn id(&self, bi: u64, bk: u64, bj: u64) -> ReducerId {
        (bi * self.col_blocks + bk) * self.j_blocks + bj
    }

    /// The j-block a cube's partial sums cover.
    pub(super) fn j_block(&self, cube: ReducerId) -> u32 {
        (cube % self.j_blocks) as u32
    }

    /// The cubes `entry` is sent to: `R[i][j]` to every column block of
    /// its row and j blocks, `S[j][k]` to every row block of its j and
    /// column blocks.
    pub(super) fn assign(&self, entry: &MatEntry) -> impl Iterator<Item = ReducerId> {
        let me = *self;
        let (is_r, fixed, bj, count) = match *entry {
            MatEntry::R(i, j) => (true, i / me.sr, j / me.t, me.col_blocks),
            MatEntry::S(j, k) => (false, k / me.sc, j / me.t, me.row_blocks),
        };
        let (fixed, bj) = (fixed as u64, bj as u64);
        (0..count).map(move |b| {
            if is_r {
                me.id(fixed, b, bj)
            } else {
                me.id(b, fixed, bj)
            }
        })
    }

    /// The block product of `cube`: each of its `sr × sc` cells in
    /// row-major order, summing `r_ij·s_jk` over the cube's `t` j-values
    /// in ascending `j`.
    pub(super) fn product<'a>(
        &self,
        cube: ReducerId,
        entries: impl IntoIterator<Item = &'a NumericEntry>,
        mut emit: impl FnMut(Cell),
    ) {
        let bj = cube % self.j_blocks;
        let bk = (cube / self.j_blocks) % self.col_blocks;
        let bi = cube / self.j_blocks / self.col_blocks;
        let (sr, sc, t) = (self.sr as usize, self.sc as usize, self.t as usize);
        let (row0, col0, j0) = (bi as usize * sr, bk as usize * sc, bj as usize * t);
        let mut rblock = vec![0.0f64; sr * t];
        let mut sblock = vec![0.0f64; t * sc];
        for (e, bits) in entries {
            let val = f64::from_bits(u64::from_be_bytes(*bits));
            match *e {
                MatEntry::R(i, j) => rblock[(i as usize - row0) * t + (j as usize - j0)] = val,
                MatEntry::S(j, k) => sblock[(j as usize - j0) * sc + (k as usize - col0)] = val,
            }
        }
        for di in 0..sr {
            for dk in 0..sc {
                let mut acc = 0.0;
                for dj in 0..t {
                    acc += rblock[di * t + dj] * sblock[dj * sc + dk];
                }
                emit((
                    (row0 + di) as u32,
                    (col0 + dk) as u32,
                    acc.to_bits().to_be_bytes(),
                ));
            }
        }
    }
}

/// The one-phase tiling (§6.2): rows of `R` in groups of `sr`, columns of
/// `S` in groups of `sc`; one reducer per group pair. `q = n(sr + sc)`;
/// square with `sr = sc = s` that is `q = 2sn` and `r = n/s = 2n²/q` —
/// exactly the lower bound.
#[derive(Debug, Clone, Copy)]
pub struct OnePhaseSchema {
    /// Problem dimensions.
    pub dims: MatMulProblem,
    /// Row-group size (divides `m`).
    pub sr: u32,
    /// Column-group size (divides `p`).
    pub sc: u32,
}

impl OnePhaseSchema {
    /// The square schema: `n×n` matrices, groups of `s`.
    ///
    /// # Panics
    /// Panics unless `s` divides `n`.
    pub fn new(n: u32, s: u32) -> Self {
        OnePhaseSchema::rectangular(MatMulProblem::new(n), s, s)
    }

    /// The schema for `dims` with row groups of `sr` and column groups of
    /// `sc`.
    ///
    /// # Panics
    /// Panics unless `sr | m` and `sc | p`.
    pub fn rectangular(dims: MatMulProblem, sr: u32, sc: u32) -> Self {
        assert!(
            sr >= 1 && sr <= dims.m && dims.m.is_multiple_of(sr),
            "sr={sr} must divide m={}",
            dims.m
        );
        assert!(
            sc >= 1 && sc <= dims.p && dims.p.is_multiple_of(sc),
            "sc={sc} must divide p={}",
            dims.p
        );
        OnePhaseSchema { dims, sr, sc }
    }

    /// Reducer size `q = n(sr + sc)`.
    pub fn q(&self) -> u64 {
        self.dims.n as u64 * (self.sr as u64 + self.sc as u64)
    }

    /// Exact replication rate `(mn·(p/sc) + np·(m/sr)) / ((m + p)n)` —
    /// `n/s` when square.
    pub fn replication(&self) -> f64 {
        let (m, n, p) = (self.dims.m as u64, self.dims.n as u64, self.dims.p as u64);
        let assignments = m * n * (p / self.sc as u64) + n * p * (m / self.sr as u64);
        assignments as f64 / self.dims.closed_form_inputs() as f64
    }

    fn cubes(&self) -> Cubes {
        Cubes::new(self.dims, self.sr, self.sc, self.dims.n)
    }
}

impl MappingSchema<MatMulProblem> for OnePhaseSchema {
    fn assign(&self, input: &MatEntry) -> Vec<ReducerId> {
        self.cubes().assign(input).collect()
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.q()
    }

    fn name(&self) -> String {
        let MatMulProblem { m, n, p } = self.dims;
        if m == n && n == p && self.sr == self.sc {
            format!("one-phase(n={n}, s={})", self.sr)
        } else {
            format!(
                "one-phase(m={m}, n={n}, p={p}, sr={}, sc={})",
                self.sr, self.sc
            )
        }
    }
}

impl SchemaJob<NumericEntry, Cell> for OnePhaseSchema {
    fn assign(&self, input: &NumericEntry) -> Vec<ReducerId> {
        self.cubes().assign(&input.0).collect()
    }

    fn reduce(&self, reducer: ReducerId, inputs: &[NumericEntry], emit: &mut dyn FnMut(Cell)) {
        self.cubes().product(reducer, inputs, emit);
    }
}

/// Packs `R` (`m×n`) and `S` (`n×p`) into simulator inputs in
/// [`MatMulProblem::inputs`] order (values carried as `f64` bits so the
/// input type stays `Ord` for the engine's deterministic shuffle).
///
/// # Panics
/// Panics unless `R` has as many columns as `S` has rows.
pub fn numeric_inputs(r: &Matrix, s: &Matrix) -> Vec<NumericEntry> {
    assert_eq!(r.cols(), s.rows(), "R's columns must match S's rows");
    let dims = MatMulProblem::rectangular(r.rows() as u32, r.cols() as u32, s.cols() as u32);
    dims.inputs()
        .into_iter()
        .map(|e| {
            let value = match e {
                MatEntry::R(i, j) => r[(i as usize, j as usize)],
                MatEntry::S(j, k) => s[(j as usize, k as usize)],
            };
            (e, value.to_bits().to_be_bytes())
        })
        .collect()
}

/// The `rows×cols` matrix a round's output cells describe.
pub(super) fn assemble(rows: usize, cols: usize, cells: impl IntoIterator<Item = Cell>) -> Matrix {
    let mut out = Matrix::with_shape(rows, cols, vec![0.0; rows * cols]);
    for (i, k, bits) in cells {
        out[(i as usize, k as usize)] = f64::from_bits(u64::from_be_bytes(bits));
    }
    out
}

/// Runs the one-phase algorithm end to end on `R` (`m×n`) and `S`
/// (`n×p`), returning the `m×p` product and the round metrics.
pub fn run_one_phase(
    r: &Matrix,
    s: &Matrix,
    schema: &OnePhaseSchema,
    config: &EngineConfig,
) -> Result<(Matrix, RoundMetrics), EngineError> {
    let (cells, metrics) = run_schema(&numeric_inputs(r, s), schema, config)?;
    Ok((assemble(r.rows(), s.cols(), cells), metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use crate::recipe::max_outputs_covered;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        Matrix::with_shape(rows, cols, data)
    }

    #[test]
    fn counts_match_closed_forms() {
        let p = MatMulProblem::new(5);
        assert_eq!(p.inputs().len() as u64, 50);
        assert_eq!(p.outputs().len() as u64, 25);
        assert_eq!(p.inputs_of(&(0, 0)).len(), 10);
    }

    #[test]
    fn rectangular_counts_match_closed_forms() {
        let p = MatMulProblem::rectangular(4, 6, 8);
        assert_eq!(p.inputs().len() as u64, p.num_inputs());
        assert_eq!(p.outputs().len() as u64, p.num_outputs());
        assert_eq!(p.num_inputs(), (4 + 8) * 6);
        assert_eq!(p.num_outputs(), 32);
        assert_eq!(p.inputs_of(&(0, 0)).len(), 12);
    }

    #[test]
    fn g_bound_holds_empirically() {
        // §6.1 rectangle argument probed exhaustively at n = 2: 8 inputs.
        let p = MatMulProblem::new(2);
        for q in 1..=8usize {
            let actual = max_outputs_covered(&p, q) as f64;
            // Exact discrete version of the square bound: with q inputs
            // you get at most ⌊q/(2n)⌋² + slack outputs; g(q) = q²/(4n²)
            // only binds at multiples of 2n, so compare there.
            if q % 4 == 0 {
                let bound = (q * q) as f64 / 16.0;
                assert!(actual <= bound + 1e-9, "q={q}: {actual} > {bound}");
            }
        }
        // The square reducer achieves it: q=4 (one row + one col) → 1.
        assert_eq!(max_outputs_covered(&p, 4), 1);
        assert_eq!(max_outputs_covered(&p, 8), 4);
    }

    #[test]
    fn one_phase_schema_valid_and_tight() {
        let n = 8;
        let p = MatMulProblem::new(n);
        for s in [1u32, 2, 4, 8] {
            let schema = OnePhaseSchema::new(n, s);
            let report = validate_schema(&p, &schema);
            assert!(report.is_valid(), "s={s}: {report:?}");
            // Exactly on the lower bound: r = 2n²/q.
            let expected = lower_bound_r(n, schema.q() as f64);
            assert!(
                (report.replication_rate - expected).abs() < 1e-9,
                "s={s}: r={} vs bound {expected}",
                report.replication_rate
            );
            // Load is exactly 2sn per reducer.
            assert_eq!(report.max_load, schema.q());
        }
    }

    #[test]
    fn one_phase_computes_correct_product() {
        let n = 12;
        let a = Matrix::random(n, 3);
        let b = Matrix::random(n, 4);
        let expected = a.multiply(&b);
        for s in [2u32, 3, 6] {
            let schema = OnePhaseSchema::new(n as u32, s);
            let (got, metrics) =
                run_one_phase(&a, &b, &schema, &EngineConfig::sequential()).unwrap();
            assert!(got.max_abs_diff(&expected) < 1e-9, "s={s}: wrong product");
            // Communication = r·|I| = (n/s)·2n².
            let expected_comm = (n as u64 / s as u64) * 2 * (n as u64).pow(2);
            assert_eq!(metrics.kv_pairs, expected_comm);
        }
    }

    #[test]
    fn one_phase_parallel_matches_sequential() {
        let n = 8;
        let a = Matrix::random(n, 5);
        let b = Matrix::random(n, 6);
        let schema = OnePhaseSchema::new(n as u32, 2);
        let (seq, m1) = run_one_phase(&a, &b, &schema, &EngineConfig::sequential()).unwrap();
        let (par, m2) = run_one_phase(&a, &b, &schema, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(seq, par);
        assert_eq!(m1, m2);
    }

    #[test]
    fn extreme_q_values() {
        // §6.2: q = 2n² → one reducer, r = 1.
        let n = 6;
        let p = MatMulProblem::new(n);
        let schema = OnePhaseSchema::new(n, n);
        let report = validate_schema(&p, &schema);
        assert!(report.is_valid());
        assert_eq!(report.num_reducers, 1);
        assert!((report.replication_rate - 1.0).abs() < 1e-9);
        // And the bound agrees: 2n²/(2n²) = 1.
        assert!((lower_bound_r(n, (2 * n * n) as f64) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_reduces_to_square_case() {
        for n in [8u32, 16] {
            for q in [32.0, 64.0] {
                let rect = rect_lower_bound(n, n, n, q);
                let square = lower_bound_r(n, q);
                assert!(
                    (rect - square).abs() < 1e-9,
                    "n={n} q={q}: {rect} vs {square}"
                );
            }
        }
    }

    #[test]
    fn schema_valid_and_replication_matches_formula() {
        let dims = MatMulProblem::rectangular(6, 4, 10);
        for (sr, sc) in [(1u32, 1u32), (2, 5), (3, 2), (6, 10)] {
            let schema = OnePhaseSchema::rectangular(dims, sr, sc);
            let report = validate_schema(&dims, &schema);
            assert!(report.is_valid(), "(sr={sr},sc={sc}): {report:?}");
            assert!(
                (report.replication_rate - schema.replication()).abs() < 1e-9,
                "(sr={sr},sc={sc}): measured {} vs formula {}",
                report.replication_rate,
                schema.replication()
            );
            assert_eq!(report.max_load, schema.q());
        }
    }

    #[test]
    fn replication_respects_generalised_lower_bound() {
        let dims = MatMulProblem::rectangular(8, 4, 12);
        let recipe = dims.recipe();
        for (sr, sc) in [(2u32, 3u32), (4, 6), (8, 12)] {
            let schema = OnePhaseSchema::rectangular(dims, sr, sc);
            let report = validate_schema(&dims, &schema);
            let bound = recipe.clamped_lower_bound(report.max_load as f64);
            assert!(
                report.replication_rate >= bound - 1e-9,
                "(sr={sr},sc={sc}): r={} < bound {bound}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn balanced_tiles_are_cheapest_at_equal_budget() {
        // For m = p, sr = sc dominates skewed tiles with the same q.
        let dims = MatMulProblem::rectangular(12, 4, 12);
        let balanced = OnePhaseSchema::rectangular(dims, 4, 4); // q = 32
        let skewed = OnePhaseSchema::rectangular(dims, 2, 6); // q = 32
        assert_eq!(balanced.q(), skewed.q());
        assert!(balanced.replication() < skewed.replication());
    }

    #[test]
    fn numeric_product_is_exact() {
        let (m, n, p) = (6usize, 5usize, 8usize);
        let r = random_matrix(m, n, 1);
        let s = random_matrix(n, p, 2);
        let expected = r.multiply(&s);
        let dims = MatMulProblem::rectangular(m as u32, n as u32, p as u32);
        for (sr, sc) in [(2u32, 4u32), (3, 2), (6, 8)] {
            let schema = OnePhaseSchema::rectangular(dims, sr, sc);
            for cfg in [EngineConfig::sequential(), EngineConfig::parallel(3)] {
                let (got, _) = run_one_phase(&r, &s, &schema, &cfg).unwrap();
                let max_diff = got.max_abs_diff(&expected);
                assert!(max_diff < 1e-9, "(sr={sr},sc={sc}): diff {max_diff}");
            }
        }
    }

    #[test]
    fn tall_skinny_case() {
        // m >> p: the bound 4nmp/(q(m+p)) ≈ 4np/q — dominated by the
        // smaller dimension, and the schema still matches.
        let dims = MatMulProblem::rectangular(32, 4, 2);
        let schema = OnePhaseSchema::rectangular(dims, 8, 2);
        let report = validate_schema(&dims, &schema);
        assert!(report.is_valid());
        let bound = rect_lower_bound(32, 4, 2, report.max_load as f64);
        assert!(report.replication_rate >= bound - 1e-9);
        // Within a small constant (tile shape can't be perfectly square
        // when p is tiny).
        assert!(report.replication_rate <= 4.0 * bound);
    }
}
