//! The evidence store and power-iteration engine behind EigenTrust and
//! PowerTrust.
//!
//! Both mechanisms keep the same evidence: per-(rater, ratee) cells in a
//! [`LocalMatrix`], per-ratee pools of anonymous reports blended in by
//! the identified share, and an opinion cache that a walk refreshes only
//! when the evidence moved. [`EvidenceStore`] owns all of it; a
//! mechanism adds its [`EvidenceCell`] type and the solve step that
//! plans its walks' teleports.
//!
//! [`WalkMatrix`] is the walk: `rebuild` flattens the cells in one pass
//! into row-normalized edges, grouped into fixed-width ratee blocks, in
//! resident buffers; `stationary` iterates them with resident ping-pong
//! buffers, one block per work item on the caller's workers. Every slot
//! accumulates in ascending (rater, ratee) order — the fixed
//! accumulation order that makes every refresh reproducible
//! bit-for-bit across runs, processes and worker counts.

use crate::gathering::ReportView;
use crate::local_matrix::{LocalMatrix, UpsertMemo};
use crate::mechanism::drained;
use tsn_simnet::steal::for_each_chunk_mut;
use tsn_simnet::{ByteReader, ByteWriter, NodeId};

/// Ratee slots per block: a block's 64 KiB slice of `next` stays in the
/// core's cache while its edges scatter into it.
pub(crate) const BLOCK: usize = 8192;

/// One walk edge: the rater, the ratee's offset within its block and the
/// normalized trust `c_ij`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    rater: u32,
    slot: u32,
    c: f64,
}

/// A row-normalized walk matrix as a flat edge list per ratee block,
/// plus the iteration buffers. Rebuilt in place from the mutable
/// [`LocalMatrix`] on every refresh; cloneable (flat buffers) so
/// mechanisms stay cloneable.
///
/// A CSR walk spends its time leaving short rows (2–4 edges each, a
/// mispredicted loop exit per row), not scattering; here each block is
/// one fixed-length loop over its edges, and blocks are independent
/// work items because each owns its slice of `next`.
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkMatrix {
    /// Number of nodes (rows and ratees).
    n: usize,
    /// Edges into ratees `b·BLOCK .. (b+1)·BLOCK` in `blocks[b]`, in
    /// ascending (rater, ratee) order.
    blocks: Vec<Vec<Edge>>,
    /// Raters without positive outgoing trust, ascending: their walk
    /// mass teleports.
    dangling: Vec<u32>,
    /// Ping-pong iteration buffers.
    t: Vec<f64>,
    next: Vec<f64>,
}

impl WalkMatrix {
    /// Rebuilds the edge blocks from the first `n` rows of `local`.
    /// Cells with walk weight ≤ 0 carry no edge; each edge is normalized
    /// by its row's positive-weight sum (accumulated in ascending-ratee
    /// order); rows without any positive weight are dangling. The same
    /// traversal appends each rated cell's (rater, ratee, value mean) to
    /// `means` in ascending (rater, ratee) order.
    pub fn rebuild<C: EvidenceCell>(
        &mut self,
        n: usize,
        local: &LocalMatrix<C>,
        means: &mut Vec<(u32, u32, f64)>,
    ) {
        self.blocks.resize_with(n.div_ceil(BLOCK), Vec::new);
        for block in &mut self.blocks {
            block.clear();
        }
        self.dangling.clear();
        for i in 0..n {
            let row = local.row(i);
            let mut sum = 0.0;
            for (j, cell) in row {
                if let Some(mean) = cell.value_mean() {
                    means.push((i as u32, *j, mean));
                }
                let w = cell.weight();
                if w > 0.0 {
                    sum += w;
                }
            }
            if sum == 0.0 {
                // No positive weight (positive weights never sum to 0).
                self.dangling.push(i as u32);
                continue;
            }
            // Re-read the cache-hot row for its normalized edges.
            for (j, cell) in row {
                let w = cell.weight();
                if w > 0.0 {
                    let j = *j as usize;
                    self.blocks[j / BLOCK].push(Edge {
                        rater: i as u32,
                        slot: (j % BLOCK) as u32,
                        c: w / sum,
                    });
                }
            }
        }
        self.n = n;
    }

    /// Runs `t ← (1 − damping) tᵀC + damping · teleport` from
    /// `t = teleport` until the L1 change drops below `epsilon` or
    /// `max_iterations` is reached, with the ratee blocks of each
    /// iteration spread over up to `workers` threads. Returns the
    /// iteration count; the final vector is available via
    /// [`WalkMatrix::solution`]. The result is bit-identical for every
    /// worker count: each slot has one writer and receives its adds in
    /// ascending rater order, and the two sums (dangling mass, L1
    /// change) run serially in slot order on the calling thread.
    pub fn stationary(
        &mut self,
        teleport: &[f64],
        damping: f64,
        epsilon: f64,
        max_iterations: usize,
        workers: usize,
    ) -> usize {
        debug_assert_eq!(teleport.len(), self.n);
        self.t.clear();
        self.t.extend_from_slice(teleport);
        self.next.clear();
        self.next.resize(self.n, 0.0);
        let blocks = &self.blocks;
        let mut iterations = 0;
        for _ in 0..max_iterations {
            iterations += 1;
            let t: &[f64] = &self.t;
            // Dangling raters' mass is summed once and spread by the
            // teleport, keeping the iteration O(n + nnz) even when most
            // nodes are not yet raters.
            let mut dangling = 0.0;
            for &i in &self.dangling {
                dangling += t[i as usize];
            }
            // tᵀ C (walk forward along trust edges), then the dangling
            // spread and the damping, one ratee block per work item.
            for_each_chunk_mut(&mut self.next, BLOCK, workers, |offset, next| {
                next.fill(0.0);
                for edge in &blocks[offset / BLOCK] {
                    next[edge.slot as usize] += t[edge.rater as usize] * edge.c;
                }
                let teleport = &teleport[offset..offset + next.len()];
                if dangling != 0.0 {
                    for (next_k, &teleport_k) in next.iter_mut().zip(teleport) {
                        *next_k += dangling * teleport_k;
                    }
                }
                for (next_k, &teleport_k) in next.iter_mut().zip(teleport) {
                    *next_k = (1.0 - damping) * *next_k + damping * teleport_k;
                }
            });
            let mut delta = 0.0;
            for (&next_k, &t_k) in self.next.iter().zip(t) {
                delta += (next_k - t_k).abs();
            }
            std::mem::swap(&mut self.t, &mut self.next);
            if delta < epsilon {
                break;
            }
        }
        iterations
    }

    /// The stationary vector computed by the last
    /// [`WalkMatrix::stationary`] call.
    pub fn solution(&self) -> &[f64] {
        &self.t
    }
}

/// One (rater, ratee) cell of a walk mechanism's evidence.
pub(crate) trait EvidenceCell: Default {
    /// Folds one identified report into the cell.
    fn add(&mut self, report: &ReportView);

    /// The raw walk weight; a cell weighing ≤ 0 carries no edge.
    fn weight(&self) -> f64;

    /// The mean reported value, `None` before the first report.
    fn value_mean(&self) -> Option<f64>;
}

/// The evidence and score caches a walk mechanism keeps, generic over
/// its cell type so the record and refresh loops stay monomorphised.
#[derive(Debug, Clone)]
pub(crate) struct EvidenceStore<C> {
    n: usize,
    /// Sparse local trust, updated in place by `record_batch`.
    local: LocalMatrix<C>,
    /// Per-ratee anonymous pool: (sum of values, count).
    anon: Vec<(f64, u64)>,
    /// Count of identified vs anonymous reports, for blending.
    identified_reports: u64,
    anonymous_reports: u64,
    /// The last walk's solution (a distribution over nodes).
    global: Vec<f64>,
    /// Cached trust-weighted opinion per node: (weighted value sum, weight).
    opinion: Vec<(f64, f64)>,
    /// Set by a report or a growth since the last walk.
    dirty: bool,
    last_iterations: usize,
    /// The power-iteration engine, resident across refreshes.
    walk: WalkMatrix,
    /// Flat (rater, ratee, value mean) image of the rated cells, taken
    /// by the walk rebuild for the opinion pass.
    opinion_src: Vec<(u32, u32, f64)>,
}

impl<C: EvidenceCell> EvidenceStore<C> {
    /// An empty store for `n` nodes, dirty so the first refresh walks.
    pub fn new(n: usize) -> Self {
        EvidenceStore {
            n,
            local: LocalMatrix::new(n),
            anon: vec![(0.0, 0); n],
            identified_reports: 0,
            anonymous_reports: 0,
            global: vec![1.0 / n.max(1) as f64; n],
            opinion: vec![(0.0, 0.0); n],
            dirty: true,
            last_iterations: 0,
            walk: WalkMatrix::default(),
            opinion_src: Vec::new(),
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Grows to `n` nodes, returning whether it grew.
    pub fn resize(&mut self, n: usize) -> bool {
        if n <= self.n {
            return false;
        }
        self.n = n;
        self.local.resize(n);
        self.anon.resize(n, (0.0, 0));
        self.opinion.resize(n, (0.0, 0.0));
        self.global = vec![1.0 / n as f64; n];
        self.dirty = true;
        true
    }

    /// Ingests one report view.
    pub fn record(&mut self, report: &ReportView) {
        self.record_memo(report, &mut UpsertMemo::default());
    }

    /// Ingests report views in order. One memo spans the batch: runs of
    /// identical (rater, ratee) keys — ballot-stuffed copies, shard
    /// outboxes in rater order — reuse the found cell instead of
    /// re-searching the row. The per-cell float adds are issued in the
    /// same order as one call per report, so scores stay bit-identical.
    pub fn record_batch(&mut self, reports: &[ReportView]) {
        let mut memo = UpsertMemo::default();
        for report in reports {
            self.record_memo(report, &mut memo);
        }
    }

    fn record_memo(&mut self, report: &ReportView, memo: &mut UpsertMemo) {
        let ratee = report.ratee.0;
        debug_assert!((ratee as usize) < self.n, "ratee out of range");
        match report.rater {
            Some(rater) if rater != report.ratee => {
                self.local.upsert_memo(rater.0, ratee, memo).add(report);
                self.identified_reports += 1;
            }
            Some(_) => { /* self-rating is ignored */ }
            None => {
                let entry = &mut self.anon[ratee as usize];
                entry.0 += report.value();
                entry.1 += 1;
                self.anonymous_reports += 1;
            }
        }
        self.dirty = true;
    }

    /// Walks if dirty and returns the iterations of the latest walk: it
    /// rebuilds the matrix, runs `solve` (the mechanism's walks over the
    /// matrix and `n`, returning their iterations), caches the solution
    /// and recomputes the opinion cache. A walk restarts from its
    /// teleport vector and reads only state that sets `dirty` when it
    /// moves, so a clean store's caches already hold what it would give.
    pub fn refresh(&mut self, solve: impl FnOnce(&mut WalkMatrix, usize) -> usize) -> usize {
        if !self.dirty {
            return self.last_iterations;
        }
        self.dirty = false;
        let n = self.n;
        if n == 0 {
            self.last_iterations = 0;
            return 0;
        }
        self.opinion_src.clear();
        self.walk.rebuild(n, &self.local, &mut self.opinion_src);
        self.last_iterations = solve(&mut self.walk, n);
        self.global.clear();
        self.global.extend_from_slice(self.walk.solution());
        // The opinion aggregation for O(1) scoring: each rater's mean,
        // weighted by its walk mass, over the flat (rater, ratee) image
        // in deterministic order.
        self.opinion.clear();
        self.opinion.resize(n, (0.0, 0.0));
        for &(i, j, mean) in &self.opinion_src {
            // Floor on rater weight so fresh raters are heard faintly.
            let w = self.global[i as usize].max(1e-6);
            let slot = &mut self.opinion[j as usize];
            slot.0 += w * mean;
            slot.1 += w;
        }
        self.last_iterations
    }

    /// The latest walk's solution (sums to 1).
    pub fn global(&self) -> &[f64] {
        &self.global
    }

    /// The system's opinion about `node`: the walk-weighted mean of the
    /// identified reports (colluders with no walk mass cannot move it),
    /// blended with the anonymous pool mean by the identified share of
    /// all reports. Missing evidence and unknown nodes read 0.5.
    pub fn score(&self, node: NodeId) -> f64 {
        if node.index() >= self.n {
            return 0.5;
        }
        let (weighted, weight) = self.opinion[node.index()];
        let identified = if weight > 0.0 { weighted / weight } else { 0.5 };
        let total = self.identified_reports + self.anonymous_reports;
        let w = if total == 0 {
            1.0
        } else {
            self.identified_reports as f64 / total as f64
        };
        let (sum, count) = self.anon[node.index()];
        let anon_mean = if count > 0 { sum / count as f64 } else { 0.5 };
        w * identified + (1.0 - w) * anon_mean
    }

    /// Encodes n, the rows (length, then ratee and `put_cell` per cell),
    /// the anonymous pools, the two counters and the score caches
    /// (`global`, `opinion`, `dirty`, `last_iterations`): `score` reads
    /// the caches without refreshing, so a restore must carry them.
    /// `walk` and `opinion_src` are rebuilt by every walk and stay home.
    pub fn snapshot(&self, put_cell: impl Fn(&mut ByteWriter, &C)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.n as u64);
        for i in 0..self.n {
            let row = self.local.row(i);
            w.put_u64(row.len() as u64);
            for (j, cell) in row {
                w.put_u32(*j);
                put_cell(&mut w, cell);
            }
        }
        for &(sum, count) in &self.anon {
            w.put_f64(sum);
            w.put_u64(count);
        }
        w.put_u64(self.identified_reports);
        w.put_u64(self.anonymous_reports);
        for &g in &self.global {
            w.put_f64(g);
        }
        for &(weighted, weight) in &self.opinion {
            w.put_f64(weighted);
            w.put_f64(weight);
        }
        w.put_u8(self.dirty as u8);
        w.put_u64(self.last_iterations as u64);
        w.finish()
    }

    /// Restores what [`EvidenceStore::snapshot`] wrote onto a store of
    /// the same size, reading each cell (`cell_bytes` long) with
    /// `take_cell`. Errors name `mechanism` and reject a size mismatch,
    /// truncation, a misplaced ratee and trailing bytes; on an error the
    /// store is unchanged, because every field is decoded before any is
    /// committed.
    pub fn restore(
        &mut self,
        bytes: &[u8],
        mechanism: &str,
        cell_bytes: usize,
        take_cell: impl Fn(&mut ByteReader) -> Result<C, String>,
    ) -> Result<(), String> {
        let mut r = ByteReader::new(bytes);
        let n = r.take_u64()? as usize;
        if n != self.n {
            return Err(format!(
                "{mechanism} snapshot is for {n} nodes, instance has {}",
                self.n
            ));
        }
        let mut local = LocalMatrix::new(n);
        for i in 0..n {
            let len = r.take_seq_len(4 + cell_bytes)?;
            for _ in 0..len {
                let j = r.take_u32()?;
                local
                    .push(i, j, take_cell(&mut r)?)
                    .map_err(|e| format!("{mechanism} snapshot {e}"))?;
            }
        }
        let mut anon = Vec::with_capacity(n);
        for _ in 0..n {
            anon.push((r.take_f64()?, r.take_u64()?));
        }
        let identified_reports = r.take_u64()?;
        let anonymous_reports = r.take_u64()?;
        let mut global = Vec::with_capacity(n);
        for _ in 0..n {
            global.push(r.take_f64()?);
        }
        let mut opinion = Vec::with_capacity(n);
        for _ in 0..n {
            opinion.push((r.take_f64()?, r.take_f64()?));
        }
        let dirty = r.take_u8()? != 0;
        let last_iterations = r.take_u64()? as usize;
        drained(&r, mechanism)?;
        self.local = local;
        self.anon = anon;
        self.identified_reports = identified_reports;
        self.anonymous_reports = anonymous_reports;
        self.global = global;
        self.opinion = opinion;
        self.dirty = dirty;
        self.last_iterations = last_iterations;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EvidenceCell for f64 {
        fn add(&mut self, report: &ReportView) {
            *self += report.value();
        }
        fn weight(&self) -> f64 {
            *self
        }
        fn value_mean(&self) -> Option<f64> {
            Some(*self)
        }
    }

    fn matrix(n: usize, edges: &[(u32, u32, f64)]) -> LocalMatrix<f64> {
        let mut m = LocalMatrix::new(n);
        for &(i, j, w) in edges {
            *m.upsert(i, j) += w;
        }
        m
    }

    /// A direct transcription of the nested implementation (with the
    /// same summed-dangling-mass teleport the engine uses), kept as the
    /// reference the blocked edge-list engine must match bit-for-bit.
    fn reference_stationary(
        n: usize,
        local: &LocalMatrix<f64>,
        teleport: &[f64],
        damping: f64,
        epsilon: f64,
        max_iterations: usize,
    ) -> (Vec<f64>, usize) {
        let mut row_sum = vec![0.0; n];
        for (i, _, &w) in local.iter() {
            row_sum[i as usize] += w.max(0.0);
        }
        let mut t = teleport.to_vec();
        let mut iterations = 0;
        for _ in 0..max_iterations {
            iterations += 1;
            let mut next = vec![0.0; n];
            let mut dangling = 0.0;
            for i in 0..n {
                if row_sum[i] == 0.0 {
                    dangling += t[i];
                } else {
                    for (j, w) in local.row(i) {
                        if *w > 0.0 {
                            next[*j as usize] += t[i] * (*w / row_sum[i]);
                        }
                    }
                }
            }
            if dangling != 0.0 {
                for (k, next_k) in next.iter_mut().enumerate() {
                    *next_k += dangling * teleport[k];
                }
            }
            for k in 0..n {
                next[k] = (1.0 - damping) * next[k] + damping * teleport[k];
            }
            let delta: f64 = next.iter().zip(&t).map(|(a, b)| (a - b).abs()).sum();
            t = next;
            if delta < epsilon {
                break;
            }
        }
        (t, iterations)
    }

    /// Runs the engine over `local` at 1, 2 and 3 workers and asserts
    /// the solution bits and the iteration count against the reference.
    fn assert_matches_reference(local: &LocalMatrix<f64>, teleport: &[f64], label: &str) {
        let n = teleport.len();
        let (expected, expected_iters) = reference_stationary(n, local, teleport, 0.15, 1e-9, 200);
        let mut walk = WalkMatrix::default();
        let mut means = Vec::new();
        walk.rebuild(n, local, &mut means);
        assert_eq!(means.len(), local.iter().count(), "every cell is rated");
        for workers in [1, 2, 3] {
            let iters = walk.stationary(teleport, 0.15, 1e-9, 200, workers);
            assert_eq!(iters, expected_iters, "{label}, {workers} workers");
            assert_eq!(walk.solution(), expected, "{label}, {workers} workers");
        }
    }

    #[test]
    fn flat_engine_matches_nested_reference_bit_for_bit() {
        let mut rng = tsn_simnet::SimRng::seed_from_u64(11);
        for case in 0..30 {
            let n = 4 + (case % 9);
            let mut local = LocalMatrix::new(n);
            for _ in 0..n * 6 {
                let i = rng.gen_range(0..n as u32);
                let j = rng.gen_range(0..n as u32);
                // Mixed signs so some rows end up dangling.
                *local.upsert(i, j) += rng.gen_f64() * 2.0 - 0.7;
            }
            let teleport: Vec<f64> = vec![1.0 / n as f64; n];
            assert_matches_reference(&local, &teleport, &format!("case {case}"));
        }
        // Four ratee blocks, the last one partial. Block 1 receives no
        // edge, every seventh row has no cell and mixed signs leave more
        // rows without positive weight, and every fifth row's edges
        // straddle the block 0/2 and 2/3 boundaries.
        let b = BLOCK as u32;
        let n = 3 * BLOCK + 5;
        let mut local = LocalMatrix::new(n);
        for i in (0..n as u32).filter(|i| i % 7 != 0) {
            for _ in 0..3 {
                let j = rng.gen_range(0..n as u32);
                let j = if j / b == 1 { j - b } else { j };
                *local.upsert(i, j) += rng.gen_f64() * 2.0 - 0.7;
            }
            if i % 5 == 0 {
                for j in [b - 1, 2 * b, 3 * b - 1, 3 * b] {
                    *local.upsert(i, j) += 1.0 + rng.gen_f64();
                }
            }
        }
        assert!(local.iter().all(|(_, ratee, _)| ratee / b != 1));
        let uniform = vec![1.0 / n as f64; n];
        assert_matches_reference(&local, &uniform, "wide, uniform teleport");
        // A teleport onto three rows with positive weight (multiples of
        // 5, not of 7): the dangling rows start with no mass, so the
        // first iteration skips the dangling spread.
        let mut sparse = vec![0.0; n];
        for k in [5, BLOCK + 3, 3 * BLOCK + 4] {
            sparse[k] = 1.0 / 3.0;
        }
        assert_matches_reference(&local, &sparse, "wide, sparse teleport");
    }

    #[test]
    fn dangling_mass_teleports_to_hand_computed_values() {
        // Independent of both the engine and the nested reference
        // (which share the summed-dangling-mass formulation): one
        // iteration against values computed by hand, all dyadic so the
        // comparison is float-exact. n = 3; only node 0 has an outgoing
        // edge (0 → 1, weight 1); nodes 1 and 2 dangle.
        //
        //   t = teleport = [1/2, 1/4, 1/4], damping 1/2
        //   edges:    next  = [0, t₀, 0]              = [0, 1/2, 0]
        //   dangling: D = t₁ + t₂ = 1/2; next += D·teleport
        //                                           → [1/4, 5/8, 1/8]
        //   damping:  next = 1/2·next + 1/2·teleport → [3/8, 7/16, 3/16]
        let local = matrix(3, &[(0, 1, 1.0)]);
        let mut walk = WalkMatrix::default();
        walk.rebuild(3, &local, &mut Vec::new());
        let teleport = [0.5, 0.25, 0.25];
        let iters = walk.stationary(&teleport, 0.5, 1e-300, 1, 1);
        assert_eq!(iters, 1);
        assert_eq!(walk.solution(), &[0.375, 0.4375, 0.1875]);
    }

    #[test]
    fn all_dangling_converges_to_teleport() {
        let local = matrix(3, &[]);
        let teleport = [0.5, 0.25, 0.25];
        let mut walk = WalkMatrix::default();
        walk.rebuild(3, &local, &mut Vec::new());
        walk.stationary(&teleport, 0.15, 1e-9, 200, 1);
        for (got, want) in walk.solution().iter().zip(&teleport) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn rebuild_is_reusable() {
        let mut walk = WalkMatrix::default();
        let a = matrix(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let teleport = vec![1.0 / 3.0; 3];
        walk.rebuild(3, &a, &mut Vec::new());
        walk.stationary(&teleport, 0.15, 1e-9, 200, 1);
        let cycle = walk.solution().to_vec();
        // Rebuild over a different matrix reuses every buffer.
        let b = matrix(3, &[(0, 1, 1.0)]);
        walk.rebuild(3, &b, &mut Vec::new());
        walk.stationary(&teleport, 0.15, 1e-9, 200, 1);
        assert_ne!(walk.solution(), &cycle[..]);
        // A larger matrix over three blocks equals a fresh engine's walk.
        let n = 2 * BLOCK + 3;
        let last = n as u32 - 1;
        let wide = matrix(
            n,
            &[(0, last, 1.0), (last, 1, 2.0), (1, 0, 1.0), (1, last, 1.0)],
        );
        let wide_teleport = vec![1.0 / n as f64; n];
        let mut fresh = WalkMatrix::default();
        fresh.rebuild(n, &wide, &mut Vec::new());
        fresh.stationary(&wide_teleport, 0.15, 1e-9, 200, 2);
        walk.rebuild(n, &wide, &mut Vec::new());
        walk.stationary(&wide_teleport, 0.15, 1e-9, 200, 2);
        assert_eq!(walk.solution(), fresh.solution());
        // And back: identical to the first run.
        walk.rebuild(3, &a, &mut Vec::new());
        walk.stationary(&teleport, 0.15, 1e-9, 200, 1);
        assert_eq!(walk.solution(), &cycle[..]);
    }
}
