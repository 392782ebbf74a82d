//! Relational Graph Convolutional Network layer (Schlichtkrull et al. 2017),
//! exactly as used by GCTSP-Net (paper §3.1, eq. 5–6):
//!
//! ```text
//! h_v^{l+1} = σ( Σ_r Σ_{w ∈ N_r(v)} (1/c_vw) W_r^l h_w^l  +  W_0^l h_v^l )
//! W_r = Σ_b a_rb V_b                      (basis decomposition, eq. 6)
//! ```
//!
//! with `c_vw = |N_r(v)|` (per-relation in-degree normalisation). The layer
//! itself is linear; callers apply the activation (ReLU between layers,
//! softmax at the head) so the final layer can emit logits.

use crate::matrix::Matrix;
use crate::param::Parameter;
use rand::Rng;
use std::collections::BTreeMap;

/// One typed directed edge `src --rel--> dst` (message flows src → dst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedEdge {
    /// Message source node.
    pub src: usize,
    /// Message destination node.
    pub dst: usize,
    /// Relation type index in `[0, n_rels)`.
    pub rel: usize,
}

#[derive(Debug, Clone)]
struct RgcnCache {
    x: Matrix,
    /// Aggregated normalised neighbour features per relation present in the
    /// batch: `m_r[dst] = Σ_{src ∈ N_r(dst)} x[src] / |N_r(dst)|`.
    m: BTreeMap<usize, Matrix>,
    /// Per-relation in-degree of each node.
    indeg: BTreeMap<usize, Vec<f64>>,
    edges: Vec<TypedEdge>,
}

/// One R-GCN layer with basis decomposition.
#[derive(Debug, Clone)]
pub struct RgcnLayer {
    /// Basis matrices `V_b`, each `(d_in × d_out)`.
    pub bases: Vec<Parameter>,
    /// Basis coefficients `a_rb`, `(n_rels × n_bases)`.
    pub coeffs: Parameter,
    /// Self-connection weight `W_0`, `(d_in × d_out)`.
    pub self_w: Parameter,
    n_rels: usize,
    cache: Option<RgcnCache>,
}

impl RgcnLayer {
    /// New layer for `n_rels` relation types with `n_bases` bases.
    pub fn new<R: Rng>(
        d_in: usize,
        d_out: usize,
        n_rels: usize,
        n_bases: usize,
        rng: &mut R,
    ) -> Self {
        assert!(n_bases >= 1, "need at least one basis");
        let bases = (0..n_bases)
            .map(|_| Parameter::xavier(d_in, d_out, rng))
            .collect();
        Self {
            bases,
            coeffs: Parameter::xavier(n_rels, n_bases, rng),
            self_w: Parameter::xavier(d_in, d_out, rng),
            n_rels,
            cache: None,
        }
    }

    /// Input dimensionality.
    pub fn d_in(&self) -> usize {
        self.self_w.value.rows()
    }

    /// Output dimensionality.
    pub fn d_out(&self) -> usize {
        self.self_w.value.cols()
    }

    /// Number of relation types.
    pub fn n_rels(&self) -> usize {
        self.n_rels
    }

    /// Effective relation weight `W_r = Σ_b a_rb V_b`.
    fn w_r(&self, r: usize) -> Matrix {
        let mut w = Matrix::zeros(self.d_in(), self.d_out());
        for (b, basis) in self.bases.iter().enumerate() {
            w.add_scaled(&basis.value, self.coeffs.value.get(r, b));
        }
        w
    }

    fn aggregate(
        &self,
        x: &Matrix,
        edges: &[TypedEdge],
    ) -> (BTreeMap<usize, Matrix>, BTreeMap<usize, Vec<f64>>) {
        let n = x.rows();
        let mut indeg: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for e in edges {
            assert!(e.rel < self.n_rels, "relation {} out of range", e.rel);
            assert!(e.src < n && e.dst < n, "edge node out of range");
            indeg.entry(e.rel).or_insert_with(|| vec![0.0; n])[e.dst] += 1.0;
        }
        let mut m: BTreeMap<usize, Matrix> = BTreeMap::new();
        for e in edges {
            let c = indeg[&e.rel][e.dst];
            let mr = m
                .entry(e.rel)
                .or_insert_with(|| Matrix::zeros(n, x.cols()));
            let src_row = x.row(e.src).to_vec();
            let dst_row = mr.row_mut(e.dst);
            for (d, s) in dst_row.iter_mut().zip(&src_row) {
                *d += s / c;
            }
        }
        (m, indeg)
    }

    /// Forward pass over node features `x (N × d_in)` and typed edges.
    pub fn forward(&mut self, x: &Matrix, edges: &[TypedEdge]) -> Matrix {
        let (m, indeg) = self.aggregate(x, edges);
        let mut out = x.matmul(&self.self_w.value);
        for (&r, mr) in &m {
            out.add_assign(&mr.matmul(&self.w_r(r)));
        }
        self.cache = Some(RgcnCache {
            x: x.clone(),
            m,
            indeg,
            edges: edges.to_vec(),
        });
        out
    }

    /// Forward without caching: [`RgcnLayer::forward_inference_with`]
    /// over freshly built relation weights.
    pub fn forward_inference(&self, x: &Matrix, edges: &[TypedEdge]) -> Matrix {
        self.forward_inference_with(x, edges, &self.relation_weights())
    }

    /// Every relation's effective weight `W_r = Σ_b a_rb V_b`, indexed by
    /// relation, for callers that run many inferences with fixed
    /// parameters and pass the result to
    /// [`RgcnLayer::forward_inference_with`].
    pub fn relation_weights(&self) -> Vec<Matrix> {
        (0..self.n_rels).map(|r| self.w_r(r)).collect()
    }

    /// Forward without caching, reading `W_r` from `w_rel` (the current
    /// [`RgcnLayer::relation_weights`]); bit-identical to
    /// [`RgcnLayer::forward`].
    ///
    /// A sparse kernel: edges are bucketed by relation with a stable
    /// counting sort; per relation, `x[src] / c` is aggregated only into
    /// the destination rows of one scratch buffer, and only those rows
    /// are multiplied by `W_r` and added into `out`. Each touched row sees
    /// the dense path's floating-point operations in the dense path's
    /// order: relations ascending, input edge order within a `(rel, dst)`,
    /// division by `c`, and a k-ascending product into a fresh `+0.0` row.
    /// Rows without an in-edge under `r` would only add `+0.0`, which
    /// leaves `out` unchanged because it never holds `-0.0`.
    pub fn forward_inference_with(
        &self,
        x: &Matrix,
        edges: &[TypedEdge],
        w_rel: &[Matrix],
    ) -> Matrix {
        assert_eq!(w_rel.len(), self.n_rels, "one weight per relation");
        let n = x.rows();
        let (d_in, d_out) = (self.d_in(), self.d_out());
        let mut start = vec![0usize; self.n_rels + 1];
        for e in edges {
            assert!(e.rel < self.n_rels, "relation {} out of range", e.rel);
            assert!(e.src < n && e.dst < n, "edge node out of range");
            start[e.rel + 1] += 1;
        }
        for r in 0..self.n_rels {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut by_rel = vec![(0usize, 0usize); edges.len()];
        for e in edges {
            by_rel[next[e.rel]] = (e.src, e.dst);
            next[e.rel] += 1;
        }
        let mut out = x.matmul(&self.self_w.value);
        let mut indeg = vec![0u32; n];
        let mut dsts: Vec<usize> = Vec::new();
        let mut agg = vec![0.0; n * d_in];
        let mut prod = vec![0.0; d_out];
        for r in 0..self.n_rels {
            let rel_edges = &by_rel[start[r]..start[r + 1]];
            if rel_edges.is_empty() {
                continue;
            }
            for &(_, dst) in rel_edges {
                if indeg[dst] == 0 {
                    dsts.push(dst);
                }
                indeg[dst] += 1;
            }
            for &(src, dst) in rel_edges {
                let c = f64::from(indeg[dst]);
                let row = &mut agg[dst * d_in..(dst + 1) * d_in];
                for (d, s) in row.iter_mut().zip(x.row(src)) {
                    *d += s / c;
                }
            }
            let w = &w_rel[r];
            for &dst in &dsts {
                let row = &mut agg[dst * d_in..(dst + 1) * d_in];
                prod.fill(0.0);
                for (k, &a) in row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in prod.iter_mut().zip(w.row(k)) {
                        *o += a * b;
                    }
                }
                for (o, p) in out.row_mut(dst).iter_mut().zip(&prod) {
                    *o += p;
                }
                row.fill(0.0);
                indeg[dst] = 0;
            }
            dsts.clear();
        }
        out
    }

    /// Backward pass: accumulates gradients for the bases, coefficients and
    /// self-weight, and returns `dx`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("forward before backward");
        // Self connection.
        self.self_w.grad.add_assign(&cache.x.matmul_tn(dy));
        let mut dx = dy.matmul_nt(&self.self_w.value);
        // Per-relation terms.
        for (&r, mr) in &cache.m {
            let w_r = self.w_r(r);
            // dW_r = M_rᵀ dy.
            let dw_r = mr.matmul_tn(dy);
            // Chain into bases and coefficients.
            for (b, basis) in self.bases.iter_mut().enumerate() {
                let a_rb = self.coeffs.value.get(r, b);
                basis.grad.add_scaled(&dw_r, a_rb);
                self.coeffs
                    .grad
                    .add_at(r, b, dw_r.frobenius_dot(&basis.value));
            }
            // dM_r = dy W_rᵀ, then scatter to source nodes.
            let dm_r = dy.matmul_nt(&w_r);
            let indeg = &cache.indeg[&r];
            for e in cache.edges.iter().filter(|e| e.rel == r) {
                let c = indeg[e.dst];
                let g = dm_r.row(e.dst).to_vec();
                let row = dx.row_mut(e.src);
                for (rv, gv) in row.iter_mut().zip(&g) {
                    *rv += gv / c;
                }
            }
        }
        dx
    }

    /// Parameters for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut p: Vec<&mut Parameter> = self.bases.iter_mut().collect();
        p.push(&mut self.coeffs);
        p.push(&mut self.self_w);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sq_loss(y: &Matrix) -> f64 {
        y.data().iter().map(|v| v * v).sum::<f64>() / 2.0
    }

    fn small_graph() -> Vec<TypedEdge> {
        vec![
            TypedEdge { src: 0, dst: 1, rel: 0 },
            TypedEdge { src: 2, dst: 1, rel: 0 },
            TypedEdge { src: 1, dst: 2, rel: 1 },
            TypedEdge { src: 3, dst: 0, rel: 2 },
            TypedEdge { src: 0, dst: 3, rel: 1 },
        ]
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = RgcnLayer::new(3, 5, 4, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        let edges = small_graph();
        let y1 = layer.forward(&x, &edges);
        let y2 = layer.forward_inference(&x, &edges);
        assert_eq!((y1.rows(), y1.cols()), (4, 5));
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y1), bits(&y2));
        assert_eq!(bits(&y1), bits(&layer.forward_inference_with(&x, &edges, &layer.relation_weights())));
    }

    #[test]
    fn isolated_node_uses_only_self_connection() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = RgcnLayer::new(2, 2, 2, 1, &mut rng);
        let x = Matrix::xavier(3, 2, &mut rng);
        // Node 2 has no in-edges.
        let edges = vec![TypedEdge { src: 0, dst: 1, rel: 0 }];
        let y = layer.forward_inference(&x, &edges);
        let self_only = x.matmul(&layer.self_w.value);
        assert_eq!(y.row(2), self_only.row(2));
        assert_eq!(y.row(0), self_only.row(0));
        assert_ne!(y.row(1), self_only.row(1));
    }

    #[test]
    fn normalisation_averages_same_relation_neighbours() {
        // Two in-neighbours under the same relation are averaged (c_vw = 2).
        let mut rng = StdRng::seed_from_u64(2);
        let layer = RgcnLayer::new(2, 2, 1, 1, &mut rng);
        let x = Matrix::from_vec(3, 2, vec![2.0, 0.0, 4.0, 0.0, 0.0, 0.0]);
        let edges = vec![
            TypedEdge { src: 0, dst: 2, rel: 0 },
            TypedEdge { src: 1, dst: 2, rel: 0 },
        ];
        let y = layer.forward_inference(&x, &edges);
        // Mean of x0 and x1 = [3, 0]; so y[2] = [3,0] W_0^{rel} + x2 W_self.
        let w_r = layer.w_r(0);
        let expect_0 = 3.0 * w_r.get(0, 0);
        let expect_1 = 3.0 * w_r.get(0, 1);
        assert!((y.get(2, 0) - expect_0).abs() < 1e-12);
        assert!((y.get(2, 1) - expect_1).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = RgcnLayer::new(3, 2, 4, 2, &mut rng);
        let x = Matrix::xavier(4, 3, &mut rng);
        let edges = small_graph();
        let y = layer.forward(&x, &edges);
        let dx = layer.backward(&y);
        crate::gradcheck::check_param_grads(
            &mut layer,
            |l| sq_loss(&l.forward_inference(&x, &small_graph())),
            |l| l.params_mut(),
            1e-6,
            1e-5,
        );
        // Input gradient.
        let eps = 1e-6;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.add_at(r, c, eps);
                let mut xm = x.clone();
                xm.add_at(r, c, -eps);
                let num = (sq_loss(&layer.forward_inference(&xp, &edges))
                    - sq_loss(&layer.forward_inference(&xm, &edges)))
                    / (2.0 * eps);
                assert!(
                    (num - dx.get(r, c)).abs() < 1e-5,
                    "dx({r},{c}): {num} vs {}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn basis_decomposition_shares_weights() {
        // With one basis, all relation matrices are scalar multiples of it.
        let mut rng = StdRng::seed_from_u64(4);
        let layer = RgcnLayer::new(2, 2, 3, 1, &mut rng);
        let w0 = layer.w_r(0);
        let w1 = layer.w_r(1);
        let a0 = layer.coeffs.value.get(0, 0);
        let a1 = layer.coeffs.value.get(1, 0);
        for i in 0..2 {
            for j in 0..2 {
                assert!((w0.get(i, j) / a0 - w1.get(i, j) / a1).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "relation 7 out of range")]
    fn relation_bounds_checked() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = RgcnLayer::new(2, 2, 3, 1, &mut rng);
        let x = Matrix::zeros(2, 2);
        let _ = layer.forward_inference(&x, &[TypedEdge { src: 0, dst: 1, rel: 7 }]);
    }
}
