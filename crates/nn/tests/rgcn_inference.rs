//! The sparse R-GCN inference kernel must reproduce the dense training
//! forward bit for bit, with and without prebuilt relation weights, on
//! random typed graphs that include isolated nodes, duplicate edges,
//! self-loops, every relation id and inputs with exact zeros.

use giant_nn::{Matrix, RgcnLayer, TypedEdge};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// A random graph over `n` nodes whose last node is isolated (when
/// `n > 1`), with one edge per relation id, a self-loop and a duplicated
/// edge on top of `extra` random edges.
fn typed_graph(rng: &mut StdRng, n: usize, n_rels: usize, extra: usize) -> Vec<TypedEdge> {
    let live = if n > 1 { n - 1 } else { n };
    let edge = |rng: &mut StdRng, rel: usize| TypedEdge {
        src: rng.random_range(0..live),
        dst: rng.random_range(0..live),
        rel,
    };
    let mut edges: Vec<TypedEdge> = (0..n_rels).map(|rel| edge(rng, rel)).collect();
    for _ in 0..extra {
        let rel = rng.random_range(0..n_rels);
        edges.push(edge(rng, rel));
    }
    let v = rng.random_range(0..live);
    edges.push(TypedEdge {
        src: v,
        dst: v,
        rel: rng.random_range(0..n_rels),
    });
    let dup = edges[rng.random_range(0..edges.len())];
    edges.insert(rng.random_range(0..edges.len()), dup);
    edges
}

/// Node features where a third of the entries pass through a ReLU, so
/// about one in six is an exact zero, as between layers.
fn features(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
    let mut x = Matrix::xavier(n, d, rng);
    for v in x.data_mut() {
        if rng.random_range(0..3) == 0 {
            *v = v.max(0.0);
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sparse_inference_equals_dense_forward(
        seed in 0u64..u64::MAX,
        n in 1usize..24,
        n_rels in 1usize..8,
        n_bases in 1usize..4,
        dims in (1usize..10, 1usize..10),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (d_in, d_out) = dims;
        let mut layer = RgcnLayer::new(d_in, d_out, n_rels, n_bases, &mut rng);
        let extra = rng.random_range(0..4 * n);
        let edges = typed_graph(&mut rng, n, n_rels, extra);
        let x = features(&mut rng, n, d_in);
        let dense = bits(&layer.forward(&x, &edges));
        prop_assert_eq!(&bits(&layer.forward_inference(&x, &edges)), &dense);
        let w_rel = layer.relation_weights();
        prop_assert_eq!(&bits(&layer.forward_inference_with(&x, &edges, &w_rel)), &dense);
    }

    #[test]
    fn stacked_layers_stay_bit_identical_through_relu(
        seed in 0u64..u64::MAX,
        n in 2usize..20,
        n_rels in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<RgcnLayer> = (0..3)
            .map(|l| RgcnLayer::new(if l == 0 { 5 } else { 7 }, 7, n_rels, 2, &mut rng))
            .collect();
        let extra = rng.random_range(0..3 * n);
        let edges = typed_graph(&mut rng, n, n_rels, extra);
        let x = features(&mut rng, n, 5);
        let (mut dense, mut sparse) = (x.clone(), x);
        for layer in &mut layers {
            dense = giant_nn::relu(&layer.forward(&dense, &edges));
            let w_rel = layer.relation_weights();
            sparse = giant_nn::relu(&layer.forward_inference_with(&sparse, &edges, &w_rel));
            prop_assert_eq!(&bits(&sparse), &bits(&dense));
        }
    }
}
