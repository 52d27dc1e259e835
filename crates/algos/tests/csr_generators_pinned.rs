//! `CsrGraph::random` and `CsrMatrix::random` are the instance generators of the
//! `dag-irregular` benchmark workload: what they produce for a `(seed, n, degree)` triple
//! must never drift, or every number measured on those instances silently changes meaning.
//! The hashes below were captured from the commit before the generators stopped allocating
//! a `Vec` per row.

use rws_algos::bfs::CsrGraph;
use rws_algos::spmv::CsrMatrix;

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

const TRIPLES: [(u64, usize, usize); 3] = [(0xBF5, 1 << 12, 4), (7, 1000, 9), (1 << 40, 257, 0)];

#[test]
fn random_graphs_are_the_instances_they_always_were() {
    let expected = [0xc6ee_7a2f_5eea_598a_u64, 0xd4da_c878_dfda_e36f, 0xc914_f21f_6a48_ca8e];
    for (&(seed, n, degree), want) in TRIPLES.iter().zip(expected) {
        let g = CsrGraph::random(seed, n, degree);
        let got = fnv(g.row_starts.iter().chain(&g.cols).map(|&w| w as u64));
        assert_eq!(got, want, "CsrGraph::random({seed:#x}, {n}, {degree})");
    }
}

#[test]
fn random_matrices_are_the_instances_they_always_were() {
    let expected = [0xd814_4890_317e_5156_u64, 0xfa64_6aa0_b9d8_909d, 0x3246_3484_054d_e61a];
    for (&(seed, n, degree), want) in TRIPLES.iter().zip(expected) {
        let m = CsrMatrix::random(seed, n, degree);
        let got = fnv(m
            .row_starts
            .iter()
            .chain(&m.cols)
            .map(|&w| w as u64)
            .chain(m.vals.iter().map(|v| v.to_bits())));
        assert_eq!(got, want, "CsrMatrix::random({seed:#x}, {n}, {degree})");
    }
}
