//! Model-based property test of `SyndromeBatch`'s active mask: after
//! any sequence of mutations, `active_qubits_into` must equal the OR of
//! every ancilla bit recomputed one `get` at a time, and the batch must
//! hold exactly what a plain `bool` model says it holds.

use btwc_syndrome::{BatchHistory, PackedBits, SyndromeBatch};
use proptest::prelude::*;

/// A `[qubit][ancilla]` bool grid mirroring one batch.
type Model = Vec<Vec<bool>>;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn below(state: &mut u64, n: usize) -> usize {
    (xorshift(state) % n as u64) as usize
}

/// A random round: all-zero a third of the time, otherwise sparse or
/// dense.
fn random_round(state: &mut u64, a: usize) -> Vec<bool> {
    match below(state, 3) {
        0 => vec![false; a],
        1 => (0..a).map(|_| below(state, 16) == 0).collect(),
        _ => (0..a).map(|_| below(state, 2) == 0).collect(),
    }
}

/// The active mask recomputed bit by bit from `get`.
fn mask_by_get(batch: &SyndromeBatch) -> Vec<usize> {
    (0..batch.num_qubits())
        .filter(|&q| (0..batch.num_ancillas()).any(|a| batch.get(q, a)))
        .collect()
}

/// Asserts `batch` matches `model` bit for bit and its mask is exact.
fn check(batch: &SyndromeBatch, model: &Model, step: usize) {
    let mut mask = PackedBits::new(batch.num_qubits());
    // Stale bits in `mask` must be overwritten.
    for q in (0..batch.num_qubits()).step_by(3) {
        mask.set(q, true);
    }
    batch.active_qubits_into(&mut mask);
    let got: Vec<usize> = mask.iter_set().collect();
    assert_eq!(got, mask_by_get(batch), "step {step}: active mask is not the OR of the planes");
    let mut column = PackedBits::new(batch.num_ancillas());
    for (q, want) in model.iter().enumerate() {
        batch.qubit_round_into(q, &mut column);
        assert_eq!(&column.to_bools(), want, "step {step}: qubit {q} column");
    }
}

fn sticky_model(window: &[Model], k: usize, q: usize, a: usize) -> Model {
    if window.len() < k {
        return vec![vec![false; a]; q];
    }
    let recent = &window[window.len() - k..];
    (0..q).map(|qi| (0..a).map(|ai| recent.iter().all(|m| m[qi][ai])).collect()).collect()
}

fn run(num_qubits: usize, num_ancillas: usize, k: usize, steps: usize, seed: u64) {
    let (q, a) = (num_qubits, num_ancillas);
    let mut state = seed | 1;
    let mut batch = SyndromeBatch::new(q, a);
    let mut model: Model = vec![vec![false; a]; q];
    let mut history = BatchHistory::new(q, a, k + 1);
    let mut window: Vec<Model> = Vec::new();
    let mut sticky = SyndromeBatch::new(q, a);
    for step in 0..steps {
        match below(&mut state, 8) {
            0 => {
                let (qi, ai, v) =
                    (below(&mut state, q), below(&mut state, a), below(&mut state, 2));
                batch.set(qi, ai, v == 0);
                model[qi][ai] = v == 0;
            }
            1 | 2 => {
                let qi = below(&mut state, q);
                let round = random_round(&mut state, a);
                batch.set_qubit_round(qi, &PackedBits::from_bools(&round));
                model[qi] = round;
            }
            3 => {
                let qi = below(&mut state, q);
                let round = random_round(&mut state, a);
                batch.set_qubit_round_bools(qi, &round);
                model[qi] = round;
            }
            4 => {
                if below(&mut state, 4) == 0 {
                    batch.clear();
                    model = vec![vec![false; a]; q];
                }
            }
            5 => {
                // copy_from a fresh, independently built batch.
                let mut other = SyndromeBatch::new(q, a);
                let mut other_model: Model = vec![vec![false; a]; q];
                for (qi, row) in other_model.iter_mut().enumerate() {
                    if below(&mut state, 4) == 0 {
                        *row = random_round(&mut state, a);
                        other.set_qubit_round_bools(qi, row);
                    }
                }
                batch.copy_from(&other);
                model = other_model;
            }
            6 => {
                // The sticky filter's output as the batch under test.
                history.push(&batch);
                window.push(model.clone());
                history.sticky_into(k, &mut sticky);
                check(&sticky, &sticky_model(&window, k, q, a), step);
                batch.copy_from(&sticky);
                model = sticky_model(&window, k, q, a);
            }
            _ => {
                // Zero-over-stale and nonzero-over-zero scatters on the
                // same column, back to back.
                let qi = below(&mut state, q);
                let mut lit = vec![false; a];
                lit[below(&mut state, a)] = true;
                batch.set_qubit_round(qi, &PackedBits::from_bools(&lit));
                batch.set_qubit_round_bools(qi, &vec![false; a]);
                check(
                    &batch,
                    &{
                        let mut m = model.clone();
                        m[qi] = vec![false; a];
                        m
                    },
                    step,
                );
                batch.set_qubit_round_bools(qi, &lit);
                model[qi] = lit;
            }
        }
        check(&batch, &model, step);
        // The sticky path also sees plain rounds, so streaks form.
        if below(&mut state, 2) == 0 {
            history.push(&batch);
            window.push(model.clone());
            history.sticky_into(k, &mut sticky);
            check(&sticky, &sticky_model(&window, k, q, a), step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every mutator keeps the mask exact, at widths whose columns
    /// cross 64-bit word boundaries.
    #[test]
    fn active_mask_is_exact_under_every_mutator(
        width in 0usize..5,
        num_ancillas in 1usize..80,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let num_qubits = [1, 63, 64, 65, 130][width];
        run(num_qubits, num_ancillas, k, 60, seed);
    }
}

#[test]
fn zero_round_over_zero_column_is_a_no_op() {
    let mut batch = SyndromeBatch::new(65, 7);
    batch.set(64, 6, true);
    let before = batch.clone();
    batch.set_qubit_round(3, &PackedBits::new(7));
    batch.set_qubit_round_bools(63, &[false; 7]);
    assert_eq!(batch, before);
    // ... while a zero round over a lit column clears it.
    batch.set_qubit_round_bools(64, &[false; 7]);
    assert_eq!(batch, SyndromeBatch::new(65, 7));
}
