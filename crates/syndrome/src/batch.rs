//! Machine-wide syndrome rounds, stored transposed ("structure of
//! planes") for word-parallel filtering across logical qubits.
//!
//! A [`SyndromeBatch`] holds one measurement round for *every* logical
//! qubit of a machine as one qubit-indexed bit plane per ancilla, all
//! planes packed back to back in a single contiguous word block: bit
//! `q` of plane `a` is qubit `q`'s raw value for ancilla `a`. In this
//! layout the two-round sticky filter is a word-AND over the block — 64
//! logical qubits per instruction — and copying a round is one slice
//! copy. The batch also keeps an exact *active mask* (the OR of all
//! planes) current under every mutation, so "which qubits need any
//! decoding at all this cycle" is a word copy, and scattering an
//! all-zero round into an already-zero column costs nothing. The
//! mostly-quiet common case (>90% of cycles at practical rates) thus
//! costs `O(num_ancillas × num_qubits / 64)` word operations for the
//! whole machine instead of a per-qubit loop.
//!
//! [`BatchHistory`] is the machine-wide counterpart of
//! [`RoundHistory`](crate::RoundHistory): a recycled ring of the most
//! recent batches with a word-parallel `k`-round sticky filter.

use std::collections::VecDeque;

use crate::history::RoundHistory;
use crate::packed::PackedBits;

/// One syndrome measurement round for every logical qubit of a
/// machine, stored as qubit-indexed bit planes (one per ancilla) in one
/// contiguous word block, plus the exact OR of all planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyndromeBatch {
    num_qubits: usize,
    num_ancillas: usize,
    /// Words per plane: `num_qubits.div_ceil(64)`.
    stride: usize,
    /// Plane `a` is `planes[a * stride..(a + 1) * stride]`; bit `q` of
    /// it is qubit `q`'s raw syndrome for ancilla `a`. Bits at qubit
    /// positions `>= num_qubits` are always zero.
    planes: Vec<u64>,
    /// Bit `q` is set iff any ancilla of qubit `q` is lit: the OR of
    /// all planes, kept exact by every mutator.
    active: PackedBits,
}

impl SyndromeBatch {
    /// An all-zero batch for `num_qubits` logical qubits of
    /// `num_ancillas` ancillas each.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0` or `num_ancillas == 0`.
    #[must_use]
    pub fn new(num_qubits: usize, num_ancillas: usize) -> Self {
        assert!(num_qubits > 0, "batch needs at least one qubit");
        assert!(num_ancillas > 0, "batch needs at least one ancilla");
        let stride = num_qubits.div_ceil(64);
        Self {
            num_qubits,
            num_ancillas,
            stride,
            planes: vec![0; num_ancillas * stride],
            active: PackedBits::new(num_qubits),
        }
    }

    /// Number of logical qubits per round.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of ancillas per qubit.
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.num_ancillas
    }

    /// The qubit-indexed plane for ancilla `a`, as packed words (bit
    /// `q % 64` of word `q / 64` is qubit `q`).
    ///
    /// # Panics
    ///
    /// Panics if `a >= num_ancillas()`.
    #[must_use]
    pub fn plane(&self, a: usize) -> &[u64] {
        assert!(a < self.num_ancillas, "ancilla {a} out of range");
        &self.planes[a * self.stride..(a + 1) * self.stride]
    }

    /// Word index of qubit `qubit`'s column within a plane, and its
    /// bit position in that word.
    fn column(&self, qubit: usize) -> (usize, usize) {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        (qubit / 64, qubit % 64)
    }

    /// Qubit `q`'s raw value for ancilla `a`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, qubit: usize, ancilla: usize) -> bool {
        let (w, shift) = self.column(qubit);
        (self.plane(ancilla)[w] >> shift) & 1 == 1
    }

    /// Sets qubit `q`'s raw value for ancilla `a`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, qubit: usize, ancilla: usize, value: bool) {
        let (w, shift) = self.column(qubit);
        let bit = 1u64 << shift;
        assert!(ancilla < self.num_ancillas, "ancilla {ancilla} out of range");
        let word = &mut self.planes[ancilla * self.stride + w];
        if value {
            *word |= bit;
            self.active.set(qubit, true);
        } else if *word & bit != 0 {
            *word &= !bit;
            let lit = self.planes.iter().skip(w).step_by(self.stride).any(|&x| x & bit != 0);
            self.active.set(qubit, lit);
        }
    }

    /// Clears every plane (dimensions unchanged).
    pub fn clear(&mut self) {
        self.planes.fill(0);
        self.active.clear();
    }

    /// Copies another batch of the same dimensions into this one
    /// without reallocating: one copy of the plane block.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &SyndromeBatch) {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        assert_eq!(self.num_ancillas, other.num_ancillas, "ancilla count mismatch");
        self.planes.copy_from_slice(&other.planes);
        self.active.copy_from(&other.active);
    }

    /// Scatters one qubit's packed round (ancilla-indexed, as consumed
    /// by the per-qubit pipelines) into this batch's column `qubit`. An
    /// all-zero round over an already-zero column writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `round.len() != num_ancillas()` or `qubit` is out of
    /// range.
    pub fn set_qubit_round(&mut self, qubit: usize, round: &PackedBits) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        self.scatter(qubit, round.iter_set());
    }

    /// [`SyndromeBatch::set_qubit_round`] from a bool slice.
    ///
    /// # Panics
    ///
    /// Panics if `round.len() != num_ancillas()` or `qubit` is out of
    /// range.
    pub fn set_qubit_round_bools(&mut self, qubit: usize, round: &[bool]) {
        assert_eq!(round.len(), self.num_ancillas, "round width mismatch");
        self.scatter(qubit, round.iter().enumerate().filter(|(_, &v)| v).map(|(a, _)| a));
    }

    /// Overwrites column `qubit` with the ancillas in `lit`: a strided
    /// clear, only if the column holds any bit, then one write per lit
    /// ancilla.
    fn scatter(&mut self, qubit: usize, lit: impl Iterator<Item = usize>) {
        let (w, shift) = self.column(qubit);
        let bit = 1u64 << shift;
        if self.active.get(qubit) {
            for word in self.planes.iter_mut().skip(w).step_by(self.stride) {
                *word &= !bit;
            }
        }
        let mut any = false;
        for a in lit {
            self.planes[a * self.stride + w] |= bit;
            any = true;
        }
        self.active.set(qubit, any);
    }

    /// Gathers column `qubit` back into an ancilla-indexed round
    /// (every bit of `out` is overwritten). This is the transpose read
    /// the machine performs only for the rare non-quiet qubits.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_ancillas()` or `qubit` is out of
    /// range.
    pub fn qubit_round_into(&self, qubit: usize, out: &mut PackedBits) {
        assert_eq!(out.len(), self.num_ancillas, "round width mismatch");
        let (w, shift) = self.column(qubit);
        // Transpose kernel: a strided walk down the column, 64
        // single-bit extracts per output word.
        let mut column = self.planes.iter().skip(w).step_by(self.stride).map(|x| (x >> shift) & 1);
        for word in out.words_mut() {
            let mut acc = 0u64;
            for (j, b) in column.by_ref().take(64).enumerate() {
                acc |= b << j;
            }
            *word = acc;
        }
    }

    /// Writes the active mask into `out`: bit `q` is set iff qubit `q`
    /// has *any* lit ancilla this round — the machine-wide "who is not
    /// all-zero" mask, maintained by every mutator, so this is a word
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_qubits()`.
    pub fn active_qubits_into(&self, out: &mut PackedBits) {
        assert_eq!(out.len(), self.num_qubits, "qubit mask width mismatch");
        out.copy_from(&self.active);
    }

    /// Recomputes the active mask as the OR of all planes (after a
    /// whole-block write).
    fn refresh_active(&mut self) {
        let active = self.active.words_mut();
        active.fill(0);
        for plane in self.planes.chunks_exact(self.stride) {
            for (m, &x) in active.iter_mut().zip(plane) {
                *m |= x;
            }
        }
    }
}

/// Ring buffer of the most recent machine-wide measurement rounds with
/// a word-parallel sticky filter — the batched counterpart of
/// [`RoundHistory`](crate::RoundHistory) for the Clique filter tier.
///
/// Evicted batches are recycled, so a long-running machine performs no
/// per-cycle heap allocation in steady state.
#[derive(Debug, Clone)]
pub struct BatchHistory {
    num_qubits: usize,
    num_ancillas: usize,
    capacity: usize,
    rounds: VecDeque<SyndromeBatch>,
    spare: Vec<SyndromeBatch>,
}

impl BatchHistory {
    /// A window retaining the most recent `capacity` machine rounds.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    #[must_use]
    pub fn new(num_qubits: usize, num_ancillas: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "batch history needs capacity >= 1");
        assert!(num_qubits > 0, "batch history needs at least one qubit");
        assert!(num_ancillas > 0, "batch history needs at least one ancilla");
        Self {
            num_qubits,
            num_ancillas,
            capacity,
            rounds: VecDeque::with_capacity(capacity + 1),
            spare: Vec::with_capacity(capacity + 1),
        }
    }

    /// Number of logical qubits per round.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of ancillas per qubit.
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.num_ancillas
    }

    /// Maximum number of retained rounds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rounds currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Appends a machine round (one block copy into a recycled
    /// batch), evicting the oldest round if full.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimensions mismatch.
    pub fn push(&mut self, batch: &SyndromeBatch) {
        assert_eq!(batch.num_qubits, self.num_qubits, "qubit count mismatch");
        assert_eq!(batch.num_ancillas, self.num_ancillas, "ancilla count mismatch");
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| SyndromeBatch::new(self.num_qubits, self.num_ancillas));
        buf.copy_from(batch);
        self.rounds.push_back(buf);
        if self.rounds.len() > self.capacity {
            let evicted = self.rounds.pop_front().expect("non-empty after push");
            self.spare.push(evicted);
        }
    }

    /// The machine-wide `k`-round sticky filter: bit `q` of `out`'s
    /// plane `a` is accepted iff qubit `q`'s ancilla `a` was lit in
    /// each of the last `k` rounds — one word-AND chain over the plane
    /// block, 64 qubits per instruction, skipped outright when no qubit
    /// is active in all `k` rounds.
    ///
    /// `out` is all-zeros while fewer than `k` rounds have been
    /// recorded (the filter pipeline still filling), exactly matching
    /// the per-qubit [`RoundHistory::sticky`](crate::RoundHistory)
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > capacity()`, or `out` has the wrong
    /// dimensions.
    pub fn sticky_into(&self, k: usize, out: &mut SyndromeBatch) {
        assert!(k >= 1 && k <= self.capacity, "sticky window {k} out of range");
        assert_eq!(out.num_qubits, self.num_qubits, "qubit count mismatch");
        assert_eq!(out.num_ancillas, self.num_ancillas, "ancilla count mismatch");
        if self.rounds.len() < k {
            out.clear();
            return;
        }
        let start = self.rounds.len() - k;
        let window = self.rounds.range(start..);
        // No qubit active in every one of the k rounds: nothing passes.
        let any_streak = (0..out.stride)
            .any(|w| window.clone().fold(u64::MAX, |acc, b| acc & b.active.words()[w]) != 0);
        if !any_streak {
            out.clear();
            return;
        }
        out.planes.copy_from_slice(&self.rounds[start].planes);
        for newer in self.rounds.range(start + 1..) {
            for (dst, src) in out.planes.iter_mut().zip(&newer.planes) {
                *dst &= src;
            }
        }
        out.refresh_active();
    }

    /// Materializes one qubit's decode window out of the machine-wide
    /// ring: gathers qubit `qubit`'s most recent `len` rounds into
    /// `out` (reset first), oldest first. The machine tier pays this
    /// transpose read only when a window is actually consumed (an
    /// off-chip escalation), never on the per-cycle hot path.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the retained rounds, `out` has the
    /// wrong width, or `out.capacity() < len`.
    pub fn gather_qubit_window(&self, qubit: usize, len: usize, out: &mut RoundHistory) {
        assert!(len <= self.rounds.len(), "window length {len} exceeds retained rounds");
        assert!(len <= out.capacity(), "window capacity too small");
        out.reset();
        let start = self.rounds.len() - len;
        for r in start..self.rounds.len() {
            out.push_from_batch(&self.rounds[r], qubit);
        }
    }

    /// Forgets all retained rounds (buffers are recycled).
    pub fn reset(&mut self) {
        self.spare.extend(self.rounds.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundHistory;
    use crate::repr::Syndrome;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_round(state: &mut u64, n: usize, density: u64) -> Vec<bool> {
        (0..n).map(|_| xorshift(state).is_multiple_of(density)).collect()
    }

    #[test]
    fn transpose_roundtrips() {
        let mut state = 0xBA7C4u64;
        let (q, a) = (70, 13); // qubit planes cross a word boundary
        let mut batch = SyndromeBatch::new(q, a);
        let rounds: Vec<Vec<bool>> = (0..q).map(|_| random_round(&mut state, a, 3)).collect();
        for (qi, round) in rounds.iter().enumerate() {
            batch.set_qubit_round_bools(qi, round);
        }
        let mut out = PackedBits::new(a);
        for (qi, round) in rounds.iter().enumerate() {
            batch.qubit_round_into(qi, &mut out);
            assert_eq!(out.to_bools(), *round, "qubit {qi}");
            for (ai, &bit) in round.iter().enumerate() {
                assert_eq!(batch.get(qi, ai), bit);
            }
        }
    }

    #[test]
    fn packed_scatter_matches_bool_scatter() {
        let mut state = 0x5EEDu64;
        let mut a_batch = SyndromeBatch::new(9, 21);
        let mut b_batch = SyndromeBatch::new(9, 21);
        for qi in 0..9 {
            let round = random_round(&mut state, 21, 2);
            a_batch.set_qubit_round_bools(qi, &round);
            b_batch.set_qubit_round(qi, &PackedBits::from_bools(&round));
        }
        assert_eq!(a_batch, b_batch);
    }

    #[test]
    fn scatter_overwrites_stale_column() {
        let mut batch = SyndromeBatch::new(3, 4);
        batch.set_qubit_round_bools(1, &[true; 4]);
        batch.set_qubit_round_bools(1, &[false, true, false, false]);
        let mut out = PackedBits::new(4);
        batch.qubit_round_into(1, &mut out);
        assert_eq!(out.to_bools(), vec![false, true, false, false]);
    }

    #[test]
    fn active_mask_is_or_of_planes() {
        let mut batch = SyndromeBatch::new(130, 5);
        batch.set(0, 0, true);
        batch.set(64, 3, true);
        batch.set(129, 4, true);
        let mut mask = PackedBits::new(130);
        batch.active_qubits_into(&mut mask);
        assert_eq!(mask.iter_set().collect::<Vec<_>>(), vec![0, 64, 129]);
        // Stale bits must be cleared.
        batch.set(64, 3, false);
        batch.active_qubits_into(&mut mask);
        assert_eq!(mask.iter_set().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn batch_sticky_matches_per_qubit_sticky() {
        // The machine-wide filter must agree bit-for-bit with each
        // qubit's own RoundHistory filter on an identical stream.
        let (q, a, k, cycles) = (67usize, 12usize, 2usize, 40usize);
        let mut state = 0xF117E4u64;
        let mut history = BatchHistory::new(q, a, k);
        let mut per_qubit: Vec<RoundHistory> = (0..q).map(|_| RoundHistory::new(a, k)).collect();
        let mut batch = SyndromeBatch::new(q, a);
        let mut sticky = SyndromeBatch::new(q, a);
        let mut expect = Syndrome::new(a);
        let mut got = PackedBits::new(a);
        for t in 0..cycles {
            for (qi, h) in per_qubit.iter_mut().enumerate() {
                let round = random_round(&mut state, a, 4);
                batch.set_qubit_round_bools(qi, &round);
                h.push(&round);
            }
            history.push(&batch);
            history.sticky_into(k, &mut sticky);
            for (qi, h) in per_qubit.iter().enumerate() {
                h.sticky_into(k, &mut expect);
                sticky.qubit_round_into(qi, &mut got);
                assert_eq!(got.to_bools(), expect.to_bools(), "cycle {t}, qubit {qi}");
            }
        }
    }

    #[test]
    fn sticky_is_zero_while_filling_and_after_reset() {
        let mut history = BatchHistory::new(4, 3, 2);
        let mut batch = SyndromeBatch::new(4, 3);
        batch.set(2, 1, true);
        let mut sticky = SyndromeBatch::new(4, 3);
        history.push(&batch);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.plane(1).iter().all(|&w| w == 0), "one round cannot satisfy k=2");
        history.push(&batch);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.get(2, 1));
        history.reset();
        assert!(history.is_empty());
        history.push(&batch);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.plane(1).iter().all(|&w| w == 0), "reset must refill the pipeline");
        // Recycled buffers must come back fully overwritten.
        let quiet = SyndromeBatch::new(4, 3);
        history.push(&quiet);
        history.push(&quiet);
        history.sticky_into(2, &mut sticky);
        assert!(sticky.plane(1).iter().all(|&w| w == 0));
    }

    #[test]
    fn eviction_keeps_window_bounded() {
        let mut history = BatchHistory::new(2, 2, 2);
        let mut lit = SyndromeBatch::new(2, 2);
        lit.set(0, 0, true);
        let quiet = SyndromeBatch::new(2, 2);
        history.push(&lit);
        history.push(&lit);
        history.push(&quiet);
        assert_eq!(history.len(), 2);
        let mut sticky = SyndromeBatch::new(2, 2);
        history.sticky_into(2, &mut sticky);
        assert!(!sticky.get(0, 0), "the quiet round must break the streak");
    }

    #[test]
    #[should_panic(expected = "round width mismatch")]
    fn scatter_rejects_wrong_width() {
        let mut batch = SyndromeBatch::new(2, 3);
        batch.set_qubit_round_bools(0, &[true; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_rejected() {
        let _ = SyndromeBatch::new(0, 3);
    }
}
