//! Property coverage of the wire framing: lossless round-trips over
//! random round counts/widths, and rejection of every malformed frame
//! class ([`ParseFrameError`]: truncated header, corrupt header,
//! truncated payload).

use btwc_bandwidth::{DecodeRequest, ParseFrameError, SeqStatus, SequenceTracker};
use proptest::prelude::*;

fn request_strategy() -> impl Strategy<Value = DecodeRequest> {
    (1usize..10, 1usize..300usize, 0u32..1000, 0u64..1_000_000).prop_flat_map(
        |(rounds, width, qubit, cycle)| {
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), width), rounds)
                .prop_map(move |rs| DecodeRequest::new(qubit, cycle, rs))
        },
    )
}

fn request_v2_strategy() -> impl Strategy<Value = DecodeRequest> {
    (request_strategy(), any::<u32>()).prop_map(|(req, seq)| req.with_seq(seq))
}

proptest! {
    /// Encode → decode is the identity for any round count and width
    /// (including widths crossing byte and word boundaries).
    #[test]
    fn roundtrip_is_lossless(req in request_strategy()) {
        let frame = req.encode();
        prop_assert_eq!(frame.len(), req.frame_len());
        let back = DecodeRequest::decode(&frame).expect("well-formed frame parses");
        prop_assert_eq!(back, req);
    }

    /// The closed-form frame length used for transport accounting
    /// (16-byte header + rounds × ceil(width/8) payload) matches the
    /// bytes actually serialized, so the machine tier's frame-byte
    /// meter (`MachineStats::frame_bytes`, `machine.frame_bytes`
    /// telemetry) is exact for any round count and width — summing
    /// `frame_len()` over a burst of escalations equals the total
    /// wire bytes shipped.
    #[test]
    fn frame_byte_accounting_matches_serialization(
        reqs in proptest::collection::vec(request_strategy(), 1..8)
    ) {
        let mut metered = 0usize;
        let mut shipped = 0usize;
        for req in &reqs {
            let frame = req.encode();
            let payload = req.rounds.len() * req.bits_per_round().div_ceil(8);
            prop_assert_eq!(frame.len(), 16 + payload);
            prop_assert_eq!(req.frame_len(), frame.len());
            metered += req.frame_len();
            shipped += frame.len();
        }
        prop_assert_eq!(metered, shipped);
    }

    /// Every strict prefix of the header is rejected as truncated; a
    /// complete header with a short payload is rejected with the exact
    /// byte accounting.
    #[test]
    fn every_truncation_is_rejected(req in request_strategy(), cut_seed in 0usize..10_000) {
        let frame = req.encode();
        let cut = cut_seed % frame.len();
        match DecodeRequest::decode(&frame[..cut]) {
            Err(ParseFrameError::TruncatedHeader) => prop_assert!(cut < 16),
            Err(ParseFrameError::TruncatedPayload { expected, actual }) => {
                prop_assert!(cut >= 16);
                prop_assert_eq!(actual, cut - 16);
                prop_assert_eq!(
                    expected,
                    req.rounds.len() * req.bits_per_round().div_ceil(8)
                );
            }
            other => prop_assert!(false, "cut {cut} parsed as {other:?}"),
        }
    }

    /// A header declaring zero rounds or zero bits per round can never
    /// come from a valid encoder ([`DecodeRequest::new`] rejects both)
    /// and must be flagged corrupt, not silently parsed into an empty
    /// request.
    #[test]
    fn corrupt_header_is_rejected(req in request_strategy(), zero_width in any::<bool>()) {
        let mut frame = req.encode().to_vec();
        // Rounds live at bytes 12..14, width at 14..16 (big endian).
        let field = if zero_width { 14 } else { 12 };
        frame[field] = 0;
        frame[field + 1] = 0;
        match DecodeRequest::decode(&frame) {
            Err(ParseFrameError::CorruptHeader { reason }) => {
                prop_assert!(reason.contains(if zero_width { "bits per round" } else { "rounds" }));
            }
            other => prop_assert!(false, "corrupt header parsed as {other:?}"),
        }
    }

    /// Extra trailing bytes beyond the declared payload are ignored
    /// (frames may arrive in a larger buffer), and the parse still
    /// reconstructs the original request.
    #[test]
    fn trailing_bytes_are_tolerated(req in request_strategy(), extra in 1usize..16) {
        let mut frame = req.encode().to_vec();
        frame.extend(std::iter::repeat_n(0xAA, extra));
        let back = DecodeRequest::decode(&frame).expect("padded frame parses");
        prop_assert_eq!(back, req);
    }

    /// v2 encode → decode is the identity — including the sequence
    /// number — both through the strict v2 parser and through the
    /// version-discriminating auto parser.
    #[test]
    fn v2_roundtrip_is_lossless(req in request_v2_strategy()) {
        let frame = req.encode_v2();
        prop_assert_eq!(frame.len(), req.frame_len_v2());
        let strict = DecodeRequest::decode_v2(&frame).expect("well-formed v2 frame parses");
        prop_assert_eq!(&strict, &req);
        let auto = DecodeRequest::decode(&frame).expect("auto parser takes the v2 path");
        prop_assert_eq!(auto, req);
    }

    /// **Every** single-bit flip of a v2 frame is detected: the CRC
    /// covers header and payload, so no one-bit corruption — magic,
    /// version, shape fields, sequence number, payload, or the CRC
    /// itself — can parse back as a valid request. This is exhaustive
    /// over all bit positions of each generated frame, not sampled.
    ///
    /// The auto-detecting [`DecodeRequest::decode`] is covered too: a
    /// flip in the magic bytes demotes the frame to the CRC-less v1
    /// fallback, which *may* parse — but only a magic flip can reach
    /// it, and it can never silently reconstruct the request that was
    /// sent. That residual hole is why a v2-only receiver (the machine
    /// tier) must parse with the strict `decode_v2`.
    #[test]
    fn every_single_bit_flip_is_detected(req in request_v2_strategy()) {
        let frame = req.encode_v2().to_vec();
        let mut flipped = frame.clone();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                DecodeRequest::decode_v2(&flipped).is_err(),
                "bit {bit} flipped but frame still parsed"
            );
            match DecodeRequest::decode(&flipped) {
                Err(_) => {}
                Ok(got) => {
                    prop_assert!(
                        bit < 16,
                        "flip at non-magic bit {bit} parsed via the v1 fallback"
                    );
                    prop_assert_ne!(
                        &got, &req,
                        "magic flip at bit {bit} silently round-tripped"
                    );
                }
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert_eq!(&flipped, &frame);
    }

    /// The sequence tracker tells a retransmitted duplicate from the
    /// next fresh request for any starting sequence number — half the
    /// cases start within 64 of `u32::MAX`, so the successor or the gap
    /// crosses the wrap — and any duplication count, and flags any gap
    /// without advancing.
    #[test]
    fn sequence_tracker_classifies_duplicates_and_gaps(
        start in prop_oneof![any::<u32>(), u32::MAX - 63..=u32::MAX],
        dups in 0usize..4,
        gap in 2u32..32,
    ) {
        let mut tracker = SequenceTracker::new();
        tracker.resync(start);
        prop_assert_eq!(tracker.accept(start), Ok(SeqStatus::Fresh));
        let next = start.wrapping_add(1);
        // A retransmission storm of the same frame: every extra copy is
        // a duplicate, and the tracker keeps expecting the successor.
        for _ in 0..dups {
            prop_assert_eq!(tracker.accept(start), Ok(SeqStatus::Duplicate));
        }
        prop_assert_eq!(tracker.expected(), next);
        // A reordered (future) frame is a gap: flagged, not accepted.
        let future = start.wrapping_add(gap);
        prop_assert_eq!(
            tracker.accept(future),
            Err(ParseFrameError::SequenceGap { expected: next, got: future })
        );
        prop_assert_eq!(tracker.expected(), next, "a gap must not advance the tracker");
        // The in-order successor is still fresh after all of the above,
        // and the original frame stays a duplicate past it.
        prop_assert_eq!(tracker.accept(next), Ok(SeqStatus::Fresh));
        prop_assert_eq!(tracker.accept(start), Ok(SeqStatus::Duplicate));
    }

    /// Version discrimination: the auto parser routes v1 frames to the
    /// legacy parser and v2 frames to the checksummed parser, for the
    /// same logical request — and the strict v2 parser refuses the v1
    /// encoding outright.
    #[test]
    fn v1_and_v2_frames_are_discriminated(req in request_v2_strategy()) {
        let v1 = req.encode();
        let v2 = req.encode_v2();
        // v1 loses the sequence number (it has no field for it).
        let from_v1 = DecodeRequest::decode(&v1).expect("v1 parses");
        prop_assert_eq!(from_v1.seq, 0);
        prop_assert_eq!(&from_v1.rounds, &req.rounds);
        prop_assert_eq!(from_v1.qubit, req.qubit);
        let from_v2 = DecodeRequest::decode(&v2).expect("v2 parses");
        prop_assert_eq!(from_v2, req);
        prop_assert!(DecodeRequest::decode_v2(&v1).is_err(), "strict v2 must reject v1 frames");
    }
}

#[test]
fn corrupt_header_error_messages_are_informative() {
    let req = DecodeRequest::new(1, 2, vec![vec![true, false, true]]);
    let mut zero_rounds = req.encode().to_vec();
    zero_rounds[12] = 0;
    zero_rounds[13] = 0;
    let err = DecodeRequest::decode(&zero_rounds).unwrap_err();
    assert_eq!(err.to_string(), "frame header corrupt: zero rounds declared");
    let mut zero_width = req.encode().to_vec();
    zero_width[14] = 0;
    zero_width[15] = 0;
    let err = DecodeRequest::decode(&zero_width).unwrap_err();
    assert_eq!(err.to_string(), "frame header corrupt: zero bits per round declared");
}
