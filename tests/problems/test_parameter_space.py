"""Parameter-space robustness: unusual but legal problem configurations."""

import numpy as np
import pytest

from repro.datagen.packets import random_packet
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.reference import (
    lcs_length_reference,
    nw_score_reference,
    sw_score_reference,
)
from repro.problems.alignment.scoring import ScoringScheme
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.convolutional import ConvolutionalCode, ViterbiDecoderProblem


class TestAlignmentParameterSpace:
    def test_nw_with_substitution_matrix(self, rng):
        sub = rng.integers(-4, 5, size=(4, 4)).astype(float)
        sub = (sub + sub.T) / 2.0  # symmetric like real matrices
        scoring = ScoringScheme(gap_open=2.0, gap_extend=2.0, substitution=sub)
        a = rng.integers(0, 4, 25)
        b = rng.integers(0, 4, 25)
        p = NeedlemanWunschProblem(a, b, width=50, scoring=scoring)
        assert solve_sequential(p).score == nw_score_reference(a, b, scoring)

    def test_nw_zero_gap_penalty(self, rng):
        scoring = ScoringScheme(match=1.0, mismatch=-1.0, gap_open=0.0, gap_extend=0.0)
        a = rng.integers(0, 4, 15)
        b = rng.integers(0, 4, 15)
        p = NeedlemanWunschProblem(a, b, width=30, scoring=scoring)
        # Free gaps + unit matches: optimum = LCS length.
        assert solve_sequential(p).score == lcs_length_reference(a, b)

    def test_lcs_unary_alphabet(self, rng):
        a = np.zeros(12, dtype=np.int64)
        b = np.zeros(9, dtype=np.int64)
        p = LCSProblem(a, b, width=6)
        assert solve_sequential(p).score == 9.0

    def test_sw_huge_gap_penalties_forbid_gaps(self, rng):
        scoring = ScoringScheme(
            match=2.0, mismatch=-1.0, gap_open=100.0, gap_extend=100.0
        )
        q = rng.integers(0, 4, 10)
        db = rng.integers(0, 4, 50)
        p = SmithWatermanProblem(q, db, scoring=scoring)
        assert solve_sequential(p).score == sw_score_reference(q, db, scoring)

    def test_sw_single_symbol_query(self, rng):
        q = np.array([2], dtype=np.int64)
        db = rng.integers(0, 4, 30)
        p = SmithWatermanProblem(q, db)
        sol = solve_sequential(p)
        expected = p.scoring.match if np.any(db == 2) else 0.0
        assert sol.score == expected

    def test_asymmetric_band_long_vs_short(self, rng):
        a = rng.integers(0, 4, 60)
        b = rng.integers(0, 4, 20)  # |len difference| = 40
        p = LCSProblem(a, b, width=45)
        par = solve_parallel(p, num_procs=4)
        seq = solve_sequential(p)
        assert par.score == seq.score


class TestViterbiParameterSpace:
    def test_minimal_constraint_length(self, rng):
        code = ConvolutionalCode("K2", 2, (0o3, 0o1))
        payload = random_packet(40, rng)
        encoded = code.encode(payload)
        p = ViterbiDecoderProblem(code, encoded)
        decoded = p.extract(solve_sequential(p))
        np.testing.assert_array_equal(decoded, payload)

    def test_rate_one_code(self, rng):
        code = ConvolutionalCode("R1", 3, (0o7,))  # single generator
        payload = random_packet(30, rng)
        encoded = code.encode(payload)
        p = ViterbiDecoderProblem(code, encoded)
        decoded = p.extract(solve_sequential(p))
        np.testing.assert_array_equal(decoded, payload)

    def test_high_rate_redundancy(self, rng):
        code = ConvolutionalCode("R8", 4, (0o17, 0o13, 0o15, 0o11) * 2)
        payload = random_packet(24, rng)
        encoded = code.encode(payload)
        # Flip a hefty 10% of bits: rate-1/8 redundancy still recovers.
        from repro.datagen.packets import transmit_bsc

        noisy = transmit_bsc(encoded, rng, error_rate=0.10)
        p = ViterbiDecoderProblem(code, noisy)
        decoded = p.extract(solve_sequential(p))
        assert (decoded != payload).mean() < 0.1

    def test_single_payload_bit(self, rng):
        code = ConvolutionalCode("K3", 3, (0o7, 0o5))
        payload = np.array([1], dtype=np.uint8)
        p = ViterbiDecoderProblem(code, code.encode(payload))
        np.testing.assert_array_equal(p.extract(solve_sequential(p)), payload)

    def test_parallel_on_tiny_packet(self, rng):
        code = ConvolutionalCode("K3", 3, (0o7, 0o5))
        payload = random_packet(4, rng)
        p = ViterbiDecoderProblem(code, code.encode(payload))
        par = solve_parallel(p, num_procs=16)  # clamps to 6 stages
        seq = solve_sequential(p)
        np.testing.assert_array_equal(par.path, seq.path)
