"""Tests for convolutional codes and the Viterbi decoder problem."""

import numpy as np
import pytest

from repro.datagen.packets import make_received_packet, random_packet, transmit_bsc
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.convolutional import (
    CDMA_IS95,
    LTE,
    MARS,
    MARS_SCALED,
    STANDARD_CODES,
    VOYAGER,
    ConvolutionalCode,
    ViterbiDecoderProblem,
)


class TestCodeDefinitions:
    def test_standard_state_counts(self):
        assert VOYAGER.num_states == 64
        assert LTE.num_states == 64
        assert CDMA_IS95.num_states == 256
        assert MARS.num_states == 16384
        assert MARS_SCALED.num_states == 1024

    def test_rates(self):
        assert VOYAGER.rate_denominator == 2
        assert LTE.rate_denominator == 3
        assert MARS.rate_denominator == 6

    def test_registry(self):
        assert set(STANDARD_CODES) == {
            "Voyager",
            "LTE",
            "CDMA",
            "MARS",
            "MARS-scaled",
        }

    def test_generator_must_fit(self):
        with pytest.raises(ProblemDefinitionError):
            ConvolutionalCode("bad", 3, (0o777,))

    def test_constraint_bounds(self):
        with pytest.raises(ProblemDefinitionError):
            ConvolutionalCode("bad", 1, (1,))
        with pytest.raises(ProblemDefinitionError):
            ConvolutionalCode("bad", 20, (1,))

    def test_no_generators(self):
        with pytest.raises(ProblemDefinitionError):
            ConvolutionalCode("bad", 5, ())


class TestEncoder:
    def test_known_k3_code(self):
        """K=3, generators 7/5 — a textbook example with known output."""
        code = ConvolutionalCode("K3", 3, (0o7, 0o5))
        # Input 1 from state 00: register = 100b; g7=111 → parity(100)=1;
        # g5=101 → parity(100)=1. Next state = 10b.
        out = code.encode(np.array([1], dtype=np.uint8), terminate=False)
        np.testing.assert_array_equal(out, [1, 1])

    def test_known_k3_sequence(self):
        code = ConvolutionalCode("K3", 3, (0o7, 0o5))
        # Standard example: input 1011 → output 11 10 00 01 (g=[7,5],
        # MSB-newest convention).
        out = code.encode(np.array([1, 0, 1, 1], dtype=np.uint8), terminate=False)
        np.testing.assert_array_equal(out, [1, 1, 1, 0, 0, 0, 0, 1])

    def test_termination_appends_flush_bits(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        out = VOYAGER.encode(bits, terminate=True)
        assert out.size == 2 * (3 + 6)

    def test_zero_input_gives_zero_output(self):
        out = VOYAGER.encode(np.zeros(10, dtype=np.uint8))
        assert not out.any()

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            VOYAGER.encode(np.array([0, 2], dtype=np.uint8))

    def test_trellis_tables_consistent_with_encoder(self):
        """pred/out tables must agree with step-by-step encoding."""
        code = ConvolutionalCode("K4", 4, (0o17, 0o13))
        tables = code._tables
        K = code.constraint_length
        for s_prev in range(code.num_states):
            for b in (0, 1):
                reg = (b << (K - 1)) | s_prev
                ns = reg >> 1
                branch = reg & 1
                assert tables["pred"][ns, branch] == s_prev
                assert tables["input_bit"][ns, branch] == b
                for g_idx, g in enumerate(code.generators):
                    expected = bin(reg & g).count("1") & 1
                    assert tables["out"][ns, branch, g_idx] == expected

    def test_pred_branch_order_is_sorted(self):
        """Branch 0 must be the lower predecessor (tie-break assumption)."""
        for code in (VOYAGER, CDMA_IS95):
            pred = code._tables["pred"]
            assert np.all(pred[:, 0] < pred[:, 1])


class TestDecoderProblem:
    def test_noiseless_decode_recovers_payload(self, rng):
        payload = random_packet(64, rng)
        encoded = VOYAGER.encode(payload)
        problem = ViterbiDecoderProblem(VOYAGER, encoded)
        sol = solve_sequential(problem)
        np.testing.assert_array_equal(problem.extract(sol), payload)

    def test_noiseless_score_is_bit_count(self, rng):
        payload = random_packet(32, rng)
        encoded = VOYAGER.encode(payload)
        problem = ViterbiDecoderProblem(VOYAGER, encoded)
        sol = solve_sequential(problem)
        assert sol.score == float(encoded.size)  # every bit agrees

    @pytest.mark.parametrize("code", [VOYAGER, LTE, CDMA_IS95])
    def test_noisy_decode_at_low_error_rate(self, code, rng):
        payload, problem = make_received_packet(code, 128, rng, error_rate=0.02)
        sol = solve_sequential(problem)
        decoded = problem.extract(sol)
        # ML decoding at 2% BSC on these codes corrects essentially always.
        assert (decoded != payload).mean() < 0.05

    def test_parallel_equals_sequential(self, rng):
        payload, problem = make_received_packet(VOYAGER, 96, rng, error_rate=0.03)
        seq = solve_sequential(problem)
        par = solve_parallel(problem, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score
        np.testing.assert_array_equal(problem.extract(seq), problem.extract(par))

    def test_unterminated_variant(self, rng):
        payload = random_packet(40, rng)
        encoded = VOYAGER.encode(payload, terminate=False)
        problem = ViterbiDecoderProblem(VOYAGER, encoded, terminated=False)
        assert problem.num_stages == 41  # extra max-selection stage
        assert problem.stage_width(problem.num_stages) == 1
        sol = solve_sequential(problem)
        decoded = problem.extract(sol)
        # Without termination the tail is unprotected but the bulk decodes.
        np.testing.assert_array_equal(decoded[:30], payload[:30])

    def test_received_length_validation(self):
        with pytest.raises(ProblemDefinitionError):
            ViterbiDecoderProblem(VOYAGER, np.zeros(3, dtype=np.uint8))

    def test_received_bit_validation(self):
        with pytest.raises(ProblemDefinitionError):
            ViterbiDecoderProblem(VOYAGER, np.array([0, 2], dtype=np.uint8))

    def test_stage_cost_counts_acs_ops(self, rng):
        _, problem = make_received_packet(VOYAGER, 16, rng)
        assert problem.stage_cost(1) == 2.0 * 64

    def test_edge_weight_matches_probe(self, rng):
        from repro.ltdp.engine.driver import edge_weight_by_probe

        _, problem = make_received_packet(VOYAGER, 8, rng)
        for j in (0, 5, 63):
            for k in (0, 31, 63):
                assert problem.edge_weight(3, j, k) == edge_weight_by_probe(
                    problem, 3, j, k
                )

    def test_is_valid_ltdp(self, rng):
        _, problem = make_received_packet(VOYAGER, 24, rng)
        assert validate_problem(problem, num_stage_samples=3).ok


class TestChannel:
    def test_bsc_flip_rate(self, rng):
        bits = np.zeros(20_000, dtype=np.uint8)
        noisy = transmit_bsc(bits, rng, error_rate=0.1)
        assert 0.08 < noisy.mean() < 0.12

    def test_bsc_zero_noise_identity(self, rng):
        bits = random_packet(100, rng)
        np.testing.assert_array_equal(
            transmit_bsc(bits, rng, error_rate=0.0), bits
        )

    def test_bsc_rate_validation(self, rng):
        with pytest.raises(ValueError):
            transmit_bsc(np.zeros(4, dtype=np.uint8), rng, error_rate=0.5)
