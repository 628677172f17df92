"""Tests for AWGN channel models and soft-decision Viterbi decoding."""

import numpy as np
import pytest

from repro.datagen.packets import random_packet
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.channel import (
    awgn_channel,
    bpsk_modulate,
    ebn0_to_noise_sigma,
    hard_decision,
    quantize_llr,
)
from repro.problems.convolutional import (
    VOYAGER,
    SoftViterbiDecoderProblem,
    ViterbiDecoderProblem,
)


class TestChannelPrimitives:
    def test_bpsk_mapping(self):
        np.testing.assert_array_equal(
            bpsk_modulate(np.array([0, 1, 0], dtype=np.uint8)), [1.0, -1.0, 1.0]
        )

    def test_bpsk_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bpsk_modulate(np.array([2], dtype=np.uint8))

    def test_awgn_statistics(self, rng):
        clean = np.ones(50_000)
        noisy = awgn_channel(clean, rng, sigma=0.5)
        assert abs(noisy.mean() - 1.0) < 0.02
        assert abs(noisy.std() - 0.5) < 0.02

    def test_awgn_zero_sigma_identity(self, rng):
        clean = bpsk_modulate(random_packet(64, rng))
        np.testing.assert_array_equal(awgn_channel(clean, rng, sigma=0.0), clean)

    def test_hard_decision_roundtrip(self, rng):
        bits = random_packet(100, rng)
        np.testing.assert_array_equal(hard_decision(bpsk_modulate(bits)), bits)

    def test_ebn0_conversion_monotone(self):
        # Higher Eb/N0 ⇒ less noise; lower code rate ⇒ more noise/symbol.
        assert ebn0_to_noise_sigma(6.0, 0.5) < ebn0_to_noise_sigma(2.0, 0.5)
        assert ebn0_to_noise_sigma(4.0, 1 / 3) > ebn0_to_noise_sigma(4.0, 1 / 2)
        with pytest.raises(ValueError):
            ebn0_to_noise_sigma(4.0, 0.0)

    def test_quantize_llr_integer_and_clipped(self, rng):
        y = awgn_channel(bpsk_modulate(random_packet(1000, rng)), rng, sigma=0.7)
        q = quantize_llr(y, sigma=0.7, num_bits=4)
        assert q.dtype == np.int64
        assert q.max() <= 7 and q.min() >= -7

    def test_quantize_llr_sign_tracks_symbol(self):
        q = quantize_llr(np.array([1.0, -1.0]), sigma=0.5, num_bits=4)
        assert q[0] > 0 > q[1]

    def test_quantize_validation(self):
        with pytest.raises(ValueError):
            quantize_llr(np.zeros(2), sigma=0.0)
        with pytest.raises(ValueError):
            quantize_llr(np.zeros(2), sigma=1.0, num_bits=1)


def _soft_problem(code, payload, rng, *, ebn0_db):
    encoded = code.encode(payload)
    sigma = ebn0_to_noise_sigma(ebn0_db, 1.0 / code.rate_denominator)
    received = awgn_channel(bpsk_modulate(encoded), rng, sigma=sigma)
    llrs = quantize_llr(received, sigma=sigma, num_bits=5)
    return (
        SoftViterbiDecoderProblem(code, llrs),
        ViterbiDecoderProblem(code, hard_decision(received)),
    )


class TestSoftDecoder:
    def test_clean_channel_decodes_exactly(self, rng):
        payload = random_packet(64, rng)
        soft, _ = _soft_problem(VOYAGER, payload, rng, ebn0_db=40.0)
        decoded = soft.extract(solve_sequential(soft))
        np.testing.assert_array_equal(decoded, payload)

    def test_parallel_equals_sequential(self, rng):
        payload = random_packet(96, rng)
        soft, _ = _soft_problem(VOYAGER, payload, rng, ebn0_db=2.0)
        seq = solve_sequential(soft)
        par = solve_parallel(soft, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_soft_beats_hard_at_low_snr(self):
        """The classic ~2 dB soft-decision gain, as a BER comparison."""
        rng = np.random.default_rng(0)
        soft_errors = 0
        hard_errors = 0
        total = 0
        for _ in range(6):
            payload = random_packet(256, rng)
            soft, hard = _soft_problem(VOYAGER, payload, rng, ebn0_db=1.0)
            soft_dec = soft.extract(solve_sequential(soft))
            hard_dec = hard.extract(solve_sequential(hard))
            soft_errors += int((soft_dec != payload).sum())
            hard_errors += int((hard_dec != payload).sum())
            total += payload.size
        assert soft_errors < hard_errors, (soft_errors, hard_errors, total)

    def test_is_valid_ltdp(self, rng):
        payload = random_packet(32, rng)
        soft, _ = _soft_problem(VOYAGER, payload, rng, ebn0_db=3.0)
        report = validate_problem(soft, num_stage_samples=3)
        assert report.ok, report.failures

    def test_llr_validation(self):
        with pytest.raises(ProblemDefinitionError):
            SoftViterbiDecoderProblem(VOYAGER, np.zeros(3))
        with pytest.raises(ProblemDefinitionError):
            SoftViterbiDecoderProblem(VOYAGER, np.array([1.0, np.inf]))

    def test_edge_weight_matches_probe(self, rng):
        from repro.ltdp.engine.driver import edge_weight_by_probe

        payload = random_packet(16, rng)
        soft, _ = _soft_problem(VOYAGER, payload, rng, ebn0_db=3.0)
        for j in (0, 17, 63):
            for k in (0, 40):
                assert soft.edge_weight(2, j, k) == edge_weight_by_probe(
                    soft, 2, j, k
                )
