"""Tests for discrete HMMs and Viterbi inference."""

import itertools

import numpy as np
import pytest

from repro.exceptions import ProblemDefinitionError
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.hmm import DiscreteHMM, HMMViterbiProblem


def brute_force_viterbi(hmm: DiscreteHMM, obs: np.ndarray):
    """Enumerate all state sequences (tiny instances only)."""
    best_lp = -np.inf
    best_seq = None
    S = hmm.num_states
    with np.errstate(divide="ignore"):
        lt = np.log(hmm.transition)
        le = np.log(hmm.emission)
        lp0 = np.log(hmm.initial)
    for seq in itertools.product(range(S), repeat=len(obs)):
        lp = lp0[seq[0]] + le[seq[0], obs[0]]
        for t in range(1, len(obs)):
            lp += lt[seq[t - 1], seq[t]] + le[seq[t], obs[t]]
        if lp > best_lp:
            best_lp = lp
            best_seq = seq
    return best_lp, np.asarray(best_seq)


def small_hmm(rng, S=3, O=3, peakedness=2.0):
    return DiscreteHMM.random(S, O, rng, peakedness=peakedness)


class TestModelValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ProblemDefinitionError):
            DiscreteHMM(
                np.array([[0.5, 0.2], [0.5, 0.5]]),
                np.full((2, 2), 0.5),
                np.array([0.5, 0.5]),
            )

    def test_square_transition_required(self):
        with pytest.raises(ProblemDefinitionError):
            DiscreteHMM(np.full((2, 3), 1 / 3), np.full((2, 2), 0.5), [0.5, 0.5])

    def test_negative_probability_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            DiscreteHMM(
                np.array([[1.5, -0.5], [0.5, 0.5]]),
                np.full((2, 2), 0.5),
                [0.5, 0.5],
            )

    def test_random_model_is_valid(self, rng):
        m = small_hmm(rng)
        assert m.num_states == 3 and m.num_observables == 3

    def test_peakedness_validation(self, rng):
        with pytest.raises(ValueError):
            DiscreteHMM.random(2, 2, rng, peakedness=0.0)


class TestSampling:
    def test_shapes(self, rng):
        m = small_hmm(rng)
        states, obs = m.sample(50, rng)
        assert states.shape == obs.shape == (50,)
        assert states.max() < 3 and obs.max() < 3

    def test_length_validation(self, rng):
        with pytest.raises(ValueError):
            small_hmm(rng).sample(0, rng)


class TestViterbiCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = small_hmm(rng)
        _, obs = m.sample(6, rng)
        problem = m.viterbi_problem(obs)
        sol = solve_sequential(problem)
        expected_lp, expected_seq = brute_force_viterbi(m, obs)
        assert sol.score == pytest.approx(expected_lp)
        np.testing.assert_array_equal(problem.extract(sol), expected_seq)

    def test_parallel_equals_sequential(self, rng):
        m = DiscreteHMM.random(8, 5, rng, peakedness=3.0)
        _, obs = m.sample(120, rng)
        problem = m.viterbi_problem(obs)
        seq = solve_sequential(problem)
        par = solve_parallel(problem, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert par.score == pytest.approx(seq.score, abs=1e-9)

    def test_selector_stage_shape(self, rng):
        m = small_hmm(rng)
        _, obs = m.sample(10, rng)
        p = m.viterbi_problem(obs)
        assert p.num_stages == 10
        assert p.stage_width(10) == 1
        assert p.stage_width(9) == 3

    def test_single_observation(self, rng):
        m = small_hmm(rng)
        p = m.viterbi_problem(np.array([1]))
        sol = solve_sequential(p)
        assert sol.score == pytest.approx(
            np.max(np.log(m.initial) + np.log(m.emission[:, 1]))
        )

    def test_observation_range_validated(self, rng):
        m = small_hmm(rng)
        with pytest.raises(ProblemDefinitionError):
            m.viterbi_problem(np.array([0, 7]))

    def test_empty_observations_rejected(self, rng):
        m = small_hmm(rng)
        with pytest.raises(ProblemDefinitionError):
            m.viterbi_problem(np.array([], dtype=np.int64))

    def test_unreachable_state_rejected(self):
        # State 1 has no incoming transitions: its matrix row is trivial.
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        e = np.full((2, 2), 0.5)
        with pytest.raises(ProblemDefinitionError):
            HMMViterbiProblem(
                DiscreteHMM(t, e, [0.5, 0.5]), np.array([0, 1])
            )

    def test_is_valid_ltdp(self, rng):
        m = DiscreteHMM.random(5, 4, rng, peakedness=2.0)
        _, obs = m.sample(20, rng)
        report = validate_problem(m.viterbi_problem(obs), tol=1e-9)
        assert report.ok, report.failures

    def test_edge_weight_matches_matrix(self, rng):
        m = small_hmm(rng)
        _, obs = m.sample(10, rng)
        p = m.viterbi_problem(obs)
        A = p.stage_matrix(4)
        for j in range(3):
            for k in range(3):
                assert p.edge_weight(4, j, k) == pytest.approx(A[j, k])

    def test_peaked_models_converge_faster(self):
        """§4.8: dominant paths ⇒ faster rank convergence."""
        from repro.ltdp.convergence import measure_convergence_steps

        rng = np.random.default_rng(0)
        peaked_model = DiscreteHMM.random(6, 6, rng, peakedness=8.0)
        flat_model = DiscreteHMM.random(6, 6, rng, peakedness=0.3)
        _, obs_p = peaked_model.sample(150, rng)
        _, obs_f = flat_model.sample(150, rng)
        s_peaked = measure_convergence_steps(
            peaked_model.viterbi_problem(obs_p), num_trials=10, seed=1
        )
        s_flat = measure_convergence_steps(
            flat_model.viterbi_problem(obs_f), num_trials=10, seed=1
        )
        # Peaked models should converge at least as often, and when both
        # converge, do so at least as fast on the median.
        assert s_peaked.convergence_fraction >= s_flat.convergence_fraction
        if s_peaked.median_steps and s_flat.median_steps:
            assert s_peaked.median_steps <= s_flat.median_steps


class TestForwardAlgorithm:
    def test_against_brute_force_sum(self, rng):
        import itertools

        m = small_hmm(rng)
        _, obs = m.sample(5, rng)
        S = m.num_states
        total = 0.0
        for seq in itertools.product(range(S), repeat=len(obs)):
            p = m.initial[seq[0]] * m.emission[seq[0], obs[0]]
            for t in range(1, len(obs)):
                p *= m.transition[seq[t - 1], seq[t]] * m.emission[seq[t], obs[t]]
            total += p
        assert m.log_likelihood(obs) == pytest.approx(np.log(total))

    def test_upper_bounds_viterbi(self, rng):
        m = DiscreteHMM.random(6, 4, rng, peakedness=2.0)
        _, obs = m.sample(40, rng)
        viterbi_lp = solve_sequential(m.viterbi_problem(obs)).score
        assert m.log_likelihood(obs) >= viterbi_lp - 1e-9

    def test_likelihood_decreases_with_length(self, rng):
        m = small_hmm(rng)
        _, obs = m.sample(30, rng)
        assert m.log_likelihood(obs) < m.log_likelihood(obs[:10])

    def test_validation(self, rng):
        m = small_hmm(rng)
        with pytest.raises(ProblemDefinitionError):
            m.log_likelihood(np.array([], dtype=np.int64))
        with pytest.raises(ProblemDefinitionError):
            m.log_likelihood(np.array([99]))
