"""Property-based tests: the parallel algorithm equals the sequential one.

This is the paper's central correctness claim — hypothesis hammers it
with random instances, processor counts, seeds and sparsity patterns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.semiring.vector import are_parallel


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(2, 30),
    width=st.integers(2, 7),
    num_procs=st.integers(2, 12),
)
def test_parallel_equals_sequential_dense(seed, num_stages, width, num_procs):
    rng = np.random.default_rng(seed)
    problem = random_matrix_problem(num_stages, width, rng, integer=True)
    seq = solve_sequential(problem)
    par = solve_parallel(problem, num_procs=num_procs, seed=seed ^ 0xBEEF)
    np.testing.assert_array_equal(seq.path, par.path)
    assert seq.score == par.score


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    density=st.floats(0.3, 0.9),
    num_procs=st.integers(2, 6),
)
def test_parallel_equals_sequential_sparse(seed, density, num_procs):
    rng = np.random.default_rng(seed)
    problem = random_matrix_problem(16, 5, rng, density=density, integer=True)
    seq = solve_sequential(problem)
    par = solve_parallel(problem, num_procs=num_procs, seed=seed)
    np.testing.assert_array_equal(seq.path, par.path)
    assert seq.score == par.score


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), num_procs=st.integers(2, 8))
def test_stored_vectors_always_parallel_to_truth(seed, num_procs):
    """After fix-up, every stored stage vector ∥ the true solution vector."""
    rng = np.random.default_rng(seed)
    problem = random_matrix_problem(20, 4, rng, integer=True)
    seq = solve_sequential(problem, keep_stage_vectors=True)
    par = solve_parallel(
        problem, num_procs=num_procs, seed=seed, keep_stage_vectors=True
    )
    for stored, true in zip(par.stage_vectors, seq.stage_vectors):
        assert are_parallel(stored, true)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_delta_mode_result_invariant(seed):
    """§4.7 changes accounting, never results."""
    rng = np.random.default_rng(seed)
    problem = random_matrix_problem(18, 5, rng, integer=True)
    a = solve_parallel(problem, num_procs=4, seed=seed, use_delta=False)
    b = solve_parallel(problem, num_procs=4, seed=seed, use_delta=True)
    np.testing.assert_array_equal(a.path, b.path)
    assert a.score == b.score
