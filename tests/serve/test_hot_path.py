"""The serve hit path runs through the stage-block kernel, not per stage.

A near-duplicate request is answered by repairing the resident solve:
one :class:`~repro.ltdp.engine.specs.DeltaRepairSpec` sweep per dirty
range, then §4.7 delta fix-up rounds.  With the kernel tier on, both
must reach the block kernel; the per-stage sparse kernel is only the
fallback for ranges no kernel accepts.  Here the path that must *not*
run is patched to raise before a fork-started pool is created, so every
worker inherits the patch and any call to it fails its request:

- tier on (auto): the per-stage sparse kernel raises;
- tier off (``REPRO_KERNELS=off``): the block sweep raises, so hits and
  fix-ups repair the resident state through the per-stage fallback.
"""

import numpy as np
import pytest

import repro.kernels
from repro.datagen.sequences import homologous_pair
from repro.ltdp.sequential import solve_sequential
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.serve import CACHE_HIT, CACHE_MISS, STATUS_OK, LTDPService

SIZE = 48
WIDTH = 8
NEAR_DUPLICATES = 6


def _near_duplicate(problem, rng, k=2):
    a = np.array(problem.a, copy=True)
    for pos in rng.choice(a.size, size=k, replace=False):
        a[pos] = (a[pos] + rng.integers(1, 4)) % 4
    return type(problem)(a, problem.b, width=WIDTH)


def _no_sparse(self, *args):
    raise AssertionError("per-stage sparse kernel on the serve hot path")


def _no_block(*args, **kwargs):
    raise AssertionError("block sweep with the kernel tier off")


@pytest.mark.parametrize("tier", ["auto", "off"])
def test_hits_and_fixups_take_the_tier_selected_path(tier, monkeypatch):
    if tier == "auto":
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        monkeypatch.setattr(LCSProblem, "apply_stage_sparse", _no_sparse)
        monkeypatch.setattr(NeedlemanWunschProblem, "apply_stage_sparse", _no_sparse)
    else:
        monkeypatch.setenv("REPRO_KERNELS", "off")
        monkeypatch.setattr(repro.kernels, "block_sweep", _no_block)
    rng = np.random.default_rng(13)
    stream = []
    for cls in (LCSProblem, NeedlemanWunschProblem):
        base = cls(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)
        stream.append(base)
        stream.extend(_near_duplicate(base, rng) for _ in range(NEAR_DUPLICATES))

    with PoolProcessExecutor(max_workers=2, start_method="fork") as pool:
        with LTDPService(executor=pool, num_procs=3, seed=0) as service:
            answers = [
                (p, service.submit(p).result(timeout=300.0)) for p in stream
            ]
        stats = service.stats()

    for problem, response in answers:
        assert response.status == STATUS_OK, response.reason
        expected = solve_sequential(problem)
        np.testing.assert_array_equal(response.solution.path, expected.path)
        assert response.solution.score == expected.score
    assert answers[0][1].cache == CACHE_MISS
    assert any(r.cache == CACHE_HIT for _, r in answers)
    total = stats["total"]
    assert total["hits"] > 0
    assert total["delta_cells"] > 0
