"""Raw-speed kernel tier: block dispatch with a bit-identity gate.

Preplanned contiguous layouts per problem family, vectorized
add-compare-select over whole stage-blocks, an optional compiled
backend (a system C compiler, auto-detected, pure-NumPy fallback), and
an exactness gate on every dispatch.  A sweep yields stage vectors and
predecessors only; §4.7 delta state is never captured here.  See
``docs/kernels.md``.
"""

from __future__ import annotations

from repro.kernels.backend import get_backend, reset_backend_cache
from repro.kernels.banded import BandedBlockKernel
from repro.kernels.base import BlockSweep, StageBlockKernel
from repro.kernels.bitparallel_lcs import BitParallelLCSKernel
from repro.kernels.registry import (
    block_sweep,
    kernel_tier_enabled,
    price_path_fast,
    register_kernel,
    registered_kernels,
    reset_plan_cache,
    warm_kernels,
)
from repro.kernels.viterbi import ViterbiBlockKernel

__all__ = [
    "BandedBlockKernel",
    "BitParallelLCSKernel",
    "BlockSweep",
    "StageBlockKernel",
    "ViterbiBlockKernel",
    "block_sweep",
    "get_backend",
    "kernel_tier_enabled",
    "price_path_fast",
    "register_kernel",
    "registered_kernels",
    "reset_backend_cache",
    "reset_plan_cache",
    "warm_kernels",
]


def _register_defaults() -> None:
    from repro.problems.alignment.lcs import LCSProblem
    from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
    from repro.problems.convolutional import (
        PuncturedViterbiDecoderProblem,
        SoftViterbiDecoderProblem,
        ViterbiDecoderProblem,
    )

    # LCS: the promoted Hyyrö bit-parallel sweep first (its row gate is
    # strict, so it mostly serves the initial pass), banded block second.
    register_kernel(LCSProblem, BitParallelLCSKernel())
    register_kernel(LCSProblem, BandedBlockKernel())
    register_kernel(NeedlemanWunschProblem, BandedBlockKernel())
    for viterbi_type in (
        ViterbiDecoderProblem,
        SoftViterbiDecoderProblem,
        PuncturedViterbiDecoderProblem,
    ):
        register_kernel(viterbi_type, ViterbiBlockKernel())


_register_defaults()
