"""Linear-Tropical Dynamic Programming (LTDP) — the paper's core.

- :mod:`repro.ltdp.problem` — the :class:`LTDPProblem` abstraction
  (stage kernels hide the ⨂ / ⋆ implementation details, paper §3);
- :mod:`repro.ltdp.matrix_problem` — LTDP instance from explicit
  transformation matrices (the literal Equation (2) form);
- :mod:`repro.ltdp.sequential` — the sequential algorithm (Fig 2);
- :mod:`repro.ltdp.engine` — the parallel forward (Fig 4) and
  backward (Fig 5) algorithms with their fix-up loops;
- :mod:`repro.ltdp.partition` — stage partitioning across processors;
- :mod:`repro.ltdp.delta` — the delta-computation optimization (§4.7);
- :mod:`repro.ltdp.convergence` — the rank-convergence measurement
  harness behind Table 1 (§6.1);
- :mod:`repro.ltdp.validation` — LTDP well-formedness checks
  (linearity, non-trivial kernels, all-non-zero preservation, §4.5).
"""

from repro.ltdp.problem import LTDPProblem, LTDPSolution
from repro.ltdp.matrix_problem import MatrixLTDPProblem, random_matrix_problem
from repro.ltdp.sequential import solve_sequential, forward_sequential
from repro.ltdp.engine.driver import solve_parallel, ParallelOptions
from repro.ltdp.partition import partition_stages, StageRange
from repro.ltdp.delta import (
    delta_encode,
    delta_decode,
    changed_delta_count,
    delta_fixup_work,
)
from repro.ltdp.convergence import (
    ConvergenceStudy,
    measure_convergence_steps,
    steps_to_parallel,
    partial_product_rank_profile,
)
from repro.ltdp.validation import validate_problem, ValidationReport
from repro.ltdp.blocked import solve_blocked

__all__ = [
    "solve_blocked",
    "LTDPProblem",
    "LTDPSolution",
    "MatrixLTDPProblem",
    "random_matrix_problem",
    "solve_sequential",
    "forward_sequential",
    "solve_parallel",
    "ParallelOptions",
    "partition_stages",
    "StageRange",
    "delta_encode",
    "delta_decode",
    "changed_delta_count",
    "delta_fixup_work",
    "ConvergenceStudy",
    "measure_convergence_steps",
    "steps_to_parallel",
    "partial_product_rank_profile",
    "validate_problem",
    "ValidationReport",
]
