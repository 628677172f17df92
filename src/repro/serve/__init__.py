"""Request-serving front-end: in-process, or over one worker pool.

``repro serve`` / :class:`LTDPService` accepts streams of decode/align
requests and batches same-shape problems.  Each request class is solved
at the processor count the cost model picks.  At ``P = 1`` it is solved
in-process, and an exact resend or a near-duplicate is answered from the
class's resident answer by a suffix repair.  At ``P > 1`` every request
is a plain ``solve_parallel`` on one persistent
:class:`~repro.machine.pool.PoolProcessExecutor`.  Every answer is
bit-identical to a fresh sequential solve.
"""

from repro.serve.requests import (
    CACHE_HIT,
    CACHE_MISS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    PendingRequest,
    ServeResponse,
    class_label,
    request_class,
)
from repro.serve.selftest import SelftestReport, build_request_stream, run_selftest
from repro.serve.service import ClassStats, LTDPService

__all__ = [
    "CACHE_HIT",
    "CACHE_MISS",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ClassStats",
    "LTDPService",
    "PendingRequest",
    "SelftestReport",
    "ServeResponse",
    "build_request_stream",
    "class_label",
    "request_class",
    "run_selftest",
]
