"""Request/response vocabulary of the LTDP serving layer.

A request is just an :class:`~repro.ltdp.problem.LTDPProblem` instance;
the service answers it with a :class:`ServeResponse` carrying the
solution (bit-identical to a fresh sequential solve), the cache outcome
(fresh solve vs an in-process class's resident answer, resent or
suffix-repaired) and latency/accounting scalars.  :func:`request_class`
computes the family+shape key the service batches and caches by.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.ltdp.problem import LTDPProblem, LTDPSolution

__all__ = [
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_ERROR",
    "CACHE_HIT",
    "CACHE_MISS",
    "request_class",
    "class_label",
    "ServeResponse",
    "PendingRequest",
]

#: Response statuses.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"  # admission control (queue full / closed)
STATUS_ERROR = "error"  # the solve itself failed (e.g. executor closed or a worker kept dying)

#: Cache outcomes of a served (``ok``) request.
CACHE_HIT = "hit"  # in-process: the resident answer, resent or suffix-repaired
CACHE_MISS = "miss"  # fresh solve (new class, undiffable, or any pooled solve)


def request_class(problem: LTDPProblem) -> tuple:
    """Family + shape key: requests with equal keys share one class
    entry (calibration, P choice, resident in-process answer) and are
    served together in one batch.

    Same key does **not** imply same answer — it implies the problems
    are *commensurable*: identical stage count and boundary widths, so
    a suffix repair of one's resident answer against another is
    well-formed whenever :meth:`LTDPProblem.dirty_stages_against`
    additionally proves a bounded diff.
    """
    n = problem.num_stages
    return (
        type(problem).__name__,
        n,
        problem.stage_width(0),
        problem.stage_width(n),
        getattr(problem, "width", None),
    )


def class_label(key: tuple) -> str:
    """Human-readable form of a :func:`request_class` key (stats/report)."""
    name, n, w0, wn, band = key
    parts = [f"n={n}", f"w0={w0}", f"wn={wn}"]
    if band is not None:
        parts.append(f"band={band}")
    return f"{name}[{','.join(parts)}]"


@dataclass(frozen=True)
class ServeResponse:
    """Terminal outcome of one submitted request.

    ``solution`` is present iff ``status == STATUS_OK``; the service
    contract is that it is bit-identical (path, score, objective cell)
    to ``solve_sequential(problem)`` regardless of ``cache``.
    ``num_procs`` is the ``P`` the request was solved at: 1 in-process,
    more on the pool, 0 when no solve was attempted (rejected).
    ``delta_cells`` is the repair work of a hit: the cells of the suffix
    sweep from the first dirty stage (0 for an exact resend).  Misses,
    pooled answers included, report 0.  ``fixup_iterations`` is the
    forward fix-up rounds the solve needed (0 in-process).
    """

    request_id: int
    status: str
    cache: str | None = None
    solution: LTDPSolution | None = None
    latency_seconds: float = 0.0
    delta_cells: int = 0
    fixup_iterations: int = 0
    num_procs: int = 0
    reason: str = ""


class PendingRequest:
    """Ticket returned by ``LTDPService.submit`` (a minimal future).

    Admission-control rejections resolve the ticket synchronously, so
    ``result()`` never blocks on a rejected request — backpressure is
    immediately observable to the submitting client.
    """

    __slots__ = ("request_id", "problem", "key", "_event", "_response")

    def __init__(self, request_id: int, problem: LTDPProblem, key: tuple) -> None:
        self.request_id = request_id
        self.problem = problem
        self.key = key
        self._event = threading.Event()
        self._response: ServeResponse | None = None

    def _resolve(self, response: ServeResponse) -> None:
        self._response = response
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServeResponse:
        """Block until the service resolves this request."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not served within {timeout}s"
            )
        response = self._response
        if response is None:  # pragma: no cover - _resolve writes before set()
            raise RuntimeError(f"request {self.request_id} resolved without a response")
        return response
