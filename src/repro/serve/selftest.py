"""`repro serve --selftest`: the serving layer's end-to-end demo.

Generates a seeded stream of mixed requests — fresh problems and
near-duplicates (1-3 symbol mutations of the current canonical) across
two banded-alignment families — serves them all through one
:class:`~repro.serve.service.LTDPService`, then verifies **every**
successful response bit-identical against a fresh ``solve_sequential``
of the same problem and checks that the pool's workers are gone after
the drain.

The report is the serving layer's acceptance demo: ≥ 100 requests
served, cache hits answered by repairing the resident answer
(``delta_cells > 0``), zero mismatches, zero leaked workers, and the
count of requests solved in-process (``P = 1``) vs on the pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.datagen.sequences import homologous_pair
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem

from repro.serve.requests import CACHE_HIT, STATUS_OK
from repro.serve.service import LTDPService

__all__ = ["SelftestReport", "build_request_stream", "run_selftest"]


@dataclass
class SelftestReport:
    """Outcome of one selftest run (CLI exit code = ``not passed``)."""

    requests: int = 0
    served_ok: int = 0
    verified: int = 0
    mismatches: int = 0
    rejected: int = 0
    errors: int = 0
    hits: int = 0
    misses: int = 0
    delta_cells: int = 0
    sequential: int = 0
    parallel: int = 0
    leaked_workers: int = 0
    wall_seconds: float = 0.0
    min_served: int = 100
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.served_ok >= self.min_served
            and self.verified == self.served_ok
            and self.mismatches == 0
            and self.errors == 0
            and self.hits > 0
            and self.delta_cells > 0
            and self.leaked_workers == 0
        )

    def lines(self) -> list[str]:
        hit_rate = self.hits / self.served_ok if self.served_ok else 0.0
        return [
            f"requests submitted : {self.requests}",
            f"served ok          : {self.served_ok} "
            f"(rejected {self.rejected}, errors {self.errors})",
            f"verified identical : {self.verified} "
            f"(mismatches {self.mismatches})",
            f"cache              : {self.hits} hits / {self.misses} misses "
            f"(hit rate {hit_rate:.0%})",
            f"delta cells        : {self.delta_cells} "
            "(work of the repair sweeps)",
            f"P choice           : {self.sequential} in-process (P=1) / "
            f"{self.parallel} pooled (P>1)",
            f"leaked workers     : {self.leaked_workers}",
            f"wall               : {self.wall_seconds:.2f} s",
            f"passed             : {self.passed}",
        ]


def _mutate(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """1-3 symbol substitutions (always changing the symbol)."""
    out = np.array(a, copy=True)
    for pos in rng.choice(out.size, size=int(rng.integers(1, 4)), replace=False):
        out[pos] = (out[pos] + rng.integers(1, 4)) % 4
    return out


def build_request_stream(
    num_requests: int, seed: int | None = 0, *, size: int = 48, width: int = 10
) -> list:
    """Seeded mixed request stream over the LCS and NW families.

    Every family starts from a canonical instance; each subsequent
    request either *mutates* the family's current problem's ``a``
    (near-duplicate — same ``b``, provably bounded diff) or replaces
    the pair wholesale (fresh — forces a cache miss).
    """
    rng = np.random.default_rng(seed)
    families = {}
    for name, cls in (("lcs", LCSProblem), ("nw", NeedlemanWunschProblem)):
        a, b = homologous_pair(size, rng, divergence=0.1)
        families[name] = {"cls": cls, "a": a, "b": b}
    requests = []
    names = list(families)
    for _ in range(num_requests):
        fam = families[names[int(rng.integers(len(names)))]]
        roll = rng.random()
        if requests and roll < 0.7:
            fam["a"] = _mutate(fam["a"], rng)
        elif roll < 0.9 or not requests:
            fam["a"], fam["b"] = homologous_pair(size, rng, divergence=0.1)
        # else: resubmit the family's current problem verbatim (an exact
        # duplicate — the cheapest possible hit, zero dirty stages).
        requests.append(fam["cls"](fam["a"], fam["b"], width=width))
    return requests


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid reuse
        return True
    return True


def run_selftest(
    *,
    num_requests: int = 120,
    num_procs: int = 3,
    max_workers: int | None = 3,
    max_queue: int | None = None,
    seed: int | None = 0,
    min_served: int = 100,
    log=None,
) -> SelftestReport:
    """Serve a mixed stream end to end and verify every answer."""
    say = log if log is not None else (lambda *_: None)
    t0 = time.perf_counter()
    problems = build_request_stream(num_requests, seed)
    say(
        f"serve selftest: {len(problems)} requests, "
        f"{num_procs} procs, pool max_workers={max_workers}"
    )
    service = LTDPService(
        max_workers=max_workers,
        num_procs=num_procs,
        max_queue=max_queue if max_queue is not None else num_requests,
        seed=seed,
    )
    report = SelftestReport(requests=len(problems), min_served=min_served)
    pids: list[int] = []
    try:
        service.start()
        tickets = [service.submit(p) for p in problems]
        responses = [t.result(timeout=600.0) for t in tickets]
        pids = list(service.executor.worker_pids())
    finally:
        report.stats = service.close()
    for problem, response in zip(problems, responses):
        if response.status != STATUS_OK:
            if response.status == "rejected":
                report.rejected += 1
            else:
                report.errors += 1
            continue
        report.served_ok += 1
        if response.num_procs == 1:
            report.sequential += 1
        else:
            report.parallel += 1
        if response.cache == CACHE_HIT:
            report.hits += 1
        else:
            report.misses += 1
        report.delta_cells += response.delta_cells
        expected = solve_sequential(problem)
        got = response.solution
        if (
            got is not None
            and np.array_equal(expected.path, got.path)
            and expected.score == got.score
        ):
            report.verified += 1
        else:
            report.mismatches += 1
    report.leaked_workers = sum(1 for pid in pids if _pid_alive(pid))
    report.wall_seconds = time.perf_counter() - t0
    for line in report.lines():
        say(line)
    return report
