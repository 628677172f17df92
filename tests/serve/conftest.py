import pytest

from repro.serve import LTDPService


@pytest.fixture
def pin_pool_path(monkeypatch):
    """Pin every class's P choice to the service's ceiling.

    Tests that exist to exercise the pooled path (resident sessions,
    §4.7 delta repair on the workers, executor failures) would otherwise
    be served in-process: the cost model keeps small classes at P = 1.
    """
    monkeypatch.setattr(
        LTDPService, "_procs_for", lambda self, entry, problem: self.num_procs
    )


@pytest.fixture
def pin_in_process(monkeypatch):
    """Pin every class's P choice to 1 (the in-process path).

    The model's own choice rests on a measured solve time, so tests of
    the in-process answers pin it rather than depend on host speed.
    """
    monkeypatch.setattr(LTDPService, "_procs_for", lambda self, entry, problem: 1)
