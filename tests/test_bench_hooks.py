"""The traced benchmark rebinds library names from outside the package
(``bench/workloads.py``, ``Traced.patched``).  Entering and leaving that
context here makes a deleted or renamed name fail the tests, not only a
``bench/run.py --trace 1`` run."""

import importlib
from pathlib import Path

from splitmono import distributed, linalg, precond

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_rebinds_and_restores_library_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")

    def names():
        return (linalg.operator_norm, precond.resolvent_via_P,
                distributed.Graph.laplacian_apply)

    before = names()
    with workloads.Traced(spans.Spans()).patched():
        assert all(a is not b for a, b in zip(names(), before))
    assert names() == before
