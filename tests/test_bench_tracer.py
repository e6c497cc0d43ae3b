"""The traced benchmark patches package names; a rename must fail here first."""

import importlib.util
import pathlib

import numpy as np

import pointbilliard
import pointbilliard.cli  # noqa: F401  (the tracer patches cli names too)
from pointbilliard.greens import GreensAccuracy, GreensEvaluator, ScattererSet

from conftest import gap_midpoint

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(golden, generic_point, big_table):
    originals = (GreensEvaluator.diag, GreensEvaluator.secular_matrix,
                 GreensEvaluator.diag_batch, np.linalg.eigvalsh)
    tracer = _load_spans().Tracer(pointbilliard)
    try:
        tracer.install()  # getattr on every wrapped name: a missing one raises
        assert GreensEvaluator.diag is not originals[0]
        ev = GreensEvaluator(golden, ScattererSet((generic_point,), (0.3,)),
                             GreensAccuracy(n_max=300), table=big_table)
        ev.diag(0, gap_midpoint(ev, 100))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"greens.evaluator_init", "greens.diag"} <= names
    assert (GreensEvaluator.diag, GreensEvaluator.secular_matrix,
            GreensEvaluator.diag_batch, np.linalg.eigvalsh) == originals
