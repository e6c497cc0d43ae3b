"""The traced benchmark patches package names; a rename must fail here first."""

import importlib.util
import pathlib

import numpy as np

import pointbilliard
import pointbilliard.cli  # noqa: F401  (the tracer patches cli names too)
from pointbilliard.greens import GreensAccuracy, GreensEvaluator, ScattererSet

from conftest import gap_midpoint, make_evaluator

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


def test_batch_forms_record_one_span_each(golden, generic_point, second_point, big_table):
    # a batch is one read of the series, not a loop over the scalar forms,
    # whose spans would nest inside it and count each energy twice
    tracer = _load_spans().Tracer(pointbilliard)
    try:
        tracer.install()
        ev = make_evaluator(golden, big_table, [generic_point, second_point], [0.3, -0.4],
                            n_max=300)
        omegas = np.array([gap_midpoint(ev, k) for k in (40, 80, 120, 160)])
        ev.diag_batch(1, omegas)
        ev.secular_matrix_batch(omegas.reshape(2, 2))
    finally:
        tracer.uninstall()
    series = [(span[0], span[6].get("batch")) for span in tracer.spans
              if span[0].startswith("greens.") and span[0] != "greens.evaluator_init"]
    assert series == [("greens.diag_batch", 4), ("greens.secular_matrix_batch", 4)]
