"""Span recording around the package's public functions, for traced runs.

``Tracer.install`` replaces the public entry points of ``basis``,
``greens``, ``solver``, ``rankone``, ``stats`` and ``cli`` (and numpy's
``eigvalsh``, which the solver calls) with wrappers that record one span per
call: name, start, end, parent span, thread, and a few call attributes.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes; the
wrappers exist only while a traced run has them installed.

Spans stay in memory until ``dump``.  ``layer_metrics`` derives the
per-layer figures; self time is a span's duration minus that of its direct
children.  Spans opened by the sweep's worker threads have no parent in
their own thread and are tied to the run by the phase that was current
when they started.
"""

from __future__ import annotations

import functools
import json
import threading
import time

import numpy as np

SPAN_FIELDS = ("name", "start", "end", "parent", "thread", "phase", "attrs")


def _table_attrs(args, kwargs, result):
    return {"modes": len(result)}


def _evaluator_attrs(args, kwargs, result):
    return {"n_eff": args[0].n_eff, "n": args[0].n}


def _diag_batch_attrs(args, kwargs, result):
    # diag_batch(i, omegas): one series per omega
    return {"n_eff": args[0].n_eff, "n": 1, "batch": int(np.size(result))}


def _secular_batch_attrs(args, kwargs, result):
    ev = args[0]
    return {"n_eff": ev.n_eff, "n": ev.n, "batch": int(np.size(result)) // (ev.n * ev.n)}


def _solve_attrs(args, kwargs, result):
    return {"levels": len(result)}


def _reduce_attrs(args, kwargs, result):
    ev = args[0]
    rows = int(np.size(result)) // max(1, ev.n)
    return {"absorptions": ev.n_eff * rows}


def _survey_attrs(args, kwargs, result):
    return {"gaps": len(result.rows) + len(result.skipped)}


def _sweep_attrs(args, kwargs, result):
    return {"rows": len(result.rows)}


class Tracer:
    """In-memory span recorder that patches the package's public functions."""

    def __init__(self, package):
        self.pkg = package
        self.spans = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      threading.get_ident(), tracer.phase, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                record[6] = attrs(args, kwargs, result)
            return result

        return traced

    def _patch(self, owners, attr, name, attrs=None):
        original = getattr(owners[0], attr)
        wrapped = self._wrap(name, original, attrs)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def install(self):
        pb = self.pkg
        basis, greens, solver = pb.basis, pb.greens, pb.solver
        rankone, stats, cli = pb.rankone, pb.stats, pb.cli
        ev_cls = greens.GreensEvaluator
        self._patch([basis, greens, pb], "mode_table_with_count",
                    "basis.mode_table_with_count", _table_attrs)
        self._patch([basis, cli, pb], "build_mode_table",
                    "basis.build_mode_table", _table_attrs)
        self._patch([ev_cls], "__init__", "greens.evaluator_init", _evaluator_attrs)
        for method in ("diag", "diag_derivative", "secular_matrix"):
            self._patch([ev_cls], method, f"greens.{method}", _evaluator_attrs)
        self._patch([ev_cls], "diag_batch", "greens.diag_batch", _diag_batch_attrs)
        self._patch([ev_cls], "secular_matrix_batch", "greens.secular_matrix_batch",
                    _secular_batch_attrs)
        for fn in ("solve_single", "solve_multi"):
            self._patch([solver, cli, pb], fn, f"solver.{fn}", _solve_attrs)
        self._patch([np.linalg], "eigvalsh", "lapack.eigvalsh")
        self._patch([rankone, pb], "reduce_full_batch", "rankone.reduce_full_batch",
                    _reduce_attrs)
        for fn in ("unfold", "ks_distance", "spacing_distribution"):
            self._patch([stats, pb], fn, f"stats.{fn}")
        self._patch([stats, pb], "gbar_inflection_survey",
                    "stats.gbar_inflection_survey", _survey_attrs)
        for fn in ("load_config", "render", "cmd_spectrum", "cmd_stats", "cmd_survey"):
            self._patch([cli], fn, f"cli.{fn}")
        self._patch([cli], "cmd_sweep", "cli.cmd_sweep", _sweep_attrs)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str):
        """One JSON array per line: the field names first, then each span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ------------------------------------------------------------ analysis ---


def _layer(name):
    return name.split(".", 1)[0]


def _mean(values):
    return float(np.mean(values)) if values else None


class SpanSet:
    """Spans of some phases with parent links and self times resolved."""

    def __init__(self, spans, phases):
        self.all = spans
        self.keep = [i for i, s in enumerate(spans) if s[5] in phases]
        child_time = {}
        for s in spans:
            if s[3] is not None:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        self.child_time = child_time

    def named(self, name):
        return [i for i in self.keep if self.all[i][0] == name]

    def duration(self, i):
        return self.all[i][2] - self.all[i][1]

    def self_time(self, i):
        return self.duration(i) - self.child_time.get(i, 0.0)

    def attr(self, i, key, default=0):
        """A call attribute; 0 for a call that raised and recorded none."""
        attrs = self.all[i][6]
        return 0 if attrs is None else attrs.get(key, default)

    def parent_layer(self, i):
        parent = self.all[i][3]
        return None if parent is None else _layer(self.all[parent][0])

    def called_by_completed_solve(self, i):
        """True if span i was called directly by a solve that returned.

        A solve that raised found no levels, so the calls it made are left
        out of the per-level counts as well.
        """
        parent = self.all[i][3]
        return (parent is not None and _layer(self.all[parent][0]) == "solver"
                and self.all[parent][6] is not None)

    def under(self, i, layer):
        """True if some ancestor of span i belongs to the given layer."""
        parent = self.all[i][3]
        while parent is not None:
            if _layer(self.all[parent][0]) == layer:
                return True
            parent = self.all[parent][3]
        return False

    def layer_self(self, layer):
        return sum(self.self_time(i) for i in self.keep
                   if _layer(self.all[i][0]) == layer)


# Per-layer metrics: name -> (unit, better).  Counts are machine independent.
PER_LAYER = {
    "basis.table_build_ms": ("ms", "lower"),
    "basis.table_modes": ("count", "lower"),
    "greens.evaluator_init_ms": ("ms", "lower"),
    "greens.diag_us": ("us", "lower"),
    "greens.diag_derivative_us": ("us", "lower"),
    "greens.diag_calls_per_level": ("count", "lower"),
    "greens.diag_derivative_calls_per_level": ("count", "lower"),
    "greens.secular_matrix_us.N2": ("us", "lower"),
    "greens.secular_matrix_us.N4": ("us", "lower"),
    "greens.secular_matrix_us.N8": ("us", "lower"),
    "greens.secular_matrix_calls_per_level": ("count", "lower"),
    "greens.series_terms_per_level": ("count", "lower"),
    "greens.self_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.eigvalsh_calls_per_level": ("count", "lower"),
    "rankone.absorptions": ("count", "lower"),
    "rankone.us_per_absorption": ("us", "lower"),
    "rankone.self_s": ("s", "lower"),
    "stats.unfold_ks_ms": ("ms", "lower"),
    "stats.survey_s": ("s", "lower"),
    "stats.survey_derivative_calls_per_gap": ("count", "lower"),
    "cli.config_ms": ("ms", "lower"),
    "cli.render_ms": ("ms", "lower"),
    "cli.spectrum_s": ("s", "lower"),
    "cli.stats_s": ("s", "lower"),
    "cli.survey_s": ("s", "lower"),
    "cli.sweep_s": ("s", "lower"),
    "cli.sweep_rows_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def _series_terms(s, i):
    """Mode terms summed by one outermost series call."""
    name, n_eff, n = s.all[i][0], s.attr(i, "n_eff"), s.attr(i, "n")
    entries = n * (n + 1) // 2 if "secular" in name else 1
    return n_eff * entries * s.attr(i, "batch", 1)


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer figures; None for a figure whose layer the run never reaches.

    Table builds and evaluator construction count from the set-up and run
    phases alike; every other figure comes from the run phase alone, the
    ``ops`` operations of the timed rounds, and the self times are seconds
    per operation.
    """
    built = SpanSet(spans, {"setup", "run"})
    s = SpanSet(spans, {"run"})
    out = {}

    tables = [i for i in built.named("basis.mode_table_with_count")
              + built.named("basis.build_mode_table") if built.parent_layer(i) != "basis"]
    out["basis.table_build_ms"] = _mean([1e3 * built.duration(i) for i in tables])
    out["basis.table_modes"] = _mean([built.attr(i, "modes") for i in tables])
    out["greens.evaluator_init_ms"] = _mean(
        [1e3 * built.self_time(i) for i in built.named("greens.evaluator_init")])
    out["greens.diag_us"] = _mean([1e6 * s.duration(i) for i in s.named("greens.diag")])
    out["greens.diag_derivative_us"] = _mean(
        [1e6 * s.duration(i) for i in s.named("greens.diag_derivative")])
    for n in (2, 4, 8):
        out[f"greens.secular_matrix_us.N{n}"] = _mean(
            [1e6 * s.duration(i) for i in s.named("greens.secular_matrix")
             if s.attr(i, "n") == n])

    solves = s.named("solver.solve_single") + s.named("solver.solve_multi")
    levels = sum(s.attr(i, "levels") for i in solves)

    def per_level(name):
        calls = sum(1 for i in s.named(name) if s.called_by_completed_solve(i))
        return calls / levels if levels else None

    out["greens.diag_calls_per_level"] = per_level("greens.diag")
    out["greens.diag_derivative_calls_per_level"] = per_level("greens.diag_derivative")
    out["greens.secular_matrix_calls_per_level"] = per_level("greens.secular_matrix")
    out["solver.eigvalsh_calls_per_level"] = per_level("lapack.eigvalsh")
    terms = sum(_series_terms(s, i) for i in s.keep
                if _layer(s.all[i][0]) == "greens" and s.all[i][0] != "greens.evaluator_init"
                and s.called_by_completed_solve(i))
    out["greens.series_terms_per_level"] = terms / levels if levels else None

    for layer in ("greens", "solver", "rankone"):
        busy = any(_layer(s.all[i][0]) == layer for i in s.keep)
        out[f"{layer}.self_s"] = s.layer_self(layer) / max(ops, 1) if busy else None

    reduces = s.named("rankone.reduce_full_batch")
    absorbed = sum(s.attr(i, "absorptions") for i in reduces)
    out["rankone.absorptions"] = absorbed / len(reduces) if reduces else None
    out["rankone.us_per_absorption"] = (
        1e6 * sum(s.duration(i) for i in reduces) / absorbed if absorbed else None)

    unfolds = s.named("stats.unfold")
    ks_time = sum(s.duration(i) for i in unfolds + s.named("stats.ks_distance"))
    out["stats.unfold_ks_ms"] = 1e3 * ks_time / len(unfolds) if unfolds else None
    surveys = s.named("stats.gbar_inflection_survey")
    out["stats.survey_s"] = _mean([s.duration(i) for i in surveys])
    gaps = sum(s.attr(i, "gaps") for i in surveys)
    derivs = sum(1 for i in s.named("greens.diag_derivative") if s.under(i, "stats"))
    out["stats.survey_derivative_calls_per_gap"] = derivs / gaps if gaps else None

    out["cli.config_ms"] = _mean([1e3 * s.duration(i) for i in s.named("cli.load_config")])
    out["cli.render_ms"] = _mean([1e3 * s.duration(i) for i in s.named("cli.render")])
    for cmd in ("spectrum", "stats", "survey", "sweep"):
        out[f"cli.{cmd}_s"] = _mean([s.duration(i) for i in s.named(f"cli.cmd_{cmd}")])
    sweeps = s.named("cli.cmd_sweep")
    sweep_time = sum(s.duration(i) for i in sweeps)
    out["cli.sweep_rows_per_s"] = (
        sum(s.attr(i, "rows") for i in sweeps) / sweep_time if sweeps else None)
    return out
