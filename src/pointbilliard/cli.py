"""Command-line surface: config parsing, orchestration, serialization.

Subcommands
-----------
spectrum   perturbed (or unperturbed) levels in an energy window
stats      unfolded spacing statistics and KS distances to the references
sweep      spacing statistics over a grid of inverse couplings
survey     inflection of the diagonal resolvent in each unperturbed gap
predict    strong-coupling band report for each scatterer

Configuration is a single JSON document (schema in the README).  Every
output embeds the full configuration, a schema tag, and the library
version, and identical configurations produce byte-identical output:
no timestamps or timings are written, so runs can be diffed.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
failure during an otherwise valid run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .basis import BilliardSpec, build_mode_table
from .errors import PointBilliardError, ValidationError
from .greens import GreensAccuracy, GreensEvaluator, ScattererSet
from .solver import (DEFAULT_ROOT_TOL, EnergyWindow, _check_window_top, solve_multi,
                     solve_single)
from . import stats as statsmod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = 1

# Denominators checked when warning about symmetry-line placements.
SYMMETRY_MAX_DENOMINATOR = 8
SYMMETRY_TOLERANCE = 1e-9

CSV_COLUMNS = {
    "spectrum": ("omega", "bracket_lo", "bracket_hi", "kind", "residual"),
    "stats": ("bin_lo", "bin_hi", "count", "density"),
    "sweep": ("vbar_inv", "n_levels", "ks_poisson", "ks_goe", "status"),
    "survey": ("omega", "gbar", "log_reference", "abs_slope",
               "gap_lo", "gap_hi"),
    "predict": ("scatterer", "inv_coupling", "band_center_inv", "half_width",
                "in_band", "omega_band_lo", "omega_band_hi"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a command needs."""

    billiard: BilliardSpec
    scatterers: ScattererSet
    window: EnergyWindow | None
    accuracy: GreensAccuracy
    tol: float = DEFAULT_ROOT_TOL


@dataclass(frozen=True)
class ResultEnvelope:
    """Uniform output container for all commands.

    ``rows`` is the tabular payload (column order fixed per kind) and
    ``diagnostics`` everything else worth keeping next to the numbers.
    """

    kind: str
    config: dict
    rows: tuple
    diagnostics: dict

    @property
    def schema(self) -> str:
        return f"pointbilliard.{self.kind}/{SCHEMA_VERSION}"


def config_echo(config: RunConfig) -> dict:
    """The configuration as nested dicts, in the layout of the config file."""
    return dataclasses.asdict(config)


_SECTION_KEYS = {name: tuple(f.name for f in dataclasses.fields(cls)) for name, cls in (
    ("billiard", BilliardSpec), ("scatterers", ScattererSet), ("window", EnergyWindow),
    ("accuracy", GreensAccuracy))}
_KNOWN_KEYS = tuple(_SECTION_KEYS) + ("tol",)


def _number(value, key: str, integral: bool = False, positive: bool = False) -> float:
    """value as a float if it is a finite JSON number, not a boolean, and
    integral or positive when asked; otherwise a ValidationError naming key."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (not integral or value == int(value))
            and (not positive or value > 0)):
        return float(value)
    kind = ("an integer" if integral else
            "a finite positive number" if positive else "a finite number")
    raise ValidationError(f"{key} must be {kind}, got {value!r}")


def config_from_mapping(doc: dict) -> RunConfig:
    """Build a RunConfig, collecting every violated precondition at once.

    Numbers must be finite JSON numbers, not booleans, and n_max an
    integral one.
    """
    if not isinstance(doc, dict):
        raise ValidationError("configuration must be a JSON object")
    problems = []
    for key, value in doc.items():
        if key not in _KNOWN_KEYS:
            problems.append(f"unknown key {key!r}")
        elif key in _SECTION_KEYS and isinstance(value, dict):
            problems += [f"unknown key '{key}.{sub}'" for sub in value
                         if sub not in _SECTION_KEYS[key]]

    def section(name: str) -> dict:
        value = doc.get(name, {})
        if not isinstance(value, dict):
            raise ValidationError(f"must be an object, got {value!r}")
        return value

    def numbers(value, key: str, length: int | None = None) -> tuple:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise ValidationError(f"{key} must be a list of {length or 'finite'} numbers, "
                                  f"got {value!r}")
        return tuple(_number(v, key) for v in value)

    def scatterer_set():
        s = section("scatterers")
        positions = s.get("positions", [])
        if not isinstance(positions, list):
            raise ValidationError(f"positions must be a list of [x, y] pairs, got {positions!r}")
        return ScattererSet(tuple(numbers(p, "positions", 2) for p in positions),
                            numbers(s.get("inv_couplings", []), "inv_couplings"),
                            _number(s.get("lambda_scale", 1.0), "lambda_scale"))

    def energy_window():
        w = section("window")
        return EnergyWindow(_number(w.get("lo"), "lo"), _number(w.get("hi"), "hi"))

    def greens_accuracy():
        n_max = section("accuracy").get("n_max", 100_000)
        return GreensAccuracy(int(_number(n_max, "n_max", integral=True)))

    def attempt(name: str | None, build):
        """build(), or None with its problem recorded under name."""
        try:
            return build()
        except ValidationError as exc:
            problems.append(f"{name}: {exc}" if name else str(exc))
            return None

    billiard = attempt("billiard", lambda: BilliardSpec(**{
        k: _number(v, k) for k, v in section("billiard").items()
        if k in _SECTION_KEYS["billiard"]}))
    scatterers = attempt("scatterers", scatterer_set)
    window = None if doc.get("window") is None else attempt("window", energy_window)
    accuracy = attempt("accuracy", greens_accuracy)
    tol = attempt(None, lambda: _number(doc.get("tol", DEFAULT_ROOT_TOL), "tol", positive=True))

    if billiard is not None and scatterers is not None:
        for i, (x, y) in enumerate(scatterers.positions):
            if not billiard.contains(x, y, strict=True):
                problems.append(
                    f"scatterers: position {i} at ({x}, {y}) is not strictly "
                    f"inside the {billiard.lx} x {billiard.ly} rectangle")

    if problems:
        raise ValidationError("invalid configuration: " + "; ".join(problems))
    return RunConfig(billiard=billiard, scatterers=scatterers, window=window,
                     accuracy=accuracy, tol=tol)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer literal too long to read
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_mapping(doc)


def symmetry_notes(billiard: BilliardSpec, scatterers: ScattererSet) -> list:
    """Warn when a scatterer sits on a low-order symmetry line.

    On such a line entire mode families have a node at the scatterer and
    never shift, which skews spacing statistics; the run proceeds, but
    the placement is worth flagging.
    """
    notes = []
    for i, (x, y) in enumerate(scatterers.positions):
        for axis, coord, side in (("x", x, billiard.lx), ("y", y, billiard.ly)):
            t = coord / side
            for q in range(2, SYMMETRY_MAX_DENOMINATOR + 1):
                p = round(t * q)
                if 0 < p < q and abs(t - p / q) < SYMMETRY_TOLERANCE:
                    notes.append(
                        f"scatterer {i}: {axis} = {p}/{q} of the side length; "
                        f"mode families with a node there never shift")
                    break
    return notes


def _require_window(config: RunConfig) -> EnergyWindow:
    if config.window is None:
        raise ValidationError(
            "no energy window: provide 'window' in the config or --window LO:HI")
    return config.window


def _solve_levels(config: RunConfig):
    """Rows + diagnostics for the spectrum in the config window."""
    window = _require_window(config)
    n = config.scatterers.n
    if n == 0:
        table = build_mode_table(config.billiard, e_cut=window.hi)
        inside = [e for e in table.energies if window.contains(float(e))]
        rows = tuple(
            {"omega": float(e), "bracket_lo": float(e), "bracket_hi": float(e),
             "kind": "unperturbed", "residual": 0.0}
            for e in inside)
        diagnostics = {"n_scatterers": 0, "n_levels": len(rows),
                       "notes": ["no scatterers: unperturbed spectrum"]}
        return rows, diagnostics

    evaluator = GreensEvaluator(config.billiard, config.scatterers,
                                config.accuracy)
    levels = solve_multi(evaluator, window, tol=config.tol)
    rows = tuple(
        {"omega": float(lv.omega), "bracket_lo": float(lv.bracket[0]),
         "bracket_hi": float(lv.bracket[1]), "kind": lv.kind,
         "residual": float(lv.residual)}
        for lv in levels)
    mid = 0.5 * (window.lo + window.hi)
    diagnostics = {
        "n_scatterers": n,
        "n_levels": len(rows),
        "n_eff": int(evaluator.n_eff),
        "cutoff_energy": float(evaluator.cutoff_energy),
        "max_residual": float(max((lv.residual for lv in levels), default=0.0)),
        "diag_error_mid": [float(evaluator.diag_error(i, mid)) for i in range(n)],
        "notes": symmetry_notes(config.billiard, config.scatterers),
    }
    return rows, diagnostics


def cmd_spectrum(config: RunConfig) -> ResultEnvelope:
    rows, diagnostics = _solve_levels(config)
    return ResultEnvelope(kind="spectrum", config=config_echo(config),
                          rows=rows, diagnostics=diagnostics)


def _unfolded(config: RunConfig, levels: np.ndarray):
    """The unfolded spectrum of levels, refusing samples too small for KS."""
    if levels.size - 1 < statsmod.SMALL_SAMPLE:
        raise ValidationError(f"insufficient sample: {max(levels.size - 1, 0)} spacings, "
                              f"need >= {statsmod.SMALL_SAMPLE}")
    return statsmod.unfold(levels, config.billiard)


def _stats_payload(config: RunConfig, levels: np.ndarray, bins: int):
    """Histogram rows plus the KS / band diagnostics for a level sequence."""
    unfolded = _unfolded(config, levels)
    hist = statsmod.spacing_distribution(unfolded, bins=bins)
    spacings = unfolded.spacings()
    ks_poisson = statsmod.ks_distance(spacings, "poisson")
    ks_goe = statsmod.ks_distance(spacings, "goe")
    centre = 0.5 * (levels[0] + levels[-1])
    band = None
    if centre > 0.0:
        pred = statsmod.predict_strong_coupling(config.scatterers,
                                                config.billiard, centre)
        band = {"omega": pred.omega, "vbar_inv_star": pred.vbar_inv_star,
                "half_width": pred.half_width,
                "in_strong_band": list(pred.in_strong_band)}
    rows = tuple(
        {"bin_lo": float(hist.bin_edges[k]), "bin_hi": float(hist.bin_edges[k + 1]),
         "count": int(hist.counts[k]), "density": float(hist.densities[k])}
        for k in range(hist.counts.size))
    diagnostics = {
        "n_levels": int(levels.size),
        "sample_size": hist.sample_size,
        "ks_poisson": ks_poisson,
        "ks_goe": ks_goe,
        "closer_to": "poisson" if ks_poisson < ks_goe else "goe",
        "band": band,
        "spacings": [float(s) for s in spacings],
    }
    return rows, diagnostics


def cmd_stats(config: RunConfig, levels=None, bins: int = 24) -> ResultEnvelope:
    """Spacing statistics of a supplied level file or an inline solve."""
    if levels is None:
        spectrum_rows, spectrum_diag = _solve_levels(config)
        levels = np.array([r["omega"] for r in spectrum_rows])
        notes = spectrum_diag.get("notes", [])
    else:
        levels = np.sort(np.asarray(levels, dtype=float).ravel())
        notes = []
    rows, diagnostics = _stats_payload(config, levels, bins)
    if notes:
        diagnostics["notes"] = notes
    return ResultEnvelope(kind="stats", config=config_echo(config),
                          rows=rows, diagnostics=diagnostics)


def cmd_sweep(config: RunConfig, grid, workers: int = 1) -> ResultEnvelope:
    """Level count and KS distances of `stats` over a grid of inverse couplings.

    Rows are independent and solved concurrently through one evaluator,
    since no series reads the coupling (with_inv_couplings); failures are
    recorded per row and the sweep continues.  Single scatterer only: for
    several scatterers there is no single coupling axis to sweep.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValidationError("sweep grid is empty")
    if config.scatterers.n != 1:
        raise ValidationError(
            f"sweep varies one coupling; config has {config.scatterers.n} "
            f"scatterers")
    window = _require_window(config)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    evaluator = GreensEvaluator(config.billiard, config.scatterers, config.accuracy)

    def one(inv: float) -> dict:
        levels = solve_single(evaluator.with_inv_couplings((inv,)), window, tol=config.tol)
        omegas = np.array([lv.omega for lv in levels])
        spacings = _unfolded(config, omegas).spacings()
        return {"vbar_inv": inv, "n_levels": int(omegas.size),
                "ks_poisson": statsmod.ks_distance(spacings, "poisson"),
                "ks_goe": statsmod.ks_distance(spacings, "goe"),
                "status": "ok"}

    def guarded(inv: float) -> dict:
        try:
            return one(inv)
        except PointBilliardError as exc:
            return {"vbar_inv": inv, "n_levels": 0, "ks_poisson": None,
                    "ks_goe": None, "status": f"error: {exc}"}

    from concurrent.futures import ThreadPoolExecutor  # only sweep pays its import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = tuple(pool.map(guarded, grid))
    n_failed = sum(1 for r in rows if r["status"] != "ok")
    diagnostics = {"grid_size": len(grid), "failed_rows": n_failed,
                   "notes": symmetry_notes(config.billiard, config.scatterers)}
    return ResultEnvelope(kind="sweep", config=config_echo(config),
                          rows=rows, diagnostics=diagnostics)


def cmd_survey(config: RunConfig, min_gaps: int = 30) -> ResultEnvelope:
    """Inflection survey of the diagonal resolvent over the window."""
    window = _require_window(config)
    evaluator = GreensEvaluator(config.billiard, config.scatterers,
                                config.accuracy)
    _check_window_top(evaluator, window)  # as spectrum does, even for a window with no gap
    energies = evaluator.energies
    inside = energies[(energies >= window.lo) & (energies <= window.hi)]
    if inside.size < 2:
        diagnostics = {"n_gaps": 0, "skipped": [],
                       "notes": ["window contains no unperturbed gaps"]}
        return ResultEnvelope(kind="survey", config=config_echo(config),
                              rows=(), diagnostics=diagnostics)
    survey = statsmod.gbar_inflection_survey(evaluator, window,
                                             min_gaps=min_gaps)
    rows = tuple(dataclasses.asdict(r) for r in survey.rows)
    diagnostics = {
        "n_gaps": len(survey.rows) + len(survey.skipped),
        "mean_spacing": survey.mean_spacing,
        "median_log_offset": float(np.median(survey.log_offsets()))
        if survey.rows else None,
        "median_slope_spacing": float(np.median(survey.slope_spacings()))
        if survey.rows else None,
        "skipped": list(survey.skipped),
        "notes": symmetry_notes(config.billiard, config.scatterers),
    }
    return ResultEnvelope(kind="survey", config=config_echo(config),
                          rows=rows, diagnostics=diagnostics)


def cmd_predict(config: RunConfig, omega: float | None = None) -> ResultEnvelope:
    """Band report: which scatterers mix levels strongly near ``omega``."""
    if omega is None:
        window = _require_window(config)
        omega = 0.5 * (window.lo + window.hi)
    pred = statsmod.predict_strong_coupling(config.scatterers, config.billiard,
                                            omega)
    rows = []
    for i, inv in enumerate(config.scatterers.inv_couplings):
        lo, _, hi = statsmod.coupling_band_range(
            inv, config.billiard, config.scatterers.lambda_scale)
        rows.append({"scatterer": i, "inv_coupling": inv,
                     "band_center_inv": pred.vbar_inv_star,
                     "half_width": pred.half_width,
                     "in_band": pred.in_strong_band[i],
                     "omega_band_lo": lo, "omega_band_hi": hi})
    diagnostics = {"omega": pred.omega,
                   "n_in_band": sum(1 for r in rows if r["in_band"])}
    return ResultEnvelope(kind="predict", config=config_echo(config),
                          rows=tuple(rows), diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# serialization

def envelope_json(envelope: ResultEnvelope) -> str:
    doc = {
        "schema": envelope.schema,
        "version": __version__,
        "config": envelope.config,
        "rows": list(envelope.rows),
        "diagnostics": envelope.diagnostics,
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):  # covers np.float64, a float subclass
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def envelope_csv(envelope: ResultEnvelope) -> str:
    columns = CSV_COLUMNS[envelope.kind]
    buf = io.StringIO()
    buf.write(f"# schema: {envelope.schema}\n")
    buf.write(f"# version: {__version__}\n")
    buf.write("# config: " + json.dumps(envelope.config) + "\n")
    for key, value in envelope.diagnostics.items():
        if key == "spacings":
            continue  # bulk payload, JSON only
        buf.write(f"# {key}: {json.dumps(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in envelope.rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def render(envelope: ResultEnvelope, fmt: str) -> str:
    if fmt == "json":
        return envelope_json(envelope)
    if fmt == "csv":
        return envelope_csv(envelope)
    raise ValidationError(f"unknown format {fmt!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output {out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_window(text: str) -> EnergyWindow:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"--window expects LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"--window expects numbers, got {text!r}") from exc
    # construct outside the except: the window's own lo < hi message
    # must not be reworded as a parse failure
    return EnergyWindow(lo, hi)


def _parse_grid(text: str) -> list:
    """Either 'start:stop:count' or a comma-separated list of finite values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"--grid expects START:STOP:COUNT or v1,v2,..., got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad --grid {text!r}") from exc
        if count < 1:
            raise ValidationError(f"--grid count must be >= 1, got {count}")
        with np.errstate(all="ignore"):  # a non-finite bound is reported below
            values = [float(v) for v in np.linspace(start, stop, count)]
    else:
        try:
            values = [float(v) for v in text.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ValidationError(f"bad --grid {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"--grid values must be finite, got {text!r}")
    return values


def read_levels(path: str) -> np.ndarray:
    """Levels from a spectrum envelope (JSON or CSV) or one float per line.

    Envelopes of any other kind are refused: their rows hold no levels.  In
    a CSV or plain list only the first line that is not a comment may be a
    header; any later line that does not start with a number is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read levels {path!r}: {exc}") from exc
    spectrum = f"pointbilliard.spectrum/{SCHEMA_VERSION}"
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
            schema = doc["schema"]
            values = [_number(row["omega"], "omega") for row in doc["rows"]]
        except (ValueError, KeyError, TypeError) as exc:  # bad JSON or omega included
            raise ValidationError(f"levels file {path!r} is JSON but not a spectrum "
                                  f"envelope of numeric levels") from exc
    else:
        lines = [line.strip() for line in text.splitlines()]
        # a plain list has no schema line and counts as a spectrum
        schema = next((line.partition(":")[2].strip() for line in lines
                       if line.startswith("# schema:")), spectrum)
        values = []
        content = [(k, line) for k, line in enumerate(lines, 1)
                   if line and not line.startswith("#")]
        for index, (k, line) in enumerate(content):
            first = line.split(",")[0].strip()
            try:
                values.append(float(first))
            except ValueError:
                if index:  # only the first line may be a header
                    raise ValidationError(
                        f"levels file {path!r}, line {k}: {first!r} is not a number") from None
        if not values:
            raise ValidationError(f"no numeric levels found in {path!r}")
    if schema != spectrum:
        raise ValidationError(f"levels file {path!r} has schema {schema!r}, not {spectrum!r}")
    return np.array(values, dtype=float)


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "window", None) is not None:
        config = dataclasses.replace(config, window=_parse_window(args.window))
    if getattr(args, "nmax", None) is not None:
        accuracy = dataclasses.replace(config.accuracy, n_max=args.nmax)
        config = dataclasses.replace(config, accuracy=accuracy)
    if getattr(args, "tol", None) is not None:
        config = dataclasses.replace(config, tol=_number(args.tol, "--tol", positive=True))
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON configuration file")
    parser.add_argument("--window", metavar="LO:HI",
                        help="energy window, overrides the config")
    parser.add_argument("--nmax", type=int, metavar="K",
                        help="series truncation, overrides the config")
    parser.add_argument("--tol", type=float, metavar="T",
                        help="root tolerance, overrides the config")
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output format (default json)")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointbilliard",
        description="Spectra and spacing statistics of a rectangular "
                    "billiard with point scatterers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="perturbed levels in a window")
    _add_common(p)

    p = sub.add_parser("stats", help="spacing statistics and KS report")
    _add_common(p)
    p.add_argument("--levels", metavar="PATH",
                   help="level file (spectrum output or one level per line); "
                        "omit to solve inline")
    p.add_argument("--bins", type=int, default=24,
                   help="histogram bins (default 24)")

    p = sub.add_parser("sweep", help="stats over a grid of inverse couplings")
    _add_common(p)
    p.add_argument("--grid", required=True, metavar="SPEC",
                   help="START:STOP:COUNT or comma-separated values")
    p.add_argument("--workers", type=int, default=1, metavar="W",
                   help="concurrent rows (default 1)")

    p = sub.add_parser("survey", help="resolvent inflection survey")
    _add_common(p)
    p.add_argument("--min-gaps", type=int, default=30,
                   help="fewest gaps the window must hold (default 30)")

    p = sub.add_parser("predict", help="strong-coupling band report")
    _add_common(p)
    p.add_argument("--omega", type=float,
                   help="probe energy (default: window centre)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "spectrum":
            envelope = cmd_spectrum(config)
        elif args.command == "stats":
            levels = read_levels(args.levels) if args.levels else None
            envelope = cmd_stats(config, levels=levels, bins=args.bins)
        elif args.command == "sweep":
            envelope = cmd_sweep(config, _parse_grid(args.grid),
                                 workers=args.workers)
        elif args.command == "survey":
            envelope = cmd_survey(config, min_gaps=args.min_gaps)
        else:
            envelope = cmd_predict(config, omega=args.omega)
        _emit(render(envelope, args.format), args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PointBilliardError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
