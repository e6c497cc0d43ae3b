"""End-to-end command-line behavior: configs, formats, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbilliard import basis, cli
from pointbilliard.errors import RootBracketError, ValidationError

from conftest import GENERIC_X, GENERIC_Y_FRACTION


@pytest.fixture(scope="module")
def level_energy(big_table):
    def at(k: int) -> float:
        return float(big_table.energies[k])

    return at


def write_config(tmp_path, *, window, n_max=3000, scatterers=None, name="cfg.json",
                 **extra):
    golden_ly = (1.0 + 5.0 ** 0.5) / 2.0
    if scatterers is None:
        scatterers = {
            "positions": [[GENERIC_X, GENERIC_Y_FRACTION * golden_ly]],
            "inv_couplings": [0.3],
        }
    doc = {
        "billiard": {"lx": 1.0, "ly": golden_ly, "mass": 1.0},
        "scatterers": scatterers,
        "window": None if window is None else {"lo": window[0], "hi": window[1]},
        "accuracy": {"n_max": n_max},
        **extra,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    rc = cli.main([*args, "--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def parse_csv(text):
    rows = [r for r in csv.reader(
        line for line in text.splitlines() if not line.startswith("#"))]
    header, data = rows[0], rows[1:]
    return header, data


def test_spectrum_unperturbed_echoes_levels(tmp_path, level_energy, big_table):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)),
                       scatterers={"positions": [], "inv_couplings": []})
    rc, text = run_cli(["spectrum", "--config", cfg], tmp_path)
    assert rc == 0
    doc = json.loads(text)
    assert doc["schema"].startswith("pointbilliard.spectrum/")
    omegas = [r["omega"] for r in doc["rows"]]
    expected = [float(e) for e in big_table.energies[200:241]]
    assert omegas == expected
    for row in doc["rows"]:
        assert row["kind"] == "unperturbed"
        assert row["bracket_lo"] == row["bracket_hi"] == row["omega"]
        assert row["residual"] == 0.0


def test_spectrum_is_deterministic_and_interlaces(tmp_path, level_energy, big_table):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)))
    rc1, text1 = run_cli(["spectrum", "--config", cfg], tmp_path, name="a.json")
    rc2, text2 = run_cli(["spectrum", "--config", cfg], tmp_path, name="b.json")
    assert rc1 == rc2 == 0
    assert text1 == text2

    doc = json.loads(text1)
    roots = np.array([r["omega"] for r in doc["rows"]])
    assert roots.size == 40
    slots = np.searchsorted(big_table.energies[:3000], roots)
    assert np.all(np.diff(slots) == 1)
    assert doc["config"]["scatterers"]["inv_couplings"] == [0.3]


def test_spectrum_window_flag_overrides_config(tmp_path, level_energy):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)))
    lo, hi = level_energy(300), level_energy(320)
    rc, text = run_cli(
        ["spectrum", "--config", cfg, "--window", f"{lo}:{hi}"], tmp_path)
    assert rc == 0
    doc = json.loads(text)
    assert doc["config"]["window"] == {"lo": lo, "hi": hi}
    assert len(doc["rows"]) == 20


def test_invalid_config_reports_every_problem(tmp_path, capsys):
    doc = {
        "snacks": True,
        "scatterers": {"positions": [[1.5, 0.5]], "inv_couplings": [0.3]},
        "seed": -3,
        "tol": -1.0,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["spectrum", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    for fragment in ("snacks", "not strictly inside", "seed", "tol"):
        assert fragment in err


def test_unknown_nested_keys_are_rejected_by_name(tmp_path, capsys):
    doc = {
        "billiard": {"lx": 1.0, "height": 2.0},
        "scatterers": {"positions": [[0.4, 0.5]], "inv_couplings": [0.3],
                       "charge": 1.0},
        "window": {"lo": 700.0, "hi": 800.0, "step": 1.0},
        "accuracy": {"n_max": 3000, "target_abs_err": 1e-6, "tail_mode": "integral",
                     "offdiag_block_average": True},
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["spectrum", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    for fragment in ("billiard.height", "scatterers.charge", "window.step",
                     "accuracy.target_abs_err", "accuracy.tail_mode",
                     "accuracy.offdiag_block_average"):
        assert fragment in err


def _readme_config() -> dict:
    """The JSON block under the README's "### Configuration file" heading."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Configuration file", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def test_readme_config_loads():
    config = cli.config_from_mapping(_readme_config())
    assert config.scatterers.n == 1
    assert config.window is not None


@pytest.mark.parametrize("window", [True, False])
def test_config_echo_loads_back_to_an_equal_config(window):
    doc = _readme_config()
    if not window:
        del doc["window"]
    config = cli.config_from_mapping(doc)
    envelope = cli.cmd_predict(config, omega=900.0)
    echoed = json.loads(cli.render(envelope, "json"))["config"]
    assert cli.config_from_mapping(echoed) == config


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, level_energy, capsys, tol):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)))
    rc = cli.main(["spectrum", "--config", cfg, f"--tol={tol}"])
    assert rc == 2
    assert "--tol must be" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan", "0.1,inf", "-inf,0.5", "0:nan:2"])
def test_grid_flag_values_must_be_finite(tmp_path, level_energy, capsys, grid):
    # a non-finite coupling reached the envelope as NaN or Infinity, not JSON
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)))
    rc = cli.main(["sweep", "--config", cfg, f"--grid={grid}"])
    assert rc == 2
    assert "--grid values must be finite" in capsys.readouterr().err


_NUMBER_KEYS = [("billiard", "lx"), ("billiard", "ly"), ("billiard", "mass"),
                ("scatterers", "lambda_scale"), ("window", "lo"), ("window", "hi"),
                (None, "tol")]
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 1e400])
_NOT_NUMBERS = st.one_of(st.booleans(), st.none(), st.text(max_size=4),
                         st.just([1.0]), st.just({"v": 1.0}), _NOT_FINITE)


def _malformed_entries():
    """(section, key, value) with a value of the wrong JSON type, non-finite,
    fractional where an integer is expected, or boolean where a number is."""
    return st.one_of(
        st.tuples(st.sampled_from(_NUMBER_KEYS), _NOT_NUMBERS).map(lambda t: (*t[0], t[1])),
        st.tuples(st.just(("accuracy", "n_max")),
                  st.one_of(_NOT_NUMBERS, st.sampled_from([2.7, 0.5, 3000.25]))
                  ).map(lambda t: (*t[0], t[1])),
        st.tuples(st.just("scatterers"), st.just("inv_couplings"),
                  st.one_of(st.booleans(), st.none(), st.text(max_size=4), st.just(0.3),
                            _NOT_NUMBERS.map(lambda v: [v]))),
        st.tuples(st.just("scatterers"), st.just("positions"),
                  st.one_of(st.none(), st.just(0.3), st.just([0.4, 0.5]), st.just([[0.4]]),
                            st.just([[0.4, 0.5, 0.6]]),
                            _NOT_NUMBERS.map(lambda v: [[0.4, v]]))),
    )


@settings(max_examples=150, deadline=None)
@given(entry=_malformed_entries())
def test_malformed_config_values_exit_2_naming_the_key(tmp_path_factory, entry):
    section, key, value = entry
    doc = {"billiard": {"lx": 1.0, "ly": 1.5, "mass": 1.0},
           "scatterers": {"positions": [[0.4, 0.5]], "inv_couplings": [0.3],
                          "lambda_scale": 1.0},
           "window": {"lo": 700.0, "hi": 760.0},
           "accuracy": {"n_max": 3000},
           "tol": 1e-9}
    (doc if section is None else doc[section])[key] = value
    path = tmp_path_factory.mktemp("cfg") / "bad.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["predict", "--config", str(path)])
    assert rc == 2
    assert (key if section is None else f"{section}: {key}") in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_inverted_window_flag_reports_the_real_problem(tmp_path, capsys):
    # the ordering complaint must survive, not get reworded as a parse error
    cfg = write_config(tmp_path, window=(800.0, 900.0))
    rc = cli.main(["spectrum", "--config", cfg, "--window", "900:600"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lo < hi" in err
    assert "expects numbers" not in err


def test_stats_piped_levels_match_inline(tmp_path, level_energy):
    window = (level_energy(200), level_energy(330))
    cfg = write_config(tmp_path, window=window)

    rc, inline = run_cli(["stats", "--config", cfg], tmp_path, name="inline.json")
    assert rc == 0
    rc, spec_json = run_cli(["spectrum", "--config", cfg], tmp_path, name="spec.json")
    assert rc == 0
    rc, _ = run_cli(["spectrum", "--config", cfg, "--format", "csv"],
                    tmp_path, name="spec.csv")
    assert rc == 0

    piped = {}
    for src in ("spec.json", "spec.csv"):
        rc, text = run_cli(
            ["stats", "--config", cfg, "--levels", str(tmp_path / src)],
            tmp_path, name=f"piped-{src}.json")
        assert rc == 0
        piped[src] = json.loads(text)

    ref = json.loads(inline)
    for doc in piped.values():
        assert doc["rows"] == ref["rows"]
        for key in ("n_levels", "ks_poisson", "ks_goe", "closer_to", "band"):
            assert doc["diagnostics"][key] == ref["diagnostics"][key]
    assert ref["diagnostics"]["n_levels"] >= 100


def test_stats_plain_text_levels(tmp_path, level_energy):
    window = (level_energy(200), level_energy(330))
    cfg = write_config(tmp_path, window=window)
    rc, spec_text = run_cli(["spectrum", "--config", cfg], tmp_path, name="s.json")
    omegas = [r["omega"] for r in json.loads(spec_text)["rows"]]
    plain = tmp_path / "levels.txt"
    plain.write_text("# one level per line\nomega\n" +
                     "\n".join(repr(w) for w in omegas) + "\n")
    rc, from_plain = run_cli(
        ["stats", "--config", cfg, "--levels", str(plain)], tmp_path, name="p.json")
    assert rc == 0
    rc, inline = run_cli(["stats", "--config", cfg], tmp_path, name="i.json")
    assert (json.loads(from_plain)["diagnostics"]["ks_poisson"]
            == json.loads(inline)["diagnostics"]["ks_poisson"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stats_refuses_levels_from_other_envelopes(tmp_path, level_energy, capsys, fmt):
    # survey rows carry an omega column too, but they are inflection
    # energies, not levels; spectrum files and plain lists load as before
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(330)))
    rc, _ = run_cli(["survey", "--config", cfg, "--format", fmt], tmp_path,
                    name=f"survey.{fmt}")
    assert rc == 0
    rc = cli.main(["stats", "--config", cfg, "--levels", str(tmp_path / f"survey.{fmt}"),
                   "--out", str(tmp_path / "out.json")])
    assert rc == 2
    assert "pointbilliard.survey/1" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_stats_plain_levels_refuse_a_mistyped_level(tmp_path, capsys):
    # only the first line may be a header; a later word is a level gone wrong
    cfg = write_config(tmp_path, window=(700.0, 760.0))
    plain = tmp_path / "levels.txt"
    plain.write_text("# levels\n700.5\n70l.25\n702.0\n")
    with pytest.raises(ValidationError, match="line 3: '70l.25' is not a number"):
        cli.read_levels(str(plain))
    rc = cli.main(["stats", "--config", cfg, "--levels", str(plain),
                   "--out", str(tmp_path / "out.json")])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("omega", ["abc", True, None])
def test_stats_json_levels_must_be_numbers(tmp_path, capsys, omega):
    cfg = write_config(tmp_path, window=(700.0, 760.0))
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({"schema": "pointbilliard.spectrum/1",
                               "rows": [{"omega": 700.5}, {"omega": omega}]}))
    rc = cli.main(["stats", "--config", cfg, "--levels", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


def test_stats_insufficient_sample_is_validation_error(tmp_path, level_energy, capsys):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(230)))
    rc = cli.main(["stats", "--config", cfg])
    assert rc == 2
    assert "insufficient sample" in capsys.readouterr().err


@pytest.mark.parametrize("count", [100, 101])
def test_stats_sample_threshold_counts_spacings(tmp_path, level_energy, capsys, count):
    # the library warns below SMALL_SAMPLE spacings; the CLI refuses those
    # samples instead, so an accepted one never prints the warning
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(330)))
    plain = tmp_path / "levels.txt"
    plain.write_text("\n".join(repr(level_energy(200 + k)) for k in range(count)) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["stats", "--config", cfg, "--levels", str(plain),
                       "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert not caught and "noisy" not in err
    if count == 100:
        assert rc == 2
        assert "insufficient sample: 99 spacings, need >= 100" in err
    else:
        assert rc == 0


def test_sweep_singleton_matches_stats(tmp_path, level_energy):
    window = (level_energy(200), level_energy(330))
    cfg = write_config(tmp_path, window=window)
    rc, stats_text = run_cli(["stats", "--config", cfg], tmp_path, name="st.json")
    rc2, sweep_text = run_cli(["sweep", "--config", cfg, "--grid", "0.3"],
                              tmp_path, name="sw.json")
    assert rc == rc2 == 0
    stats_doc, sweep_doc = json.loads(stats_text), json.loads(sweep_text)
    (row,) = sweep_doc["rows"]
    assert row["status"] == "ok"
    assert row["vbar_inv"] == 0.3
    assert row["ks_poisson"] == stats_doc["diagnostics"]["ks_poisson"]
    assert row["ks_goe"] == stats_doc["diagnostics"]["ks_goe"]
    assert row["n_levels"] == stats_doc["diagnostics"]["n_levels"]


def test_sweep_workers_do_not_change_output(tmp_path, level_energy):
    window = (level_energy(200), level_energy(330))
    cfg = write_config(tmp_path, window=window)
    args = ["sweep", "--config", cfg, "--grid=-0.5:1.0:3"]
    rc1, seq = run_cli([*args, "--workers", "1"], tmp_path, name="w1.json")
    rc2, par = run_cli([*args, "--workers", "3"], tmp_path, name="w3.json")
    assert rc1 == rc2 == 0
    assert seq == par
    doc = json.loads(par)
    assert [r["vbar_inv"] for r in doc["rows"]] == [-0.5, 0.25, 1.0]
    assert doc["diagnostics"]["failed_rows"] == 0


def test_sweep_rows_share_one_evaluator(tmp_path, level_energy, monkeypatch):
    # the rows differ only in the coupling, which no series reads: the sweep
    # builds one evaluator, and each row matches stats run on its coupling
    config = cli.load_config(write_config(tmp_path, window=(level_energy(200),
                                                            level_energy(330))))
    built, init = [], cli.GreensEvaluator.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.GreensEvaluator, "__init__", counted)
    rows = cli.cmd_sweep(config, [-0.5, 1.0], workers=2).rows
    assert len(built) == 1
    for row in rows:
        scatterers = dataclasses.replace(config.scatterers, inv_couplings=(row["vbar_inv"],))
        stats = cli.cmd_stats(dataclasses.replace(config, scatterers=scatterers)).diagnostics
        assert row["status"] == "ok"
        assert (row["n_levels"], row["ks_poisson"], row["ks_goe"]) == (
            stats["n_levels"], stats["ks_poisson"], stats["ks_goe"])


def test_sweep_rejects_workers_below_one_before_building(tmp_path, level_energy, capsys,
                                                         monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a mode table or an evaluator was built")

    monkeypatch.setattr(cli, "GreensEvaluator", refuse)
    monkeypatch.setattr(basis, "build_mode_table", refuse)
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(330)))
    rc, _ = run_cli(["sweep", "--config", cfg, "--grid", "0.3", "--workers", "0"], tmp_path)
    assert rc == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_out_exits_2(tmp_path, level_energy, capsys, target):
    # a missing directory or a directory path, as an unreadable --config is
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(330)))
    rc = cli.main(["predict", "--config", cfg, "--out", str(tmp_path / target)])
    assert rc == 2
    assert "error: cannot write output" in capsys.readouterr().err


def test_sweep_has_no_bins_flag(tmp_path, level_energy):
    # sweep rows report KS distances only, so a histogram width has no use
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(330)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", cfg, "--grid", "0.3", "--bins", "3"])
    assert exc.value.code == 2


def test_sweep_records_row_failures_and_continues(tmp_path, level_energy):
    # a window this small fails every row's sample-size check; the sweep
    # itself must still succeed and say what happened
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(230)))
    rc, text = run_cli(["sweep", "--config", cfg, "--grid", "0.0,0.5"], tmp_path)
    assert rc == 0
    doc = json.loads(text)
    assert doc["diagnostics"]["failed_rows"] == 2
    for row in doc["rows"]:
        assert row["status"].startswith("error:")
        assert row["ks_poisson"] is None and row["ks_goe"] is None

    header, data = parse_csv(
        cli.render(cli.cmd_sweep(cli.load_config(cfg), [0.0]), "csv"))
    assert header == list(cli.CSV_COLUMNS["sweep"])
    assert data[0][header.index("ks_poisson")] == "nan"


def test_survey_empty_window_succeeds_with_note(tmp_path, level_energy):
    lo = 0.5 * (level_energy(50) + level_energy(51))
    cfg = write_config(tmp_path, window=(lo, lo + 0.1))
    rc, text = run_cli(["survey", "--config", cfg], tmp_path)
    assert rc == 0
    doc = json.loads(text)
    assert doc["rows"] == []
    assert any("no unperturbed gaps" in n for n in doc["diagnostics"]["notes"])


def test_survey_without_scatterers_is_validation_error(tmp_path, level_energy, capsys):
    # spectrum accepts zero scatterers; the survey needs one to probe
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)),
                       scatterers={"positions": [], "inv_couplings": []})
    rc = cli.main(["survey", "--config", cfg])
    assert rc == 2
    assert "at least one scatterer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "survey"])
def test_window_past_the_cutoff_fraction_exits_2(tmp_path, capsys, command):
    # 11640 is past 90% of the 3000-mode cutoff 11886, where diag_error is
    # infinite: both subcommands refuse the window instead of reporting rows,
    # also a window there too narrow to hold a gap
    for window in [(10_000.0, 11_640.0), (11_700.0, 11_700.5)]:
        cfg = write_config(tmp_path, window=window)
        rc = cli.main([command, "--config", cfg])
        assert rc == 2, window
        assert "raise n_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "survey"])
def test_lambda_scale_whose_square_overflows_exits_2(tmp_path, level_energy, capsys, command):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)),
                       scatterers={"positions": [[GENERIC_X, 0.5923]], "inv_couplings": [0.3],
                                   "lambda_scale": 1e160})
    rc = cli.main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 2
    assert "lambda_scale" in err and "Traceback" not in err


@pytest.mark.parametrize("inv, code", [(200.0, 2), (-200.0, 0)])
def test_predict_band_beyond_float_range_exits_2(tmp_path, capsys, inv, code):
    # at mass 1 the band centre of inverse coupling 200 is exp(400 pi), past
    # the float range; that of -200 underflows to 0 and is reported
    cfg = write_config(tmp_path, window=None,
                       scatterers={"positions": [[GENERIC_X, 0.5923]], "inv_couplings": [inv]})
    rc = cli.main(["predict", "--config", cfg, "--omega", "900"])
    assert rc == code
    assert ("inverse coupling 200.0" in capsys.readouterr().err) == (code == 2)


def test_survey_csv_and_json_carry_identical_numbers(tmp_path, level_energy):
    cfg = write_config(tmp_path, window=(level_energy(700), level_energy(762)),
                       n_max=30_000)
    rc, json_text = run_cli(["survey", "--config", cfg], tmp_path, name="s.json")
    rc2, csv_text = run_cli(["survey", "--config", cfg, "--format", "csv"],
                            tmp_path, name="s.csv")
    assert rc == rc2 == 0
    doc = json.loads(json_text)
    header, data = parse_csv(csv_text)
    assert header == list(cli.CSV_COLUMNS["survey"])
    assert len(data) == len(doc["rows"]) >= 30
    for json_row, csv_row in zip(doc["rows"], data):
        for col, cell in zip(header, csv_row):
            assert float(cell) == json_row[col]


def test_predict_at_band_centre(tmp_path, level_energy):
    omega = 900.0
    star = float(np.log(omega) / (2.0 * np.pi))
    cfg = write_config(tmp_path, window=None, name="p.json",
                       scatterers={
                           "positions": [[GENERIC_X, 0.5923]],
                           "inv_couplings": [star],
                       })
    rc, text = run_cli(["predict", "--config", cfg, "--omega", str(omega)], tmp_path)
    assert rc == 0
    (row,) = json.loads(text)["rows"]
    assert row["in_band"] is True
    assert row["band_center_inv"] == pytest.approx(star, abs=1e-14)
    assert row["omega_band_lo"] < omega < row["omega_band_hi"]


def test_predict_defaults_to_window_centre(tmp_path, level_energy):
    lo, hi = level_energy(200), level_energy(330)
    cfg = write_config(tmp_path, window=(lo, hi))
    rc, text = run_cli(["predict", "--config", cfg], tmp_path)
    assert rc == 0
    doc = json.loads(text)
    assert doc["diagnostics"]["omega"] == pytest.approx(0.5 * (lo + hi), rel=1e-15)


def test_numerical_failures_use_their_own_exit_code(tmp_path, level_energy,
                                                    monkeypatch, capsys):
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)))

    def explode(config):
        raise RootBracketError("no sign change")

    monkeypatch.setattr(cli, "cmd_spectrum", explode)
    rc = cli.main(["spectrum", "--config", cfg])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_symmetry_placement_is_flagged(tmp_path, level_energy):
    golden_ly = (1.0 + 5.0 ** 0.5) / 2.0
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)),
                       scatterers={
                           "positions": [[0.5, 0.3183 * golden_ly]],
                           "inv_couplings": [0.3],
                       })
    rc, text = run_cli(["spectrum", "--config", cfg], tmp_path)
    assert rc == 0
    notes = json.loads(text)["diagnostics"]["notes"]
    assert any("x = 1/2" in n for n in notes)


def test_console_script_smoke(tmp_path, level_energy):
    # without an installed console script (a source checkout on PYTHONPATH),
    # run its [project.scripts] entry point pointbilliard.cli:main instead
    exe = shutil.which("pointbilliard")
    command = [exe] if exe else [
        sys.executable, "-c", "import sys; from pointbilliard.cli import main; sys.exit(main())"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, window=(level_energy(200), level_energy(240)))
    proc = subprocess.run([*command, "spectrum", "--config", cfg, "--format", "csv"],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# schema: pointbilliard.spectrum/")
    header, data = parse_csv(proc.stdout)
    assert header == list(cli.CSV_COLUMNS["spectrum"])
    assert len(data) == 40


def test_cli_import_leaves_thread_pool_unloaded():
    # only sweep runs a thread pool, so the other subcommands need not pay
    # for importing one
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import pointbilliard.cli; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
