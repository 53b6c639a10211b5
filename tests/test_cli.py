import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoflow.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run(args):
    return main([str(a) for a in args])


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_pressure_golden_mean_value(tmp_path):
    code = _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                 "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "pressure_report.json").read_text())
    assert abs(report["pressure"] - 0.481211825) < 1e-8
    assert report["rpf_residual"] < 1e-10
    for entry in report["derivatives"]:
        tol = {1: 1e-7, 2: 1e-5, 3: 1e-3}[entry["order"]]
        assert entry["abs_err"] < tol


def test_pressure_bounds_come_from_the_sums_of_each_order(tmp_path):
    assert _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                 "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "pressure_report.json").read_text())
    rows = {(d["family"], d["order"]): d for d in report["derivatives"]}
    assert len(rows) == 6
    for (family, order), row in rows.items():
        assert "truncation_N" not in row
        assert math.isfinite(row["tail_bound"]) and 0.0 <= row["tail_bound"] < 1e-9
        if order == 1:
            assert row["tail_bound"] == 0.0
        else:
            assert row["tail_bound"] > 0.0
    for family in (0, 1):
        assert rows[family, 2]["tail_bound"] != rows[family, 3]["tail_bound"]


def test_pressure_full_two_shift(tmp_path):
    assert _run(["pressure", "--config", CONFIGS / "pressure_full2.json",
                 "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "pressure_report.json").read_text())
    assert abs(report["pressure"] - math.log(2)) < 1e-12


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["pressure", "--config", bad, "--out", tmp_path]) == 2


def test_config_not_an_object_exit_2(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps([{"schema": 1, "experiment": "pressure"}]))
    assert _run(["pressure", "--config", bad, "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_depth_past_word_budget_exit_3(tmp_path, capsys):
    """Word counts can also overflow at derived depths, so this is numerical."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "pressure",
                               "sft": {"transition": [[1, 1], [1, 1]]},
                               "potential": {"kind": "random", "depth": 25}}))
    assert _run(["pressure", "--config", cfg, "--out", tmp_path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_arpack_no_convergence_exit_3(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence

    from thermoflow import transfer

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("stalled", None, None)

    monkeypatch.setattr(transfer, "DENSE_WORDS", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalled)
    assert _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                 "--out", tmp_path]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("call,where", [("eigvals", "dense Perron solve"),
                                        ("solve", "dense Perron solve"),
                                        ("inv", "fundamental system")])
def test_dense_linalg_error_exit_3(tmp_path, capsys, monkeypatch, call, where):
    """A LinAlgError from the dense spectral core (the Perron solve or the inverse
    of the fundamental system) is a numerical failure, not a traceback."""
    import numpy as np

    def failed(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{call} failed")

    monkeypatch.setattr(np.linalg, call, failed)
    assert _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                 "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and where in err and "Traceback" not in err


def test_wide_values_potential_exit_0(tmp_path):
    """A depth-4 potential with values in [-8.2, 11.3], whose h spans 1e-21..1:
    the Perron vectors are refined entry by entry, so no entry turns nonpositive."""
    import numpy as np

    from thermoflow.sft import full_shift, random_function
    s = full_shift(2)
    w = random_function(s, 4, np.random.default_rng(4), scale=5.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "pressure", "sft": {"transition": [[1, 1], [1, 1]]},
        "potential": {"kind": "values", "depth": 4,
                      "values": {"".join(map(str, u)): v for u, v in w.values.items()}}}))
    assert _run(["pressure", "--config", cfg, "--out", tmp_path]) == 0


@pytest.mark.parametrize("schema", [99, True, 1.0, "1"])
def test_wrong_schema_exit_2(tmp_path, schema):
    bad = tmp_path / "bad_schema.json"
    bad.write_text(json.dumps({"schema": schema, "experiment": "pressure",
                               "sft": GOLDEN_MEAN}))
    assert _run(["pressure", "--config", bad, "--out", tmp_path]) == 2


def test_missing_config_exit_2(tmp_path):
    assert _run(["pressure", "--config", tmp_path / "nope.json",
                 "--out", tmp_path]) == 2


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                     "--out", out, "--seed", "99"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_holonomy_zero_perturbation(tmp_path):
    assert _run(["holonomy", "--config", CONFIGS / "holonomy_zero.json",
                 "--out", tmp_path]) == 0
    rows = (tmp_path / "holonomy_trace.csv").read_text().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        rec = dict(zip(header, line.split(",")))
        assert abs(float(rec["trace_re"])) < 1e-12
        assert abs(float(rec["fd_re"])) < 1e-8
        assert float(rec["lambda1"]) == pytest.approx(math.exp(2.0), rel=1e-12)
        assert float(rec["lambda2"]) == 1.0
        assert float(rec["lambda3"]) == pytest.approx(math.exp(-2.0), rel=1e-12)


@pytest.mark.parametrize("orbits", [
    {"kind": "random", "count": 2, "l_range": [0, 0]},
    {"kind": "random", "count": 2, "l_range": [-2, -1]},
    {"kind": "random", "count": 2, "l_range": [0, 3]},
    {"kind": "random", "count": 2, "l_range": [3.0, 1.0]},
    {"kind": "zero", "l": 0},
    {"kind": "zero", "l": -1.5},
    {"kind": "explicit", "items": [{"l": 0.0, "samplers": {"q_alpha": [[0, 1.0, 0.0]]}}]},
])
def test_holonomy_bad_orbit_length_exit_2(tmp_path, orbits):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "holonomy", "orbits": orbits,
                               "variations": False}))
    assert _run(["holonomy", "--config", cfg, "--out", tmp_path]) == 2


def _explicit_orbit(names):
    return {"kind": "explicit", "items": [
        {"l": 1.5, "samplers": {name: [[0, 0.3, 0.1], [1, 0.2, 0.0], [-2, 0.0, 0.1]]
                                for name in names}}]}


@pytest.mark.parametrize("names,variations,missing", [
    (("q_alpha",), True, "q_i"),
    (("q_alpha",), False, "q_i"),
    (("q_i", "q_beta"), True, "q_alpha"),
    (("q_alpha", "q_i"), True, "q_beta"),
])
def test_holonomy_explicit_orbit_missing_sampler_exit_2(tmp_path, capsys, names, variations,
                                                        missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "holonomy",
                               "orbits": _explicit_orbit(names), "variations": variations}))
    assert _run(["holonomy", "--config", cfg, "--out", tmp_path]) == 2
    assert f"no sampler {missing}" in capsys.readouterr().err


def test_holonomy_explicit_orbit_without_q_beta_runs_without_variations(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "holonomy",
                               "orbits": _explicit_orbit(("q_alpha", "q_i")),
                               "variations": False}))
    assert _run(["holonomy", "--config", cfg, "--out", tmp_path]) == 0
    assert not (tmp_path / "holonomy_variations.csv").exists()


@pytest.mark.parametrize("variations", ["false", "true", 0, 1, None, [False]])
def test_holonomy_variations_must_be_a_bool(tmp_path, capsys, variations):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "holonomy",
                               "orbits": {"kind": "zero"}, "variations": variations}))
    assert _run(["holonomy", "--config", cfg, "--out", tmp_path]) == 2
    assert "variations" in capsys.readouterr().err


GOLDEN_MEAN = {"transition": [[1, 1], [1, 0]]}


@pytest.mark.parametrize("cfg", [
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "potential": {"kind": "constant"}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "derivative_families": {"count": 1, "depth": 2}, "orders": [4]},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "values", "depth": 2, "values": {"00": 0.1, "01": 0.2}}},
    {"experiment": "suspension", "sft": GOLDEN_MEAN, "families": {"count": 1},
     "orders": [4]},
    {"experiment": "suspension", "sft": GOLDEN_MEAN, "roof": {"kind": "constant", "value": 0}},
    {"experiment": "suspension", "sft": GOLDEN_MEAN,
     "roof": {"kind": "constant", "value": -1}},
    {"experiment": "diskvanish", "cases": [{"case": "ZZ", "N": 8}]},
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "seed": "x"},
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "seed": -1},
    {"experiment": "pressure", "sft": [[1, 1], [1, 0]]},
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "potential": 3},
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "derivative_families": 5},
    {"experiment": "suspension", "sft": GOLDEN_MEAN, "roof": 2.0},
    {"experiment": "suspension", "sft": GOLDEN_MEAN, "families": 5},
    {"experiment": "holonomy", "orbits": {"kind": "random", "count": "x"},
     "variations": False},
    {"experiment": "diskvanish", "cases": [{"case": "AB", "N": "x"}]},
    {"experiment": "diskvanish", "cases": [5]},
    {"experiment": "pressure", "sft": {"transition": [[0, 1], [1, 0]]}},
    {"experiment": "suspension", "sft": {"transition": [[0, 1], [1, 0]]}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "derivative_families": {"count": 1, "depth": 2, "scale": "x"}},
    {"experiment": "suspension", "sft": GOLDEN_MEAN,
     "flow_function": {"kind": "fourier", "depth": 2}},
    {"experiment": "suspension", "sft": GOLDEN_MEAN,
     "flow_function": {"kind": "random_fourier", "modes": "x"}},
    {"experiment": "suspension", "sft": GOLDEN_MEAN, "flow_function": {"kind": "constant"}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "values", "depth": 1, "values": 0.3}},
    {"experiment": "holonomy", "orbits": {"kind": "zero"}, "variations": False,
     "kernel_samples": "x"},
    {"experiment": "holonomy", "orbits": {"kind": "explicit"}, "variations": False},
    {"experiment": "holonomy", "orbits": {"kind": "random", "count": 1, "modes": "x"},
     "variations": False},
    {"experiment": "holonomy", "orbits": {"kind": "random", "count": 1, "l_range": "x"},
     "variations": False},
    {"experiment": "diskvanish", "cases": [{"case": "AB", "N": 8, "couplings": 5}]},
    {"experiment": "diskvanish", "cases": [{"case": "GH", "N": 6, "couplings": [5]}]},
    {"experiment": "diskvanish", "cases": [{"case": "CD", "N": 6, "couplings": [5]}]},
    {"experiment": "diskvanish", "cases": [{"case": "IJ", "N": 6, "couplings": [None]}]},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "constant", "value": "nan"}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "constant", "value": "inf"}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "constant", "value": math.inf}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "values", "depth": 1, "values": {"0": math.nan, "1": 0.0}}},
    {"experiment": "diskvanish", "cases": [{"case": "AB", "N": 6, "expect": "forced_zero"}]},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "random", "scale": math.nan}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "potential": {"kind": "zero", "depth": True}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN, "potential": {"kind": "zero", "depth": 1.5}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "constant", "value": 0.1, "depth": True}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "constant", "value": 0.1, "depth": 1.5}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "values", "depth": True, "values": {"0": 0.1, "1": 0.2}}},
    {"experiment": "pressure", "sft": GOLDEN_MEAN,
     "potential": {"kind": "values", "depth": 1.5, "values": {"0": 0.1, "1": 0.2}}},
    *({"experiment": "holonomy", "variations": False, "orbits": {"kind": "explicit", "items": [
        {"l": 2.0, "samplers": {"q_alpha": [[0, 0.5, 0.1]], "q_i": modes}}]}}
      for modes in ([[1.5, 0.3, 0.0]], [[True, 0.3, 0.0]], [["1", 0.3, 0.0]],
                    [[1, math.nan, 0.0]], [[1, 0.3, math.inf]], [[1, "0.3", 0.0]],
                    [[1, 0.3]], [1, 0.3, 0.0], {"1": [0.3, 0.0]})),
    *({"experiment": "pressure", "sft": GOLDEN_MEAN, "orders": orders}
      for orders in ([True], [2.0], "123")),
    {"experiment": "suspension", "sft": GOLDEN_MEAN, "orders": [True, 3.0]},
    *({"experiment": "diskvanish", "cases": [{"case": "GH", "N": 6, "completed": completed}]}
      for completed in ("no", 1, None)),
])
def test_bad_field_values_exit_2(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, **cfg}))
    assert _run([cfg["experiment"], "--config", path, "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("potential", [
    {"kind": "constant", "value": 1e6},
    {"kind": "values", "depth": 1, "values": {"0": 1e6, "1": 0.0}},
])
def test_overflowing_potential_exit_3(tmp_path, capsys, potential):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "experiment": "pressure", "sft": GOLDEN_MEAN,
                                "potential": potential}))
    assert _run(["pressure", "--config", path, "--out", tmp_path]) == 3
    assert "numerical failure" in capsys.readouterr().err


# The Perron pair of this potential's normalized matrix cannot be normalized:
# its left vector sums to zero.
_UNNORMALIZABLE = {"kind": "values", "depth": 2,
                   "values": {"00": 0.0, "01": 1.0, "10": 317.875}}


def test_perron_vectors_spanning_the_float_range_exit_0(tmp_path, capsys):
    """h spans about 1e-69..1, where an eigendecomposition alone leaves sum(nu) = 0;
    the refined vectors normalize, and P is log of the root of
    rho^2 - rho - e^{318.875}, 159.4375 to double precision."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "experiment": "pressure", "sft": GOLDEN_MEAN,
                                "potential": _UNNORMALIZABLE, "orders": [1],
                                "derivative_families": {"count": 1, "depth": 1}}))
    assert _run(["pressure", "--config", path, "--out", tmp_path]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "pressure_report.json").read_text())
    assert report["pressure"] == pytest.approx(159.4375, rel=1e-15)


def test_overflowing_perron_root_exit_3(tmp_path, capsys):
    """e^709.7 is a float but rho = 2 e^709.7 is not."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "experiment": "pressure",
                                "sft": {"transition": [[1, 1], [1, 1]]},
                                "potential": {"kind": "values", "depth": 1,
                                              "values": {"0": 709.7, "1": 709.7}}}))
    assert _run(["pressure", "--config", path, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


# Fiber modes never enter the flow pressure: on the full 2-shift with roof 1 and
# const 0 the root is log 2 whatever the modes are.
_HUGE_MODES = {"0": {"cos": [1e308, 1e308]}, "1": {"cos": [1e308, 1e308]}}
_TWELVE_MODES = {w: {"const": 0.0, "cos": [1.0] * 12, "sin": [-0.5] * 12} for w in "01"}


@pytest.mark.parametrize("cylinders", [_TWELVE_MODES, _HUGE_MODES])
def test_fiber_modes_leave_the_flow_pressure_exact(tmp_path, cylinders):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "experiment": "suspension", "sft": {"transition": [[1, 1], [1, 1]]},
        "roof": {"kind": "constant", "value": 1.0},
        "flow_function": {"kind": "fourier", "depth": 1, "cylinders": cylinders}}))
    assert _run(["suspension", "--config", path, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "suspension_report.json").read_text())
    assert abs(report["flow_pressure"] - math.log(2)) < 1e-11


# A fiber mean of +-1e308 times roof 2.0 makes the hat +-inf; the normalized
# potential is then inf or inf - inf = nan.
_NON_FINITE_HATS = [
    {"kind": "fourier", "depth": 1, "cylinders": {"0": {"const": 1e308}, "1": {"const": 0.0}}},
    {"kind": "constant", "value": 1e308},
    {"kind": "constant", "value": -1e308},
]


@pytest.mark.parametrize("flow_function", _NON_FINITE_HATS)
def test_non_finite_hat_exit_3(tmp_path, capsys, flow_function):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "experiment": "suspension", "sft": GOLDEN_MEAN,
                                "roof": {"kind": "constant", "value": 2.0},
                                "flow_function": flow_function}))
    assert _run(["suspension", "--config", path, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


def test_diskvanish_kernel_entries_past_a_thousand_bits(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "diskvanish",
        "cases": [{"case": "IJ", "N": 30, "couplings": ["s=4t"],
                   "expect": "undetermined"}]}))
    assert _run(["diskvanish", "--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "diskvanish_report.json").read_text())
    assert report["cases"][0]["kernel_dim"] == 32


def test_holonomy_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run(["holonomy", "--config", CONFIGS / "holonomy_zero.json",
                     "--out", out, "--seed", "5"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_diskvanish_all_cases(tmp_path):
    """The verdicts hold, and the report and relation dumps equal the committed
    golden files byte for byte."""
    assert _run(["diskvanish", "--config", CONFIGS / "diskvanish_all.json",
                 "--out", tmp_path, "--seed", "1"]) == 0
    golden = _tree_bytes(CONFIGS.parent / "out" / "diskvanish")
    assert len(golden) == 6 and _tree_bytes(tmp_path) == golden
    report = json.loads((tmp_path / "diskvanish_report.json").read_text())
    by_case = {c["case"]: c for c in report["cases"]}
    for case in ("AB", "CD", "EF"):
        assert by_case[case]["verdict"] == "forced-zero"
    for case in ("GH", "IJ"):
        assert by_case[case]["verdict"] == "undetermined"
        assert by_case[case]["completed_verdict"] == "forced-zero"


def test_diskvanish_expected_negative_mode(tmp_path):
    assert _run(["diskvanish", "--config", CONFIGS / "diskvanish_ab_single.json",
                 "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "diskvanish_report.json").read_text())
    assert report["cases"][0]["verdict"] == "undetermined"
    assert report["cases"][0]["as_expected"]


def test_diskvanish_unexpected_verdict_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "diskvanish",
        "cases": [{"case": "AB", "N": 10, "couplings": ["s=t"],
                   "expect": "forced-zero"}]}))
    assert _run(["diskvanish", "--config", cfg, "--out", tmp_path]) == 3


def test_diskvanish_small_n_warning(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "diskvanish",
        "cases": [{"case": "AB", "N": 2, "couplings": ["s=t", "s=t/2"]}]}))
    assert _run(["diskvanish", "--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "diskvanish_report.json").read_text())
    assert report["warnings"]


# A config whose fault sits in a field each experiment reads late, and the
# first solve of that experiment, which must not run.
_LATE_FAULTS = [
    ("pressure", {"sft": GOLDEN_MEAN, "derivative_families": {"count": "many"}},
     "thermoflow.transfer.rpf"),
    ("suspension", {"sft": GOLDEN_MEAN, "families": {"count": "many"}},
     "thermoflow.suspension.flow_pressure"),
    ("holonomy", {"orbits": {"kind": "random", "count": 2}, "kernel_samples": "many"},
     "thermoflow.cli.trace_derivative"),
    *(("diskvanish", {"cases": [{"case": "AB", "N": 8}, second]},
       "thermoflow.cli.solve_vanishing")
      for second in ({"case": "CD", "N": "x"}, {"case": "EF", "N": 6, "expect": 5},
                     {"case": "GH", "N": 6, "couplings": ["s=02t"]}, {"case": "IJ", "N": 1}))]


@pytest.mark.parametrize("experiment,fields,solver", _LATE_FAULTS)
def test_config_error_exits_2_before_any_solve_or_output(tmp_path, monkeypatch, experiment,
                                                         fields, solver):
    def solve(*args, **kwargs):
        raise AssertionError(f"{solver} ran before the config was read")

    monkeypatch.setattr(solver, solve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": experiment, **fields}))
    out = tmp_path / "out"
    assert _run([experiment, "--config", cfg, "--out", out]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case,coupling", [
    (case, coupling) for case in ("GH", "CD")
    for coupling in ("s=02t", "s=\u0662t", "s=\u00b2t", "s=+2t", "s= 2t", "s=2T", "s=2t ")])
def test_diskvanish_rejects_a_coupling_not_in_canonical_form(tmp_path, capsys, case, coupling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "diskvanish",
                               "cases": [{"case": case, "N": 6, "couplings": [coupling]}]}))
    out = tmp_path / "out"
    assert _run(["diskvanish", "--config", cfg, "--out", out]) == 2
    assert list(out.iterdir()) == []
    assert "config error" in capsys.readouterr().err


def test_selftest_runs_clean(tmp_path, capsys):
    assert _run(["selftest", "--out", tmp_path, "--seed", "3"]) == 0
    report = json.loads((tmp_path / "selftest_report.json").read_text())
    assert report["ok"]
    printed = capsys.readouterr().out
    assert "PASS pressure.full-2-shift" in printed


def test_suspension_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "suspension", "seed": 4,
        "sft": {"transition": [[1, 1], [1, 1]]},
        "roof": {"kind": "constant", "value": 2.0}}))
    assert _run(["suspension", "--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "suspension_report.json").read_text())
    assert abs(report["flow_pressure"] - math.log(2) / 2) < 1e-10
    assert report["root_residual"] < 1e-11


def test_flow_pressure_newton_stall_exit_3(tmp_path, capsys, monkeypatch):
    from thermoflow import suspension

    monkeypatch.setattr(suspension, "_NEWTON_STEPS", 1)
    assert _run(["suspension", "--config", CONFIGS / "suspension_basic.json",
                 "--out", tmp_path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_suspension_cli_solve_budget(tmp_path, solve_counts):
    assert _run(["suspension", "--config", CONFIGS / "suspension_basic.json",
                 "--out", tmp_path]) == 0
    assert solve_counts["solves"] <= 80


def test_pressure_cli_solves_one_base(tmp_path, solve_counts):
    assert _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                 "--out", tmp_path]) == 0
    assert solve_counts["solves"] <= 21
    assert solve_counts["contexts"] == 1
    assert solve_counts["factors"] == 1


_MISSING = object()
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 0), st.floats(-5.0, 0.0),
                  st.sampled_from([math.nan, math.inf, "x", "", [], [1.0], {}]))
_GOLDEN_WORDS = {1: ["0", "1"], 2: ["00", "01", "10"]}


@st.composite
def _mostly(draw, valid):
    """A valid draw two times in three, else junk or (as _MISSING) nothing."""
    return draw({0: st.just(_MISSING), 1: _JUNK}.get(draw(st.integers(0, 5)), valid))


@st.composite
def _spec(draw, kind, **fields):
    """{"kind": kind} plus each field drawn valid, as junk, or left out."""
    spec = {"kind": kind}
    for key, valid in fields.items():
        value = draw(_mostly(valid))
        if value is not _MISSING:
            spec[key] = value
    return spec


def _cylinders(depth):
    coefs = st.lists(st.floats(-1e308, 1e308), max_size=64)
    cylinder = st.fixed_dictionaries(
        {}, optional={"const": st.floats(-1e308, 1e308), "cos": coefs, "sin": coefs})
    return st.fixed_dictionaries({w: _mostly(cylinder) for w in _GOLDEN_WORDS[depth]}).map(
        lambda table: {w: c for w, c in table.items() if c is not _MISSING})


_ROOFS = st.one_of(
    _spec("constant", value=st.floats(0.2, 3.0), depth=st.integers(1, 3)),
    _spec("random_positive", depth=st.integers(1, 3), base=st.floats(0.5, 2.0),
          scale=st.floats(0.0, 0.3)),
    _spec("spiral"), _JUNK)
_FLOW_FUNCTIONS = st.one_of(
    st.integers(1, 2).flatmap(
        lambda d: _spec("fourier", depth=st.just(d), cylinders=_cylinders(d))),
    _spec("random_fourier", depth=st.integers(1, 3), modes=st.integers(0, 3),
          scale=st.floats(0.0, 0.5)),
    _spec("constant", value=st.floats(-1e308, 1e308)),
    _spec("spiral"), _JUNK)


@settings(max_examples=60, deadline=None)
@given(roof=_ROOFS, flow_function=_FLOW_FUNCTIONS)
@example(roof={"kind": "constant", "value": 1.0},
         flow_function={"kind": "fourier", "depth": 1, "cylinders": _HUGE_MODES})
@example(roof={"kind": "constant", "value": 2.0}, flow_function=_NON_FINITE_HATS[0])
@example(roof={"kind": "constant", "value": 2.0}, flow_function=_NON_FINITE_HATS[1])
@example(roof={"kind": "constant", "value": 2.0}, flow_function=_NON_FINITE_HATS[2])
def test_suspension_config_fields_never_raise(tmp_path_factory, roof, flow_function):
    out = tmp_path_factory.mktemp("suspension")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "suspension",
                               "sft": GOLDEN_MEAN, "roof": roof,
                               "flow_function": flow_function}))
    assert _run(["suspension", "--config", cfg, "--out", out]) in (0, 2, 3)


_POTENTIALS = st.one_of(  # st.floats() also draws nan, infinities and huge values
    _spec("zero", depth=st.integers(1, 3)),
    _spec("constant", value=st.floats(), depth=st.integers(1, 3)),
    _spec("random", depth=st.integers(1, 3), scale=st.floats()),
    st.integers(1, 2).flatmap(lambda d: _spec(
        "values", depth=st.just(d),
        values=st.fixed_dictionaries({w: st.floats() for w in _GOLDEN_WORDS[d]}))),
    _JUNK)


@settings(max_examples=60, deadline=None)
@given(potential=_POTENTIALS)
@example(potential=_UNNORMALIZABLE)
def test_pressure_potential_fields_never_raise(tmp_path_factory, potential):
    out = tmp_path_factory.mktemp("pressure")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "pressure", "sft": GOLDEN_MEAN,
                               "potential": potential, "orders": [1],
                               "derivative_families": {"count": 1, "depth": 1}}))
    assert _run(["pressure", "--config", cfg, "--out", out]) in (0, 2, 3)


FULL11 = {"transition": [[1] * 11 for _ in range(11)]}


def _full11_keys(depth):
    return [",".join(map(str, w)) for w in itertools.product(range(11), repeat=depth)]


def test_eleven_symbol_words_are_comma_separated_keys(tmp_path):
    """Above 10 symbols a config word is written as `to_json` writes it, "10,0";
    a `values` potential and `fourier` cylinders both read that form."""
    potential = {"kind": "values", "depth": 2,
                 "values": {k: 0.01 * i for i, k in enumerate(_full11_keys(2))}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "pressure", "sft": FULL11,
                               "potential": potential, "orders": []}))
    assert _run(["pressure", "--config", cfg, "--out", tmp_path]) == 0
    flow = {"kind": "fourier", "depth": 1,
            "cylinders": {k: {"const": 0.1 * i} for i, k in enumerate(_full11_keys(1))}}
    cfg.write_text(json.dumps({"schema": 1, "experiment": "suspension", "sft": FULL11,
                               "flow_function": flow, "orders": []}))
    assert _run(["suspension", "--config", cfg, "--out", tmp_path]) == 0


@pytest.mark.parametrize("sft_spec,key", [(FULL11, "100"), (FULL11, "1,x"), (FULL11, "1;0"),
                                          (GOLDEN_MEAN, "0,1"), (GOLDEN_MEAN, "0x")])
def test_malformed_word_key_exit_2(tmp_path, capsys, sft_spec, key):
    """A key that is not a word in the key form of its shift is a config error."""
    n = len(sft_spec["transition"])
    keys = _full11_keys(2) if n == 11 else ["00", "01", "10"]
    values = {k: 0.0 for k in keys[1:]} | {key: 0.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "pressure", "sft": sft_spec,
                               "potential": {"kind": "values", "depth": 2, "values": values}}))
    assert _run(["pressure", "--config", cfg, "--out", tmp_path]) == 2
    assert "Traceback" not in capsys.readouterr().err
    flow = {"kind": "fourier", "depth": 2, "cylinders": {k: {} for k in values}}
    cfg.write_text(json.dumps({"schema": 1, "experiment": "suspension", "sft": sft_spec,
                               "flow_function": flow}))
    assert _run(["suspension", "--config", cfg, "--out", tmp_path]) == 2


def test_perron_root_tied_in_modulus_with_its_negative_exit_0(tmp_path, capsys):
    """Entries e^60.98, e^-64.07 and e^310.6 leave eigenvalues +-rho that tie in
    modulus after rounding; rho is the one of largest real part, and P is
    (w01 + w10) / 2 to double precision."""
    values = {"00": 60.97915723, "01": -64.0708587, "10": 310.60498546}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "experiment": "pressure", "sft": GOLDEN_MEAN,
                                "potential": {"kind": "values", "depth": 2, "values": values},
                                "orders": [1], "derivative_families": {"count": 1, "depth": 1}}))
    assert _run(["pressure", "--config", path, "--out", tmp_path]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "pressure_report.json").read_text())
    assert report["pressure"] == pytest.approx((values["01"] + values["10"]) / 2, rel=1e-15)
