import json
import math
from pathlib import Path

import pytest

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
        assert row["truncation_N"] == 0
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
    from scipy.sparse.linalg import ArpackNoConvergence

    from thermoflow import transfer

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("stalled", None, None)

    monkeypatch.setattr(transfer, "DENSE_WORDS", 0)
    monkeypatch.setattr(transfer, "eigs", stalled)
    assert _run(["pressure", "--config", CONFIGS / "pressure_golden_mean.json",
                 "--out", tmp_path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_wrong_schema_exit_2(tmp_path):
    bad = tmp_path / "bad_schema.json"
    bad.write_text(json.dumps({"schema": 99, "experiment": "pressure"}))
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
])
def test_bad_field_values_exit_2(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, **cfg}))
    assert _run([cfg["experiment"], "--config", path, "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_holonomy_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run(["holonomy", "--config", CONFIGS / "holonomy_zero.json",
                     "--out", out, "--seed", "5"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_diskvanish_all_cases(tmp_path):
    assert _run(["diskvanish", "--config", CONFIGS / "diskvanish_all.json",
                 "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "diskvanish_report.json").read_text())
    by_case = {c["case"]: c for c in report["cases"]}
    for case in ("AB", "CD", "EF"):
        assert by_case[case]["verdict"] == "forced-zero"
    for case in ("GH", "IJ"):
        assert by_case[case]["verdict"] == "undetermined"
        assert by_case[case]["completed_verdict"] == "forced-zero"
    assert (tmp_path / "diskvanish_AB_relations.json").exists()


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
