"""scripts/bench.py: the pairwise comparison of two checkouts' runs."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _runs(values):
    return [{"wall_s": v} for v in values]


def test_compare_counts_wins_gap_and_spread():
    base = _runs([1.0, 1.1, 1.2, 1.3, 1.4])
    other = _runs([0.9, 1.2, 1.1, 1.2, 1.3])
    got = bench._compare(base, other, {"wall_s": 0.25, "absent": 0.1})
    assert set(got) == {"wall_s"}
    row = got["wall_s"]
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert row["median_gap"] == pytest.approx(0.0)
    assert row["base_quartile_spread"] == pytest.approx(0.2)
    assert row["within_bound"] and not row["unresolved"] and not row["gain"]


def test_compare_flags_a_spread_wider_than_the_bound_as_unresolved():
    # quartiles 0.45 and 0.60 around 0.52: a spread of 29 % against a bound of 25 %
    base = _runs([0.40, 0.45, 0.52, 0.60, 0.70])
    same = bench._compare(base, _runs([0.41, 0.44, 0.53, 0.59, 0.71]), {"wall_s": 0.25})
    assert same["wall_s"]["within_bound"] and same["wall_s"]["unresolved"]
    # every run of the change better than every base run settles it
    faster = bench._compare(base, _runs([0.30, 0.31, 0.32, 0.33, 0.39]), {"wall_s": 0.25})
    assert not faster["wall_s"]["unresolved"]


def test_compare_reports_a_median_past_the_bound():
    base = _runs([1.0, 1.0, 1.01, 1.0, 0.99])
    row = bench._compare(base, _runs([1.3, 1.3, 1.3, 1.3, 1.3]), {"wall_s": 0.25})["wall_s"]
    assert (row["wins"], row["within_bound"], row["unresolved"]) == (0, False, False)


@pytest.mark.parametrize("other,gain", [
    ([0.80, 0.81, 0.79, 0.82, 0.80, 0.81, 0.79, 0.80, 0.82, 0.80], True),
    # nine of ten pairs won is enough
    ([0.80, 0.81, 0.79, 0.82, 0.80, 0.81, 0.79, 0.80, 0.82, 1.30], True),
    # eight of ten is not
    ([0.80, 0.81, 0.79, 0.82, 0.80, 0.81, 0.79, 0.80, 1.30, 1.30], False),
    # every pair won, but the medians differ by less than the base's spread
    ([0.99, 1.0, 0.98, 1.01, 0.97, 0.99, 1.02, 0.96, 1.0, 0.98], False)])
def test_compare_flags_a_gain_by_wins_and_gap(other, gain):
    # base quartiles 0.99 and 1.01: a spread of 0.02 around a median of 1.0
    base = _runs([1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.03, 0.97, 1.01, 0.99])
    row = bench._compare(base, _runs(other), {"wall_s": 0.25})["wall_s"]
    assert row["gain"] is gain


def test_src_lines_by_module_counts_each_file_and_sums_to_src_lines(tmp_path):
    pkg = tmp_path / "src" / "thermoflow"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")      # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not python\n")
    assert bench._src_lines_by_module(tmp_path) == {"a.py": 2, "b.py": 0}
    root = Path(__file__).resolve().parent.parent
    by_module = bench._src_lines_by_module(root)
    assert "sft.py" in by_module and sum(by_module.values()) == sum(
        p.read_text().count("\n") for p in (root / "src" / "thermoflow").glob("*.py"))


def test_src_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    pkg = tmp_path / "src" / "thermoflow"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "import math  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """One-line docstring."""\n'
        "    return math.fsum([x,\n"
        "                      2 * x])   # a statement over two lines\n"
        'TEXT = """a string\nthat is code"""\n')
    # the import, the def, both lines of the return and both lines of TEXT
    assert bench._src_code_lines_by_module(tmp_path) == {"a.py": 6}
    root = Path(__file__).resolve().parent.parent
    lines = bench._src_lines_by_module(root)
    code = bench._src_code_lines_by_module(root)
    assert set(code) == set(lines) and all(0 < code[name] < lines[name] for name in lines)


def _workload_runs(*runs):
    return [{"correct": correct, "failed": failed, "attempted": attempted}
            for correct, failed, attempted in runs]


def test_correctness_reports_failed_shares_summed_over_runs():
    base = _workload_runs((True, 0, 100), (True, 2, 300))
    other = _workload_runs((True, 1, 100), (False, 1, 100))
    got = bench._correctness(base, other)
    assert got["base_all_correct"] and not got["all_correct"]
    assert got["base_failed_share"] == pytest.approx(2 / 400)
    assert got["failed_share"] == pytest.approx(2 / 200)
    assert got["more_failed"]
    assert not bench._correctness(other, base)["more_failed"]


def test_correctness_of_equal_shares_and_no_attempts():
    runs = _workload_runs((True, 1, 50), (True, 1, 50))
    got = bench._correctness(runs, _workload_runs((True, 2, 100)))
    assert got["failed_share"] == got["base_failed_share"] == pytest.approx(0.02)
    assert not got["more_failed"]
    idle = _workload_runs((True, 0, 0))
    assert bench._correctness(idle, idle)["failed_share"] == 0.0


def test_exit_codes_match_repeat_by_repeat():
    base = [{"exit_code": 0, "wall_s": 0.1}, {"exit_code": 0, "wall_s": 0.1}]
    assert bench._exit_codes(base, base)["exit_codes_match"]
    other = [{"exit_code": 0, "wall_s": 0.1}, {"exit_code": 3, "wall_s": 0.1}]
    got = bench._exit_codes(base, other)
    assert got == {"base_exit_codes": [0, 0], "exit_codes": [0, 3], "exit_codes_match": False}
