"""The output checks accept the program's real outputs and reject perturbed ones."""

import csv

import pytest

from checks import (TABLE2_LI, energy_check, field_rows_check, read_rows,
                    relative_drift, table_check)
from sinegordon.harness import main
from workloads import WORKLOADS


def rewrite(path, edit):
    """Apply ``edit(rows)`` to the data rows of a CSV file, keeping its header."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def run_command(cmd, out):
    assert main([*cmd.argv, "--out", str(out)]) == 0
    return cmd.check(out)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Outputs of the paper-tables workload, which pass their checks."""
    root = tmp_path_factory.mktemp("tables")
    for cmd in WORKLOADS["paper-tables"].commands:
        checks = run_command(cmd, root / cmd.name)
        assert all(c.ok for c in checks), checks
    return root


@pytest.mark.parametrize("name,shift", [
    ("table2-li-leps", 1.025),   # beyond the 2% bound
    ("table2-ep-fds", 0.94),     # beyond the 5% bound
    ("table4-li-leps", 1.035),   # beyond the 3% bound
])
def test_shifted_published_digit_is_rejected(tables, name, shift):
    cmd = next(c for c in WORKLOADS["paper-tables"].commands if c.name == name)
    out = tables / name
    original = (out / "convergence.csv").read_text()
    try:
        def shift_linf(rows):
            rows[1][4] = repr(float(rows[1][4]) * shift)  # linf column
            return rows
        rewrite(out / "convergence.csv", shift_linf)
        assert not any(c.ok for c in cmd.check(out))
    finally:
        (out / "convergence.csv").write_text(original)


def test_order_off_by_more_than_tolerance_is_rejected(tables):
    cmd = WORKLOADS["paper-tables"].commands[0]
    rows = read_rows(tables / cmd.name / "convergence.csv")
    assert table_check("t", rows, TABLE2_LI, 0.02, ("h1",), (2.0,) * 3).ok
    rows[2]["h1_order"] = "2.06"
    assert not table_check("t", rows, TABLE2_LI, 0.02, ("h1",), (2.0,) * 3).ok


def test_ladder_not_matching_table_rows_is_rejected(tables):
    rows = read_rows(tables / "table2-li-leps" / "convergence.csv")
    assert not table_check("t", rows[1:], TABLE2_LI, 0.02, ("l2",), (2.0,) * 2).ok
    assert not table_check("t", rows[:1], TABLE2_LI, 0.02, ("l2",), ()).ok


def test_ring_paper_energy_checks(tmp_path):
    cmd = WORKLOADS["ring-paper"].commands[0]
    assert all(c.ok for c in run_command(cmd, tmp_path))
    for scheme, column in (("li-leps", 1), ("ep-fds", 2)):
        path = tmp_path / f"energy_{scheme}.csv"
        original = path.read_text()

        def inflate(rows):
            rows[-1][column] = repr(float(rows[-1][column]) * (1 + 1e-9))
            return rows
        rewrite(path, inflate)
        checks = {c.name: c.ok for c in cmd.check(tmp_path)}
        assert checks == {"li-leps modified energy": scheme != "li-leps",
                          "ep-fds original energy": scheme != "ep-fds"}
        path.write_text(original)


def test_energy_check_bounds():
    rows = [{"e": "10.0"}, {"e": repr(10.0 * (1 + 3e-15))}]
    assert relative_drift(rows, "e") == pytest.approx(3e-15, rel=0.1)
    assert energy_check("e", rows, "e", 2).ok
    assert not energy_check("e", rows, "e", 3).ok
    rows[1]["e"] = repr(10.0 * (1 + 2e-10))
    assert not energy_check("e", rows, "e", 2).ok


def test_field_rows_check():
    assert field_rows_check("f", 10 * 10 + 1, 100).ok
    assert not field_rows_check("f", 10 * 10, 100).ok


def test_large_step_truncated_snapshot_is_rejected(tmp_path):
    cmd = WORKLOADS["ring-large-step"].commands[1]  # the short ep-fds run
    assert all(c.ok for c in run_command(cmd, tmp_path))
    snapshot = next(tmp_path.glob("field_t*.csv"))
    rewrite(snapshot, lambda rows: rows[:-1])
    assert [c.ok for c in cmd.check(tmp_path)] == [True, False]


def test_numerical_error_fails_its_steps_without_crashing(tmp_path, monkeypatch):
    import sinegordon.harness
    import worker
    from workloads import Command, Workload

    monkeypatch.setattr(sinegordon.harness, "run", sinegordon.harness.run)
    # One fixed-point sweep cannot converge, so ep_fds_step raises NumericalError.
    cmd = Command("diverge", ("run", "--problem", "ring", "--n", "16", "--tau", "0.5",
                              "--T", "1.0", "--scheme", "ep-fds", "--fp-max", "1"),
                  2, lambda out: [])
    result = worker.execute(Workload("diverge", "", (cmd,)), tmp_path, traced=False)
    assert result["failed_steps"] == result["attempted_steps"] == 2
    assert [c["ok"] for c in result["checks"]] == [False]
