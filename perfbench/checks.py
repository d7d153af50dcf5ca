"""Output checks for the benchmark workloads.

Each check reads files the CLI wrote and returns a :class:`Check`.  The bounds
are the acceptance suite's own: energy deviation at most 1e-10, published
Table 2/4 digits within 2% (li-leps), 5% (ep-fds) and 3% (Table 4), and
convergence orders within 0.05.  The checks use only the standard library so
that they judge the program's files, not the program's own arithmetic.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import NamedTuple

DEVIATION_BOUND = 1e-10
ORDER_TOL = 0.05

# Published digits: (1/h, 1/tau) -> (l2, linf), in ladder order.
TABLE2_LI = {
    (10, 100): (1.2515e-03, 1.3017e-03),
    (20, 200): (3.1285e-04, 3.2508e-04),
    (40, 400): (7.8211e-05, 8.1248e-05),
    (80, 800): (1.9553e-05, 2.0311e-05),
}
TABLE2_EP = {
    (10, 100): (1.1112e-03, 1.0535e-03),
    (20, 200): (2.7777e-04, 2.6301e-04),
    (40, 400): (6.9442e-05, 6.5729e-05),
    (80, 800): (1.7360e-05, 1.6431e-05),
}
TABLE4_LI = {
    (2, 100): (1.2129e-01, 2.7812e-02),
    (4, 200): (3.0043e-02, 7.8107e-03),
    (8, 400): (7.4920e-03, 1.9545e-03),
    (16, 800): (1.8718e-03, 4.8891e-04),
}
TABLE4_L2_ORDERS = (2.01, 2.00, 2.00)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def read_meta(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def relative_drift(rows: list[dict[str, str]], column: str) -> float:
    """Largest ``|e(t) - e(0)| / |e(0)|`` over the rows of an energy trace."""
    values = [float(row[column]) for row in rows]
    e0 = values[0]
    return max(abs(e - e0) for e in values) / abs(e0)


def energy_check(name: str, rows: list[dict[str, str]], column: str,
                 expected_rows: int, bound: float = DEVIATION_BOUND) -> Check:
    """Trace complete and its energy (``column``) conserved to ``bound``."""
    if len(rows) != expected_rows:
        return Check(name, False, f"{len(rows)} energy rows, expected {expected_rows}")
    drift = relative_drift(rows, column)
    return Check(name, drift <= bound, f"{column} deviation {drift:.2e} (<= {bound:.0e})")


def field_rows_check(name: str, lines: int, nodes: int) -> Check:
    """A field snapshot holds a header plus one row per node."""
    return Check(name, lines == nodes + 1, f"{lines} lines, expected {nodes + 1}")


def table_check(name: str, rows: list[dict[str, str]], table: dict, rel_tol: float,
                order_norms: tuple[str, ...], ref_orders: tuple[float, ...]) -> Check:
    """Convergence rows match published (l2, linf) digits and reference orders.

    ``rows`` are the ``convergence.csv`` rows of a halving ladder that starts
    at the table's first entry; ``ref_orders[i]`` is the order expected
    between rows ``i`` and ``i + 1`` for every norm in ``order_norms``.
    """
    keys = list(table)[:len(rows)]
    if len(rows) < 2 or len(rows) != len(keys):
        return Check(name, False, f"{len(rows)} ladder rows do not fit the table")
    worst_digit = 0.0
    for row, (inv_h, inv_tau) in zip(rows, keys):
        h, tau = float(row["h"]), float(row["tau"])
        if abs(h * inv_h - 1.0) > 1e-9 or abs(tau * inv_tau - 1.0) > 1e-9:
            return Check(name, False, f"row (h={h}, tau={tau}) is not (1/{inv_h}, 1/{inv_tau})")
        for norm, ref in zip(("l2", "linf"), table[(inv_h, inv_tau)]):
            worst_digit = max(worst_digit, abs(float(row[norm]) - ref) / ref)
    worst_order = 0.0
    for norm in order_norms:
        for row, ref in zip(rows[1:], ref_orders):
            worst_order = max(worst_order, abs(float(row[f"{norm}_order"]) - ref))
    ok = worst_digit <= rel_tol and worst_order <= ORDER_TOL
    return Check(name, ok, f"worst digit error {worst_digit:.2%} (<= {rel_tol:.0%}), "
                 f"worst order error {worst_order:.3f} (<= {ORDER_TOL})")
