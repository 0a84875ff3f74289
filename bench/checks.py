"""Output checks on the CSVs a pass writes; run outside the timed region.

Every CSV row is checked against the cross-checks it carries:

* ``oracle``: the oracle column agrees with ``analytic`` within a relative
  1e-9 (dense pseudoinverse for latency, linear system for EPD);
* ``bounds``: ``lower <= analytic <= upper`` wherever bounds are written
  (with a relative slack of 1e-12 for the 12-digit printing);
* ``mc_z``: Monte-Carlo agrees with analytic at ``|z| <= 4`` where
  ``z = |mc_mean - analytic| / (mc_ci / 1.96)``;
* ``exit``: a command that exits nonzero fails once for each of its rows;
* ``digest``: every pass of a run writes byte-identical CSVs.

A failure is put down to a known program defect only when the tally holds a
``workloads.KnownDefect`` for its step and check kind and the row matches
it; every other failure is unexpected.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
from collections import Counter
from dataclasses import dataclass, field

ANALYTIC_COLUMNS = 5  # family, params, analytic, lower, upper

ORACLE_RTOL = 1e-9
BOUNDS_RTOL = 1e-12
Z_MAX = 4.0
Z95 = 1.96


@functools.cache
def header() -> list[str]:
    """Column names of every oppwalk CSV, as the CLI defines them."""
    from oppwalk.cli import CSV_HEADER
    return CSV_HEADER.split(",")


def _num(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:  # "" or "skipped"
        return None


def parse(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header():
        raise ValueError(f"unexpected CSV header {rows[:1]!r}")
    return rows[1:]


def analytic_digest(rows: list[list[str]]) -> str:
    """sha256 of the analytic columns, which must stay byte-identical
    across commits."""
    text = "\n".join(",".join(r[:ANALYTIC_COLUMNS]) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def row_checks(row: list[str]) -> list[tuple[str, bool, str]]:
    """(kind, passed, detail) for each cross-check the row carries."""
    out = []
    cells = dict(zip(header(), row))
    a = _num(cells["analytic"])
    if a is None:
        return [("analytic", False, f"no analytic value in {row}")]
    o = _num(cells["oracle"])
    if o is not None:
        ok = abs(o - a) <= ORACLE_RTOL * max(abs(a), 1.0)
        out.append(("oracle", ok, f"oracle {o} vs analytic {a}"))
    lo, hi = _num(cells["lower"]), _num(cells["upper"])
    if lo is not None and hi is not None:
        slack = BOUNDS_RTOL * abs(a)
        ok = lo - slack <= a <= hi + slack
        out.append(("bounds", ok, f"{lo} <= {a} <= {hi}"))
    mc, ci = _num(cells["mc_mean"]), _num(cells["mc_ci"])
    if mc is not None and ci is not None:
        z = abs(mc - a) / (ci / Z95) if ci > 0 else (0.0 if mc == a else float("inf"))
        out.append(("mc_z", z <= Z_MAX, f"z={z:.3g} (mc {mc} vs analytic {a})"))
    return out


@dataclass
class Tally:
    """Checks attempted and failed, split by step and kind."""

    known: dict = field(default_factory=dict)  # (label, kind) -> KnownDefect
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    known_rows: Counter = field(default_factory=Counter)    # rows a defect covers
    known_failed: Counter = field(default_factory=Counter)  # failures it explains
    examples: dict = field(default_factory=dict)

    def add(self, label: str, kind: str, ok: bool, detail: str = "",
            count: int = 1) -> None:
        self.attempted[label, kind] += count
        if not ok:
            self.failed[label, kind] += count
            self.examples.setdefault((label, kind), detail)

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def unexpected(self) -> dict:
        return {k: v - self.known_failed[k] for k, v in self.failed.items()
                if v > self.known_failed[k]}

    def check_csv(self, label: str, text: str) -> list[list[str]]:
        rows = parse(text)
        for row in rows:
            cells = dict(zip(header(), row))
            for kind, ok, detail in row_checks(row):
                self.add(label, kind, ok, detail)
                defect = self.known.get((label, kind))
                if defect is None or cells["params"] not in defect.params:
                    continue
                self.known_rows[label, kind] += 1
                if not ok and defect.sign(cells):
                    self.known_failed[label, kind] += 1
        return rows
