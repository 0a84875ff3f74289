"""Benchmark workloads: the oppwalk CLI commands each pass runs.

A workload is a list of steps ``(label, argv)``.  The argv lists are built
from the workload seed alone, so the same seed always gives the same
commands; the program sees nothing but these argv lists.  Sizes are scaled
down from the README and ROADMAP commands so that one pass takes one to
two seconds on a 2-core machine, so that a run of 40 s takes its medians
over 18 to 35 passes.  ``tiny=True`` shrinks them further for the
self-test.

Each workload puts most of its time into different layers, so that an
optimisation of one layer moves one workload and leaves another alone:

* ``lattice-oracle``: the README figure commands for cycles and tori
  (fig4-fig8) plus ``bounds-check``.  The CLI computes the dense
  pseudoinverse oracle for every graph under the node cap, so dense graph
  construction and the SVD dominate; the 1000x1000 fig6 torus exercises the
  closed-form spectra (and peak memory).  No walker, no wireless layer.
* ``wireless-ensemble``: the fig10-fig12 ensemble sweeps at n=100 without
  Monte-Carlo or oracle: placement, thresholding and the connectivity BFS on
  every resampled placement, then spectral hitting times.  No walker, no
  pseudoinverse.
* ``walk-mc``: the ROADMAP Monte-Carlo baselines, ``walk-validate`` (a few
  wide walker batches) and an ``epd-eta-sweep`` with ``--trials`` (54
  narrow batches), plus a small ``cycle-sweep`` with ``--trials``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

WORKLOADS = ("lattice-oracle", "wireless-ensemble", "walk-mc")


@dataclass(frozen=True)
class KnownDefect:
    """Check failures caused by a documented program defect.

    Only a failure on one of ``params`` rows that matches ``sign`` is put
    down to the defect; any other failure of the same check is unexpected.
    """

    why: str
    params: frozenset[str]
    sign: Callable[[dict[str, str]], bool]


# Checks that fail at this commit because of a documented program defect.
# They still count as failed checks in check_fail_frac; they do not make the
# run incorrect.  Key: (workload, step label, check kind).
KNOWN_DEFECTS = {
    ("walk-mc", "cycle-sweep-mc", "mc_z"): KnownDefect(
        why="cycle-sweep with --trials writes the mean latency T (resistance "
            "units) as analytic beside the Monte-Carlo mean in hops",
        params=frozenset(f"n={n};r=1" for n in (16, 32, 48, 64)),
        # Hops exceed T many times over (about 700 hops beside T=10.83
        # at n=64).
        sign=lambda row: float(row["mc_mean"]) > 4 * float(row["analytic"]),
    ),
}


def _lattice(tiny: bool) -> list[tuple[str, list[str]]]:
    if tiny:
        return [
            ("fig4", ["cycle-sweep", "--n", "40", "--r", "1:3"]),
            ("fig6", ["torus-sweep", "--dims", "100x100", "--r", "1:2"]),
            ("fig7", ["torus-sweep", "--dims", "10:20:10x8", "--r", "1"]),
            ("bounds-check", ["bounds-check", "--n", "10:30:10", "--r", "2"]),
        ]
    return [
        ("fig4", ["cycle-sweep", "--n", "150", "--r", "1:10"]),
        ("fig5", ["cycle-sweep", "--n", "10:200:10", "--r", "1"]),
        ("fig6", ["torus-sweep", "--dims", "1000x1000", "--r", "1:5"]),
        ("fig7", ["torus-sweep", "--dims", "10:80:10x8", "--r", "1"]),
        ("fig8", ["dimension-sweep", "--dims", "16,18,20,22", "--r", "1:4"]),
        ("bounds-check", ["bounds-check", "--n", "10:100:10", "--r", "2"]),
    ]


def _wireless(tiny: bool) -> list[tuple[str, list[str]]]:
    size = ["--n", "30", "--seeds", "2"] if tiny else ["--n", "100", "--seeds", "6"]
    return [
        ("fig10", ["epd-eta-sweep", "--etas", "2:6:0.5", *size]),
        ("fig11", ["epd-pmin-sweep", "--pmins", "0.05:0.3:0.05",
                   "--etas", "2,4", *size]),
        # The README sweeps tau up to 0.7.  At n=100, eta=4 many placements
        # are disconnected at tau=0.7, so the number of graphs built on
        # redrawn placements varied by 27% (quartile spread over 20 workload
        # seeds, 10 ensemble seeds); with tau up to 0.6 it varies by 9%.
        # With 6 ensemble seeds, the connectivity checks of each step vary
        # by 6-8% over 12 workload seeds.
        ("fig12", ["epd-threshold-sweep", "--taus", "0.1:0.6:0.1",
                   "--etas", "2,4", *size]),
    ]


def _walk_mc(tiny: bool) -> list[tuple[str, list[str]]]:
    if tiny:
        return [
            ("walk-validate", ["walk-validate", "--graphs",
                               "cycle:16:1,torus:4x4:1,wireless:0",
                               "--trials", "2000", "--oracle"]),
            ("eta-mc", ["epd-eta-sweep", "--etas", "2,4", "--seeds", "2",
                        "--trials", "200"]),
            ("cycle-sweep-mc", ["cycle-sweep", "--n", "16", "--r", "1",
                                "--trials", "200"]),
        ]
    return [
        ("walk-validate", ["walk-validate", "--graphs",
                           "cycle:64:1,torus:16x16:1,wireless:0",
                           "--trials", "3000", "--oracle"]),
        ("eta-mc", ["epd-eta-sweep", "--seeds", "6", "--trials", "100"]),
        # Kept although its rows fail the MC check at this commit: see
        # KNOWN_DEFECTS.  Fixing the units lowers check_fail_frac.
        ("cycle-sweep-mc", ["cycle-sweep", "--n", "16:64:16", "--r", "1",
                            "--trials", "2000"]),
    ]


_STEP_LISTS = {
    "lattice-oracle": _lattice,
    "wireless-ensemble": _wireless,
    "walk-mc": _walk_mc,
}


def steps(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, list[str]]]:
    """The (label, argv) steps of one pass; every command gets ``--seed``.

    The seed drives wireless placements and Monte-Carlo streams; the cycle
    and torus commands of ``lattice-oracle`` are deterministic and ignore it.
    The step order is fixed because peak memory depends on it.
    """
    return [(label, [*argv, "--seed", str(seed)])
            for label, argv in _STEP_LISTS[workload](tiny)]


def all_labels() -> list[str]:
    """Step labels of every workload; each has a cli.<label>_s metric."""
    return sorted(label for make in _STEP_LISTS.values() for label, _ in make(False))
