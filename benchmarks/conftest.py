"""Shared benchmark utilities.

Every ``bench_eXX`` module regenerates one experiment (README.md's
"Benchmarks" section): it measures the claim, prints the table, writes
it to ``benchmarks/results/<id>.txt``, and asserts the claim's *shape*
loosely so regressions fail loudly.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_table(experiment_id: str, title: str, lines: list[str]) -> str:
    """Print and persist an experiment table; returns the rendered text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    header = f"== {experiment_id}: {title} =="
    text = "\n".join([header, *lines]) + "\n"
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text)
    print("\n" + text)
    return text


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) vs log(x) — the scaling-law check."""
    import numpy as np

    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())
