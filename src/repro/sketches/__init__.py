"""Streaming sketch substrates.

Everything the paper's samplers lean on is implemented here from scratch:

* :mod:`repro.sketches.hashing` — k-wise independent hash families over a
  Mersenne-prime field (substitute for the paper's random oracle /
  Nisan-PRG derandomization).
* :mod:`repro.sketches.misra_gries` — the deterministic heavy-hitter
  summary (Theorem 3.2, [MG82]) supplying the ``Z ≥ ‖f‖∞`` normalizer of
  Theorem 3.4.
* :mod:`repro.sketches.countsketch` / :mod:`repro.sketches.count_min` —
  randomized frequency estimators used by the precision-sampling baseline.
* :mod:`repro.sketches.ams` — the AMS F2 sketch.
* :mod:`repro.sketches.lp_norm` — insertion-only ``(1±ε)`` Fp estimation.
* :mod:`repro.sketches.smooth_histogram` — the Braverman–Ostrovsky smooth
  histogram framework (Definitions A.1–A.3, Theorems A.4/A.5), the
  normalizer Algorithm 6 states (the count-window Lp sampler certifies
  its ζ from exact suffix counts instead).
* :mod:`repro.sketches.sparse_recovery` — deterministic k-sparse recovery
  and the sparsity tester (Theorems D.1, D.2) for strict turnstile F0.
"""

from repro.sketches.hashing import KWiseHash, PairwiseHash, random_oracle_hash
from repro.sketches.misra_gries import MisraGries
from repro.sketches.count_min import CountMin
from repro.sketches.countsketch import CountSketch
from repro.sketches.ams import AmsF2
from repro.sketches.lp_norm import FpEstimator, exact_fp
from repro.sketches.smooth_histogram import (
    SmoothHistogram,
    SlidingWindowFpEstimate,
    SlidingWindowCountEstimate,
    fp_smoothness,
)
from repro.sketches.sparse_recovery import SparseRecovery, SparsityTester

__all__ = [
    "KWiseHash",
    "PairwiseHash",
    "random_oracle_hash",
    "MisraGries",
    "CountMin",
    "CountSketch",
    "AmsF2",
    "FpEstimator",
    "exact_fp",
    "SmoothHistogram",
    "SlidingWindowFpEstimate",
    "SlidingWindowCountEstimate",
    "fp_smoothness",
    "SparseRecovery",
    "SparsityTester",
]
