"""Shared fixtures and comparison helpers."""

from dataclasses import dataclass
from pathlib import Path

import pytest

from anop.model import EigenvalueEntry, SpectrumModel, POSITIVE

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"

#: depth at which cluster deltas are compared term by term
CMP_DEPTH = 12


@pytest.fixture
def specs_dir():
    return SPECS


@pytest.fixture
def golden_dir():
    return GOLDEN


def positive_points(*pairs):
    """Quick positive model from (value, mult) pairs."""
    return SpectrumModel(POSITIVE, tuple(
        EigenvalueEntry(complex(v, 0.0), m) for v, m in pairs))


def same_model(a, b, tol=1e-12, depth=CMP_DEPTH):
    """Value-level equality of two normalized models."""
    if a.kind != b.kind:
        return False
    if len(a.points) != len(b.points) or len(a.clusters) != len(b.clusters):
        return False
    for p, q in zip(a.points, b.points):
        if p.mult != q.mult or abs(p.value - q.value) > tol:
            return False
    for ca, cb in zip(a.clusters, b.clusters):
        if ca.side != cb.side or abs(ca.limit - cb.limit) > tol:
            return False
        ta, tb = ca.deltas.terms(depth), cb.deltas.terms(depth)
        if len(ta) != len(tb):
            return False
        if any(abs(x - y) > tol for x, y in zip(ta, tb)):
            return False
    return True


def same_triple(a, b, tol=1e-12, depth=CMP_DEPTH):
    """Entrywise equality of two positive triples; relative on large values."""
    if abs(a.alpha - b.alpha) > tol * max(1.0, abs(a.alpha)):
        return False
    if a.identity_multiplicity != b.identity_multiplicity:
        return False
    if len(a.f_entries) != len(b.f_entries):
        return False
    for x, y in zip(a.f_entries, b.f_entries):
        if x.mult != y.mult:
            return False
        if abs(x.value - y.value) > tol * max(1.0, abs(x.value)):
            return False
    ka, kb = a.k_entries, b.k_entries
    if len(ka.points) != len(kb.points) or len(ka.clusters) != len(kb.clusters):
        return False
    for x, y in zip(ka.points, kb.points):
        if x.mult != y.mult:
            return False
        if abs(x.value - y.value) > tol * max(1.0, abs(x.value)):
            return False
    for ca, cb in zip(ka.clusters, kb.clusters):
        ta, tb = ca.deltas.terms(depth), cb.deltas.terms(depth)
        if len(ta) != len(tb):
            return False
        if any(abs(x - y) > tol * max(1.0, abs(x)) for x, y in zip(ta, tb)):
            return False
    return True


# ---------------------------------------------------------------------------
# finite-rank perturbation lab check: numpy's LAPACK as lab equipment, which
# the library itself never calls


@dataclass(frozen=True)
class PerturbationReport:
    """Eigenvalue counting comparison for a finite-rank perturbation."""

    within_bound: bool
    max_count_gap: int
    rank_detected: int
    grid_lo: float
    grid_hi: float


def rank_perturbation_check(base, perturbed, rank_bound: int) -> PerturbationReport:
    """Check the Weyl-type stability of eigenvalue counts.

    For Hermitian A and B with rank(A - B) <= r, the counting functions
    N_A(x) and N_B(x) can differ by at most r at every x.  The comparison
    runs on a uniform grid over [min - 1, max + 1] of the joint spectrum.
    """
    import numpy as np
    a = np.asarray(base, dtype=np.complex128)
    b = np.asarray(perturbed, dtype=np.complex128)
    va = np.linalg.eigvalsh(a)
    vb = np.linalg.eigvalsh(b)
    lo = float(min(va[0], vb[0])) - 1.0
    hi = float(max(va[-1], vb[-1])) + 1.0
    xs = np.linspace(lo, hi, 257)
    na = np.searchsorted(va, xs, side="right")
    nb = np.searchsorted(vb, xs, side="right")
    gap = int(np.max(np.abs(na - nb)))
    diff_eigs = np.linalg.eigvalsh(a - b)
    scale = max(float(np.max(np.abs(diff_eigs))), 1.0)
    rank = int(np.count_nonzero(np.abs(diff_eigs) > 1e-9 * scale))
    return PerturbationReport(gap <= rank_bound, gap, rank, lo, hi)
