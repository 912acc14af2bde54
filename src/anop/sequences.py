"""Strictly decreasing positive delta sequences used by spectral clusters.

A cluster presents eigenvalues ``limit +/- delta_n``. The deltas come from
one of three generators:

* ``explicit``  -- a finite list of terms.  By default an explicit sequence
  terminates: it stands for exactly ``len(terms)`` eigenvalues and nothing
  more.  Images of infinite clusters under nonlinear maps (Gram, squaring)
  are materialized as explicit terms but keep ``terminating=False`` so the
  cluster still marks a genuine limit point.
* ``geometric`` -- ``first * ratio**n`` with ``first > 0``, ``0 < ratio < 1``.
* ``harmonic``  -- ``scale / (n + 1)`` with ``scale > 0``.

All generators yield strictly positive, strictly decreasing terms converging
to zero; violations raise :class:`~anop.errors.MalformedModelError`.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import MalformedModelError

EXPLICIT = "explicit"
GEOMETRIC = "geometric"
HARMONIC = "harmonic"

#: Depth at which symbolic sequences are expanded when a map has no closed
#: form on the generator parameters (cluster images under squaring, Gram,
#: modulus of genuinely complex limits, cluster merges).
MATERIALIZE_DEPTH = 64

#: Absolute tolerance at which two presented spectral values are the same:
#: values joined by a chain of steps, each at most this far, are one value.
MERGE_TOL = 1e-9


def close_groups(items, tol: float = MERGE_TOL, key=None) -> list[list]:
    """Group items whose values (``key(item)``, real or complex) are joined
    by a chain of steps each at most ``tol`` apart (single linkage).

    Groups, and the members of each group, come out in ``(real, imag)``
    order of their values; ties keep input order.  When every value is
    real, the groups are the runs of sorted neighbours at most ``tol``
    apart, found in one pass after the sort.  Otherwise, after sorting by
    real part, each scan stops once the real gap exceeds ``tol``, which
    finds the same groups as comparing every pair but is still quadratic
    on a chain of complex values within ``tol`` in real part.
    """
    keyed = [(complex(key(it) if key else it), it) for it in items]
    if all(v.imag == 0.0 for v, _ in keyed):
        keyed.sort(key=lambda p: p[0].real)
        runs: list[list] = []
        prev = 0.0
        for v, it in keyed:
            if runs and v.real - prev <= tol:
                runs[-1].append(it)
            else:
                runs.append([it])
            prev = v.real
        return runs

    keyed.sort(key=lambda p: (p[0].real, p[0].imag))
    parent = list(range(len(keyed)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, (va, _) in enumerate(keyed):
        for b in range(a + 1, len(keyed)):
            vb = keyed[b][0]
            if vb.real - va.real > tol:
                break
            if abs(vb - va) <= tol:
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list] = {}
    for a, (_, it) in enumerate(keyed):
        groups.setdefault(find(a), []).append(it)
    return list(groups.values())


@record(frozen=True)
class DecaySequence:
    """One of the three delta generators above, plus a termination flag."""

    kind: str
    terms_: tuple[float, ...] = ()
    first: float = 0.0
    ratio: float = 0.0
    scale: float = 0.0
    terminating: bool = True

    def __post_init__(self):
        if self.kind == EXPLICIT:
            if not self.terms_:
                raise MalformedModelError("explicit delta sequence needs at least one term")
            prev = math.inf
            for t in self.terms_:
                if not (isinstance(t, (int, float)) and math.isfinite(t)):
                    raise MalformedModelError(f"delta term {t!r} is not a finite number")
                if t <= 0.0:
                    raise MalformedModelError(f"delta term {t} is not strictly positive")
                if t >= prev:
                    raise MalformedModelError("delta terms must be strictly decreasing")
                prev = t
        elif self.kind == GEOMETRIC:
            if not (math.isfinite(self.first) and self.first > 0.0):
                raise MalformedModelError(f"geometric first term {self.first} must be > 0")
            if not (0.0 < self.ratio < 1.0):
                raise MalformedModelError(f"geometric ratio {self.ratio} must lie in (0, 1)")
            object.__setattr__(self, "terminating", False)
        elif self.kind == HARMONIC:
            if not (math.isfinite(self.scale) and self.scale > 0.0):
                raise MalformedModelError(f"harmonic scale {self.scale} must be > 0")
            object.__setattr__(self, "terminating", False)
        else:
            raise MalformedModelError(f"unknown delta sequence kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def explicit(terms, terminating: bool = True) -> "DecaySequence":
        return DecaySequence(kind=EXPLICIT, terms_=tuple(float(t) for t in terms),
                             terminating=terminating)

    @staticmethod
    def geometric(first: float, ratio: float) -> "DecaySequence":
        return DecaySequence(kind=GEOMETRIC, first=float(first), ratio=float(ratio),
                             terminating=False)

    @staticmethod
    def harmonic(scale: float) -> "DecaySequence":
        return DecaySequence(kind=HARMONIC, scale=float(scale), terminating=False)

    # -- evaluation --------------------------------------------------------

    def terms(self, n: int) -> tuple[float, ...]:
        """First ``min(n, available)`` terms, largest first."""
        if n <= 0:
            return ()
        if self.kind == EXPLICIT:
            return self.terms_[:n]
        if self.kind == GEOMETRIC:
            out = []
            t = self.first
            for _ in range(n):
                out.append(t)
                t *= self.ratio
            return tuple(out)
        return tuple(self.scale / (k + 1) for k in range(n))

    @property
    def head(self) -> float:
        """Largest delta."""
        return self.terms(1)[0]


def merge_sequences(seqs) -> DecaySequence:
    """Interleave several delta sequences into one explicit sequence.

    Used when two clusters land on the same (limit, side) after a modulus or
    Gram map.  Coincident terms (see :func:`close_groups`) are kept once, as
    their largest; the merge is non-terminating when any source is.
    """
    pool = [t for s in seqs for t in s.terms(MATERIALIZE_DEPTH)]
    merged = [g[-1] for g in reversed(close_groups(pool))]
    terminating = all(s.terminating for s in seqs)
    return DecaySequence.explicit(merged[:MATERIALIZE_DEPTH], terminating=terminating)
