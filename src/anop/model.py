"""Finitely presented operator spectra and the norm-attainment classifier.

A :class:`SpectrumModel` describes the spectrum of a bounded operator on a
separable Hilbert space by a finite list of eigenvalue entries plus a finite
list of accumulation clusters, in the normal form it builds for itself.
The classifier decides membership in the
class of absolutely norm-attaining operators: the restriction of the
operator to every nonzero closed subspace attains its norm.  For positive
(and, via the modulus reduction, self-adjoint and normal) operators this is
equivalent to four checkable spectral conditions:

1. every subset of the modulus spectrum has an attained supremum,
2. at most one limit point, approached from above,
3. at most one eigenvalue of infinite multiplicity,
4. a limit point and an infinite-multiplicity value must coincide.

Violations are reported with one code per failed condition.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import MalformedModelError
from .sequences import (
    DecaySequence, MATERIALIZE_DEPTH, MERGE_TOL, close_groups, merge_sequences, separated)

INF = math.inf

POSITIVE = "positive"
SELF_ADJOINT = "selfadjoint"
NORMAL = "normal"
KINDS = (POSITIVE, SELF_ADJOINT, NORMAL)

ABOVE = "above"
BELOW = "below"

NEGATIVE_VALUE = "NEGATIVE_VALUE"
MULTIPLE_LIMIT_POINTS = "MULTIPLE_LIMIT_POINTS"
LIMIT_FROM_BELOW = "LIMIT_FROM_BELOW"
MULTIPLE_INFINITE_MULTIPLICITIES = "MULTIPLE_INFINITE_MULTIPLICITIES"
LIMIT_NEQ_INFINITE_MULT = "LIMIT_NEQ_INFINITE_MULT"

#: Canonical report order for violation codes.
VIOLATION_ORDER = (
    NEGATIVE_VALUE,
    MULTIPLE_LIMIT_POINTS,
    LIMIT_FROM_BELOW,
    MULTIPLE_INFINITE_MULTIPLICITIES,
    LIMIT_NEQ_INFINITE_MULT,
)

_REAL_KINDS = (POSITIVE, SELF_ADJOINT)
_IMAG_SLACK = 1e-15


def _as_value(value, kind: str) -> complex:
    v = complex(value)
    if kind in _REAL_KINDS:
        if abs(v.imag) > _IMAG_SLACK * max(1.0, abs(v.real)):
            raise MalformedModelError(
                f"kind {kind!r} requires real spectral values, got {v}")
        v = complex(v.real, 0.0)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise MalformedModelError(f"spectral value {v} is not finite")
    if math.isinf(math.hypot(v.real, v.imag)):
        raise MalformedModelError(f"the modulus of spectral value {v} overflows a float")
    return v


def _as_mult(mult):
    if mult == INF:
        return INF
    if isinstance(mult, bool) or not isinstance(mult, int):
        raise MalformedModelError(f"multiplicity {mult!r} must be a positive integer or inf")
    if mult < 1:
        raise MalformedModelError(f"multiplicity {mult} must be >= 1")
    return int(mult)  # a plain int, as a sum of multiplicities is


@record(frozen=True)
class EigenvalueEntry:
    """One eigenvalue with its multiplicity (a positive integer or ``inf``)."""

    value: complex
    mult: float  # int >= 1 or math.inf

    def is_infinite(self) -> bool:
        return self.mult == INF


@record(frozen=True)
class Cluster:
    """An accumulation of eigenvalues ``limit + delta_n`` (above) or
    ``limit - delta_n`` (below), deltas strictly decreasing to zero."""

    limit: complex
    side: str
    deltas: DecaySequence

    def members(self, depth: int) -> tuple[complex, ...]:
        sign = 1.0 if self.side == ABOVE else -1.0
        return tuple(self.limit + sign * d for d in self.deltas.terms(depth))


# ---------------------------------------------------------------------------
# normalization


def _validate_cluster(cl: Cluster, kind: str) -> Cluster:
    limit = _as_value(cl.limit, kind)
    if cl.side not in (ABOVE, BELOW):
        raise MalformedModelError(f"cluster side {cl.side!r} must be above/below")
    if not isinstance(cl.deltas, DecaySequence):
        raise MalformedModelError("cluster deltas must be a DecaySequence")
    # Members may touch zero but not cross it: crossing would break the
    # monotone modulus picture every downstream map relies on.
    r = limit.real
    head = cl.deltas.head
    if (r < 0 if cl.side == ABOVE else r > 0) and head > abs(r) + MERGE_TOL:
        raise MalformedModelError(
            f"{cl.side}-side deltas (head {head}) overshoot the limit {limit}")
    return Cluster(limit, cl.side, cl.deltas)


@record(frozen=True)
class SpectrumModel:
    """A spectrum in normal form, which it builds for itself: validated,
    terminating clusters (finitely many eigenvalues) expanded into points,
    points and same-side clusters merged by :func:`close_groups`, and both
    sorted.  Every cluster marks a genuine limit point, and a model rebuilt
    from its own fields is equal to it.  Input in that form is kept as given:
    :func:`~anop.sequences.separated` points or limits skip a merge that would
    return each alone and in order, and a cluster alone in its group keeps its
    validated object, which checking again at its own limit returns equal."""

    kind: str
    points: tuple[EigenvalueEntry, ...] = ()
    clusters: tuple[Cluster, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MalformedModelError(f"unknown model kind {self.kind!r}")

        point_items = [(_as_value(p.value, self.kind), _as_mult(p.mult))
                       for p in self.points]

        survivors = []
        for cl in self.clusters:
            cl = _validate_cluster(cl, self.kind)
            if cl.deltas.terminating:
                point_items += [(m, 1) for m in cl.members(len(cl.deltas.terms_))]
            else:
                survivors.append(cl)

        if separated(v for v, _ in point_items):
            merged_points = tuple(EigenvalueEntry(v, m) for v, m in point_items)
        else:  # each group of one value keeps its smallest and sums multiplicities
            merged_points = tuple(
                EigenvalueEntry(g[0][0], sum(m for _, m in g))
                for g in close_groups(point_items, key=lambda it: it[0]))

        # merge each group's clusters one side at a time: groups come out in
        # (real, imag) order of their least limit, and "above" sorts first;
        # a cluster alone in its group stays as validated
        if separated(cl.limit for cl in survivors):
            merged_clusters = survivors
        else:
            merged_clusters = []
            for group in close_groups(survivors, key=lambda cl: cl.limit):
                if len(group) == 1:
                    merged_clusters += group
                    continue
                for side in (ABOVE, BELOW):
                    same = [cl.deltas for cl in group if cl.side == side]
                    if same:
                        deltas = same[0] if len(same) == 1 else merge_sequences(same)
                        # checked again where it now sits: at its group's least limit
                        merged_clusters.append(_validate_cluster(
                            Cluster(group[0].limit, side, deltas), self.kind))

        object.__setattr__(self, "points", merged_points)
        object.__setattr__(self, "clusters", tuple(merged_clusters))


@record(frozen=True)
class ANVerdict:
    """Classifier output: membership flag, violation codes, and the positive
    modulus spectrum the decision was made on."""

    is_an: bool
    violations: tuple[str, ...]
    modulus_collapsed: SpectrumModel


@record(frozen=True)
class ModuliReport:
    operator_norm: float
    min_modulus: float
    essential_min_modulus: float
    norm_attained: bool
    finite_dim: bool


def normalize_model(model: SpectrumModel) -> SpectrumModel:
    """The model itself: every :class:`SpectrumModel` is normalized when
    built.  The name stays for the benchmark workloads and tracer."""
    return model


# ---------------------------------------------------------------------------
# structural queries


def is_finite_dimensional(model: SpectrumModel) -> bool:
    """Whether the model spans a finite-dimensional space: no cluster, and
    multiplicities summed exactly (an int, or ``inf``) stay finite."""
    return not model.clusters and sum(p.mult for p in model.points) < INF


# ---------------------------------------------------------------------------
# modulus reduction


def descending_prefix(values) -> tuple[float, ...]:
    """Longest strictly decreasing, strictly positive prefix.

    Materialized images of monotone maps can flatten at the floating-point
    resolution floor; the prefix cut keeps explicit sequences valid.
    """
    out = []
    prev = INF
    for v in values:
        if v <= 0.0 or v >= prev:
            break
        out.append(v)
        prev = v
    return tuple(out)


def mapped_cluster(cl: Cluster, fn) -> Cluster:
    """Explicit re-presentation of the image of ``cl`` under ``fn``.

    For maps that move members monotonically but not by a fixed shift: the
    first ``MATERIALIZE_DEPTH`` members are mapped, their offsets are taken
    from the image of the limit, the side is read off the first offset, and
    the longest strictly decreasing prefix of the offset sizes is stored as
    an explicit sequence, non-terminating as every cluster of a built model
    is.  An image too large for a float, or with every offset below float
    resolution (an essential value lost), is MALFORMED.
    """
    sign = 1.0 if cl.side == ABOVE else -1.0
    try:
        base = fn(cl.limit)
        diffs = [fn(cl.limit + sign * d) - base for d in cl.deltas.terms(MATERIALIZE_DEPTH)]
    except OverflowError:
        raise MalformedModelError(
            f"image of the cluster at {cl.limit} overflows a float") from None
    mags = descending_prefix(abs(d) for d in diffs)
    if not mags:
        raise MalformedModelError(
            f"image of the cluster at {cl.limit} is below float resolution")
    return Cluster(complex(base, 0.0), ABOVE if diffs[0] > 0 else BELOW,
                   DecaySequence.explicit(mags, terminating=False))


def _modulus_cluster(cl: Cluster) -> Cluster:
    limit = cl.limit
    if limit.imag != 0.0:
        return mapped_cluster(cl, abs)
    r = limit.real
    if r > 0.0:
        side = cl.side
    elif r < 0.0:
        side = BELOW if cl.side == ABOVE else ABOVE
    else:
        side = ABOVE
    return Cluster(complex(abs(limit), 0.0), side, cl.deltas)


def _modulus_model(model: SpectrumModel) -> SpectrumModel:
    points = [EigenvalueEntry(complex(abs(p.value), 0.0), p.mult) for p in model.points]
    clusters = tuple(_modulus_cluster(cl) for cl in model.clusters)
    return SpectrumModel(POSITIVE, tuple(points), clusters)


def modulus_spectrum(model: SpectrumModel) -> SpectrumModel:
    """Positive model of ``|T|``: values replaced by moduli and merged.

    A positive model whose values and cluster limits are all ``> 0`` or
    ``+0.0`` (a cluster at zero from above) is returned itself: each modulus
    and side is then unchanged, and a model rebuilt from its own fields is
    equal to it, ``repr`` for ``repr``.  Any other builds it once and keeps
    it outside its fields, so equality, hashing, ``repr`` and payloads do not
    see it, and :func:`classify`, :func:`moduli_report`, the decompositions
    and the oracle share one build.  A refused model is refused again on
    every call.
    """
    mod = model.__dict__.get("_modulus")
    if mod is None:
        if model.kind == POSITIVE and all(
                math.copysign(1.0, p.value.real) > 0.0 for p in model.points) and all(
                math.copysign(1.0, cl.limit.real) > 0.0
                and (cl.limit.real > 0.0 or cl.side == ABOVE) for cl in model.clusters):
            return model
        mod = _modulus_model(model)
        object.__setattr__(model, "_modulus", mod)
    return mod


# ---------------------------------------------------------------------------
# classification


def _declared_positive_negative(n: SpectrumModel) -> bool:
    if n.kind != POSITIVE:
        return False
    for p in n.points:
        if p.value.real < -MERGE_TOL:
            return True
    for cl in n.clusters:
        if cl.limit.real < -MERGE_TOL:
            return True
        if cl.side == BELOW and cl.limit.real <= MERGE_TOL:
            return True  # members below zero
    return False


def classify(model: SpectrumModel) -> ANVerdict:
    """Decide AN membership; violations listed in canonical order.

    Finite-total-multiplicity models are AN outright (every subspace of a
    finite-dimensional space attains), except that a declared-positive model
    showing negative values breaks its kind contract regardless of size.
    Cluster limits and infinite-multiplicity values joined by a chain of
    steps within ``MERGE_TOL`` are one essential value.
    """
    mod = modulus_spectrum(model)
    found = set()

    if _declared_positive_negative(model):
        found.add(NEGATIVE_VALUE)

    if not is_finite_dimensional(mod):
        # essential values: cluster limits (True) and infinite multiplicities
        inf_values = [p.value.real for p in mod.points if p.is_infinite()]
        groups = close_groups([(cl.limit.real, True) for cl in mod.clusters]
                              + [(v, False) for v in inf_values], key=lambda e: e[0])
        if sum(any(is_limit for _, is_limit in g) for g in groups) > 1:
            found.add(MULTIPLE_LIMIT_POINTS)
        if any(cl.side == BELOW for cl in mod.clusters):
            found.add(LIMIT_FROM_BELOW)
        if len(inf_values) > 1:
            found.add(MULTIPLE_INFINITE_MULTIPLICITIES)
        if mod.clusters and inf_values and len(groups) > 1:
            found.add(LIMIT_NEQ_INFINITE_MULT)

    violations = tuple(c for c in VIOLATION_ORDER if c in found)
    return ANVerdict(not violations, violations, mod)


# ---------------------------------------------------------------------------
# moduli report


def moduli_report(model: SpectrumModel) -> ModuliReport:
    """Operator norm, minimum modulus, and essential minimum modulus.

    The essential part consists of cluster limits and infinite-multiplicity
    values; for finite-dimensional models it is empty and the report falls
    back to ``min_modulus`` with the ``finite_dim`` flag set.
    """
    mod = modulus_spectrum(model)

    attained = [p.value.real for p in mod.points]
    unattained_sups = []
    lower_candidates = list(attained)
    for cl in mod.clusters:
        limit = cl.limit.real
        if cl.side == ABOVE:
            attained.append(limit + cl.deltas.head)
            lower_candidates.append(limit)  # infimum of the tail
        else:
            unattained_sups.append(limit)
            lower_candidates.append(limit - cl.deltas.head)

    if not attained and not unattained_sups:
        return ModuliReport(0.0, 0.0, 0.0, True, True)

    norm = max(attained + unattained_sups)
    norm_attained = bool(attained) and max(attained) >= norm - MERGE_TOL
    min_modulus = min(lower_candidates)

    essential = [cl.limit.real for cl in mod.clusters]
    essential += [p.value.real for p in mod.points if p.is_infinite()]
    if essential:
        return ModuliReport(norm, min_modulus, min(essential), norm_attained, False)
    return ModuliReport(norm, min_modulus, min_modulus, norm_attained, True)
