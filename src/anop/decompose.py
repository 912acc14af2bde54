"""Canonical decompositions of absolutely norm-attaining spectra.

A positive AN operator splits uniquely as ``T = K - F + alpha*I`` with K
positive compact, F positive finite rank, ``KF = 0``, ``F <= alpha*I`` and
``alpha`` the essential minimum modulus.  :class:`PositiveTriple` is the
spectral presentation of that splitting; the operations below move triples
through squares, square roots and inverses, and extend the decomposition to
self-adjoint and normal models via ``T = K - F + alpha*V`` with V a partial
isometry carrying the eigenvalue phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AlphaZeroError,
    MalformedModelError,
    NegativeValueError,
    NotANError,
    NotInjectiveError,
    WrongKindError,
)
from .model import (
    ABOVE,
    BELOW,
    INF,
    MERGE_TOL,
    NEGATIVE_VALUE,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
    descending_prefix,
    normalize_model,
)
from .sequences import DecaySequence, MATERIALIZE_DEPTH


def _as_count(value, what: str):
    """Multiplicity that may be zero: non-negative int or inf."""
    if value == INF:
        return INF
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedModelError(f"{what} must be a non-negative integer or inf, got {value!r}")
    return value


def _merged_finite_entries(entries, upper: float | None, what: str):
    """Validate, merge and sort real finite-multiplicity entries."""
    items = []
    for e in entries:
        value = complex(e.value) if not isinstance(e, tuple) else complex(e[0])
        mult = e.mult if not isinstance(e, tuple) else e[1]
        if abs(value.imag) > 0:
            raise MalformedModelError(f"{what} values must be real")
        v = value.real
        if v <= MERGE_TOL:
            raise MalformedModelError(f"{what} value {v} must exceed the merge tolerance")
        if upper is not None and v > upper + MERGE_TOL:
            raise MalformedModelError(f"{what} value {v} exceeds the bound {upper}")
        if upper is not None:
            v = min(v, upper)
        if mult == INF or not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            if mult == INF:
                raise MalformedModelError(f"{what} multiplicities must be finite")
            raise MalformedModelError(f"{what} multiplicity {mult!r} must be a positive integer")
        items.append((v, mult))
    items.sort()
    merged: list[list] = []
    for v, m in items:
        if merged and v - merged[-1][0] <= MERGE_TOL:
            merged[-1][1] += m
        else:
            merged.append([v, m])
    return tuple(EigenvalueEntry(complex(v, 0.0), m) for v, m in merged)


@dataclass(frozen=True)
class PositiveTriple:
    """Spectral form of ``K - F + alpha*I``.

    ``k_entries`` is a positive model of K's nonzero spectrum: strictly
    positive points of finite multiplicity plus at most one non-terminating
    cluster decaying to zero.  ``f_entries`` are the finite-rank eigenvalues,
    each in ``(0, alpha]``.  ``identity_multiplicity`` counts the explicit
    directions where K = F = 0, i.e. eigenvalue exactly alpha.
    """

    alpha: float
    k_entries: SpectrumModel
    f_entries: tuple[EigenvalueEntry, ...]
    identity_multiplicity: float  # int >= 0 or inf

    def __post_init__(self):
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise MalformedModelError(f"alpha must be finite and >= 0, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

        k = normalize_model(self.k_entries)
        if k.kind != POSITIVE:
            raise MalformedModelError("k_entries must be a positive model")
        for p in k.points:
            if p.value.real <= MERGE_TOL:
                raise MalformedModelError(
                    f"compact-part eigenvalue {p.value.real} must be strictly positive")
            if p.is_infinite():
                raise MalformedModelError("compact-part multiplicities must be finite")
        if len(k.clusters) > 1:
            raise MalformedModelError("compact part admits at most one cluster")
        for cl in k.clusters:
            if abs(cl.limit) > MERGE_TOL or cl.side != ABOVE:
                raise MalformedModelError(
                    "compact-part cluster must decay to zero from above")
            if abs(cl.limit) != 0.0:
                cl = Cluster(0j, ABOVE, cl.deltas)
                k = SpectrumModel(POSITIVE, k.points, (cl,))
        object.__setattr__(self, "k_entries", k)

        f = _merged_finite_entries(self.f_entries, alpha, "finite-rank part")
        if f and alpha <= MERGE_TOL:
            raise MalformedModelError("finite-rank part requires a positive shift")
        object.__setattr__(self, "f_entries", f)

        object.__setattr__(self, "identity_multiplicity",
                           _as_count(self.identity_multiplicity, "identity multiplicity"))

    # -- queries -----------------------------------------------------------

    def k_cluster(self) -> Cluster | None:
        return self.k_entries.clusters[0] if self.k_entries.clusters else None

    def is_injective(self) -> bool:
        return self.kernel_multiplicity() == 0

    def kernel_multiplicity(self):
        if self.alpha <= MERGE_TOL:
            return self.identity_multiplicity
        total = 0
        for e in self.f_entries:
            if abs(e.value.real - self.alpha) <= MERGE_TOL:
                total += e.mult
        return total

    def is_finite_dimensional(self) -> bool:
        return not self.k_entries.clusters and self.identity_multiplicity < INF

    def as_structure(self) -> StructuredDecomposition:
        """The same operator as a structure with every phase +1 (V = I).

        Compact blocks run descending and finite-rank blocks ascending, as
        the triple lists them; the cluster accumulates at alpha and the
        identity block keeps phase +1 even when alpha is 0.
        """
        one = 1 + 0j
        blocks = [Block(one, "k", p.value.real, p.mult)
                  for p in sorted(self.k_entries.points, key=lambda p: -p.value.real)]
        blocks += [Block(one, "f", e.value.real, e.mult) for e in self.f_entries]
        if self.identity_multiplicity:
            blocks.append(Block(one, "identity", 0.0, self.identity_multiplicity))
        clusters = tuple(ClusterBlock(complex(self.alpha, 0.0), ABOVE, cl.deltas)
                         for cl in self.k_entries.clusters)
        return StructuredDecomposition(self.alpha, tuple(blocks), clusters, 0)


@dataclass(frozen=True)
class Block:
    """One spectral block of a structured decomposition: the eigenvalue is
    ``phase * (alpha + value)`` for part "k", ``phase * (alpha - value)`` for
    part "f", and ``phase * alpha`` for part "identity"."""

    phase: complex
    part: str  # "k" | "f" | "identity"
    value: float
    mult: float  # int >= 1 or inf


@dataclass(frozen=True)
class ClusterBlock:
    """A compact-part accumulation kept in original form; each member
    ``limit +/- delta`` carries its own phase ``member / |member|``."""

    limit: complex
    side: str
    deltas: DecaySequence


@dataclass(frozen=True)
class StructuredDecomposition:
    """Spectral form of ``T = K - F + alpha*V`` with ``K = V*K1`` and
    ``F = V*F1`` where ``|T| = K1 - F1 + alpha*I``; V vanishes exactly on
    the kernel."""

    alpha: float
    blocks: tuple[Block, ...]
    cluster_blocks: tuple[ClusterBlock, ...]
    kernel_multiplicity: float  # int >= 0 or inf

    def eigenvalues(self, depth: int):
        """Recombined (value, mult) pairs, kernel included."""
        out = []
        for b in self.blocks:
            if b.part == "k":
                out.append((b.phase * (self.alpha + b.value), b.mult))
            elif b.part == "f":
                out.append((b.phase * (self.alpha - b.value), b.mult))
            else:
                out.append((b.phase * self.alpha, b.mult))
        for cb in self.cluster_blocks:
            sign = 1.0 if cb.side == ABOVE else -1.0
            out.extend((cb.limit + sign * d, 1) for d in cb.deltas.terms(depth))
        if self.kernel_multiplicity:
            out.append((0j, self.kernel_multiplicity))
        return out


@dataclass(frozen=True)
class AMForm:
    """Inverse presentation ``T**-1 = beta*I - K1 + F1`` with
    ``beta = 1/alpha``; entries stay support-paired with the source triple."""

    beta: float
    k1_entries: SpectrumModel
    f1_entries: tuple[EigenvalueEntry, ...]
    identity_multiplicity: float

    def eigenvalues(self, depth: int):
        out = []
        for p in self.k1_entries.points:
            out.append((self.beta - p.value.real, p.mult))
        for cl in self.k1_entries.clusters:
            out.extend((self.beta - d, 1) for d in cl.deltas.terms(depth))
        for e in self.f1_entries:
            out.append((self.beta + e.value.real, e.mult))
        if self.identity_multiplicity:
            out.append((self.beta, self.identity_multiplicity))
        return out


@dataclass(frozen=True)
class FredholmReport:
    """Operator-theoretic properties read off a triple; a positive shift
    forces closed range and Fredholm index zero."""

    kernel_dimension: float
    range_closed: bool
    is_fredholm: bool
    is_left_semi_fredholm: bool
    essential_min_modulus: float
    is_injective: bool


# ---------------------------------------------------------------------------
# positive decomposition


def _essential_level(mod: SpectrumModel) -> float:
    essential = [cl.limit.real for cl in mod.clusters]
    essential += [p.value.real for p in mod.points if p.is_infinite()]
    return min(essential) if essential else 0.0


def decompose_positive(model: SpectrumModel) -> PositiveTriple:
    """Split a positive AN model into its canonical triple."""
    n = normalize_model(model)
    if n.kind != POSITIVE:
        raise WrongKindError(f"decomposition needs a positive model, got kind {n.kind!r}")
    verdict = classify(n)
    if NEGATIVE_VALUE in verdict.violations:
        raise NegativeValueError("model declares negative spectral values")
    if not verdict.is_an:
        raise NotANError(
            "model is not absolutely norm attaining: " + ", ".join(verdict.violations))

    alpha = _essential_level(verdict.modulus_collapsed)
    k_points = []
    f_entries = []
    identity = 0
    for p in n.points:
        v = p.value.real
        if abs(v - alpha) <= MERGE_TOL:
            identity = identity + p.mult
        elif v > alpha:
            k_points.append(EigenvalueEntry(complex(v - alpha, 0.0), p.mult))
        else:
            f_entries.append(EigenvalueEntry(complex(alpha - v, 0.0), p.mult))
    k_clusters = tuple(Cluster(0j, ABOVE, cl.deltas) for cl in n.clusters)
    return PositiveTriple(
        alpha,
        SpectrumModel(POSITIVE, tuple(k_points), k_clusters),
        tuple(f_entries),
        identity,
    )


def recompose(triple: PositiveTriple) -> SpectrumModel:
    """Positive model with eigenvalues ``alpha + k``, ``alpha - f`` and
    ``alpha`` on the identity directions."""
    points = []
    for p in triple.k_entries.points:
        points.append(EigenvalueEntry(complex(triple.alpha + p.value.real, 0.0), p.mult))
    for e in triple.f_entries:
        points.append(EigenvalueEntry(complex(triple.alpha - e.value.real, 0.0), e.mult))
    if triple.identity_multiplicity:
        points.append(EigenvalueEntry(complex(triple.alpha, 0.0),
                                      triple.identity_multiplicity))
    clusters = tuple(Cluster(complex(triple.alpha, 0.0), ABOVE, cl.deltas)
                     for cl in triple.k_entries.clusters)
    return normalize_model(SpectrumModel(POSITIVE, tuple(points), clusters))


# ---------------------------------------------------------------------------
# triple maps


def _map_k_model(k: SpectrumModel, fn, depth: int) -> SpectrumModel:
    """Apply a strictly increasing map fixing zero to the compact part."""
    points = tuple(EigenvalueEntry(complex(fn(p.value.real), 0.0), p.mult)
                   for p in k.points)
    clusters = []
    for cl in k.clusters:
        mags = descending_prefix(fn(d) for d in cl.deltas.terms(depth))
        if mags:
            clusters.append(Cluster(0j, ABOVE, DecaySequence.explicit(
                mags, terminating=cl.deltas.terminating)))
    return SpectrumModel(POSITIVE, points, tuple(clusters))


def square_triple(triple: PositiveTriple,
                  depth: int = MATERIALIZE_DEPTH) -> PositiveTriple:
    """Triple of ``T**2``: ``k -> k**2 + 2*alpha*k``, ``f -> 2*alpha*f - f**2``,
    ``alpha -> alpha**2``.  Cluster deltas are re-presented explicitly since
    the square map does not preserve the symbolic generators."""
    a = triple.alpha
    k = _map_k_model(triple.k_entries, lambda x: x * x + 2.0 * a * x, depth)
    f = tuple(EigenvalueEntry(complex(2.0 * a * e.value.real - e.value.real ** 2, 0.0),
                              e.mult)
              for e in triple.f_entries)
    return PositiveTriple(a * a, k, f, triple.identity_multiplicity)


def sqrt_triple(triple: PositiveTriple,
                depth: int = MATERIALIZE_DEPTH) -> PositiveTriple:
    """Exact inverse of :func:`square_triple` on valid triples:
    ``alpha -> sqrt(alpha)``, ``k -> sqrt(alpha + k) - sqrt(alpha)``,
    ``f -> sqrt(alpha) - sqrt(alpha - f)``."""
    a = triple.alpha
    root = math.sqrt(a)
    k = _map_k_model(triple.k_entries,
                     lambda x: math.sqrt(a + x) - root, depth)
    f = tuple(EigenvalueEntry(
        complex(root - math.sqrt(max(a - e.value.real, 0.0)), 0.0), e.mult)
        for e in triple.f_entries)
    return PositiveTriple(root, k, f, triple.identity_multiplicity)


def invert_triple(triple: PositiveTriple,
                  depth: int = MATERIALIZE_DEPTH) -> AMForm:
    """AM-form inverse ``beta*I - K1 + F1``: every recombined eigenvalue is
    the exact reciprocal of its source (``beta - k1 = 1/(alpha + k)``,
    ``beta + f1 = 1/(alpha - f)``); ``norm(K1) <= beta`` holds entrywise."""
    a = triple.alpha
    if a <= MERGE_TOL:
        raise AlphaZeroError("compact operators on infinite dimensions have no bounded inverse")
    if not triple.is_injective():
        raise NotInjectiveError("finite-rank part reaches alpha: kernel is nontrivial")
    beta = 1.0 / a
    k1 = _map_k_model(triple.k_entries, lambda x: x / (a * (x + a)), depth)
    f1 = tuple(EigenvalueEntry(
        complex(e.value.real / (a * (a - e.value.real)), 0.0), e.mult)
        for e in triple.f_entries)
    return AMForm(beta, k1, f1, triple.identity_multiplicity)


# ---------------------------------------------------------------------------
# self-adjoint / normal structure


def _structure(model: SpectrumModel) -> StructuredDecomposition:
    n = normalize_model(model)
    verdict = classify(n)
    if not verdict.is_an:
        raise NotANError(
            "model is not absolutely norm attaining: " + ", ".join(verdict.violations))
    alpha = _essential_level(verdict.modulus_collapsed)

    blocks = []
    kernel = 0
    for p in n.points:
        m = abs(p.value)
        if m <= MERGE_TOL:
            kernel = kernel + p.mult
            continue
        phase = p.value / m
        if abs(m - alpha) <= MERGE_TOL:
            blocks.append(Block(phase, "identity", 0.0, p.mult))
        elif m > alpha:
            blocks.append(Block(phase, "k", m - alpha, p.mult))
        else:
            blocks.append(Block(phase, "f", alpha - m, p.mult))
    rank = {"k": 0, "f": 1, "identity": 2}
    blocks.sort(key=lambda b: (rank[b.part], -b.value, b.phase.real, b.phase.imag))
    cluster_blocks = tuple(ClusterBlock(cl.limit, cl.side, cl.deltas)
                           for cl in n.clusters)
    return StructuredDecomposition(alpha, tuple(blocks), cluster_blocks, kernel)


def structure_selfadjoint(model: SpectrumModel) -> StructuredDecomposition:
    """Structured decomposition with phases +1/-1; zero eigenvalues form the
    kernel block where K, F and V all vanish."""
    if model.kind not in (SELF_ADJOINT, POSITIVE):
        raise WrongKindError(
            f"self-adjoint structure needs a self-adjoint model, got {model.kind!r}")
    return _structure(model)


def structure_normal(model: SpectrumModel) -> StructuredDecomposition:
    """As :func:`structure_selfadjoint` with unit-complex phases
    ``value / |value|`` per eigenvalue."""
    if model.kind not in (NORMAL, SELF_ADJOINT, POSITIVE):
        raise WrongKindError(f"unknown model kind {model.kind!r}")
    return _structure(model)


# ---------------------------------------------------------------------------
# spectral transforms


def gram_spectrum(model: SpectrumModel,
                  depth: int = MATERIALIZE_DEPTH) -> SpectrumModel:
    """Positive model of ``T*T``: values squared in modulus.  AN membership
    is preserved (it is decided on the modulus spectrum, and squaring is
    strictly monotone on moduli)."""
    n = normalize_model(model)
    points = [EigenvalueEntry(complex(abs(p.value) ** 2, 0.0), p.mult)
              for p in n.points]
    clusters = []
    for cl in n.clusters:
        base = abs(cl.limit) ** 2
        diffs = [abs(m) ** 2 - base for m in cl.members(depth)]
        side = ABOVE if diffs[0] > 0 else BELOW
        mags = descending_prefix(abs(d) for d in diffs)
        if mags:
            clusters.append(Cluster(complex(base, 0.0), side, DecaySequence.explicit(
                mags, terminating=cl.deltas.terminating)))
    return normalize_model(SpectrumModel(POSITIVE, tuple(points), tuple(clusters)))


def adjoint_spectrum(model: SpectrumModel) -> SpectrumModel:
    """Spectrum of the adjoint: conjugated values; real kinds pass through."""
    n = normalize_model(model)
    if n.kind in (POSITIVE, SELF_ADJOINT):
        return n
    points = tuple(EigenvalueEntry(p.value.conjugate(), p.mult) for p in n.points)
    clusters = tuple(Cluster(cl.limit.conjugate(), cl.side, cl.deltas)
                     for cl in n.clusters)
    return normalize_model(SpectrumModel(NORMAL, points, clusters))


def imaginary_shift(model: SpectrumModel, lam: float) -> SpectrumModel:
    """Normal model of ``T + i*lam*I`` for self-adjoint AN input.

    The shift moves every eigenvalue and cluster limit by ``i*lam`` exactly;
    deltas and sides are unchanged because members displace along the real
    axis.  The result stays AN: its Gram spectrum collapses the +/- branches
    to a single modulus ``sqrt(t**2 + lam**2)`` picture.
    """
    if model.kind not in (SELF_ADJOINT, POSITIVE):
        raise WrongKindError(
            f"imaginary shift needs a self-adjoint model, got {model.kind!r}")
    n = normalize_model(model)
    verdict = classify(n)
    if not verdict.is_an:
        raise NotANError(
            "model is not absolutely norm attaining: " + ", ".join(verdict.violations))
    shift = complex(0.0, float(lam))
    points = tuple(EigenvalueEntry(p.value + shift, p.mult) for p in n.points)
    clusters = tuple(Cluster(cl.limit + shift, cl.side, cl.deltas)
                     for cl in n.clusters)
    return normalize_model(SpectrumModel(NORMAL, points, clusters))


# ---------------------------------------------------------------------------
# Fredholm properties


def fredholm_report(triple: PositiveTriple) -> FredholmReport:
    """Read Fredholm-type properties off the triple.

    With ``alpha > 0`` the range is closed, the kernel is the finite
    eigenspace where the finite-rank part reaches alpha, and the operator is
    Fredholm of index zero.  With ``alpha = 0`` the operator is compact:
    never Fredholm on an infinite-dimensional space, left semi-Fredholm only
    in the finite-dimensional degenerate case, and of closed range only when
    the compact part has finite rank.
    """
    alpha = triple.alpha
    kernel = triple.kernel_multiplicity()
    finite = triple.is_finite_dimensional()
    positive_shift = alpha > MERGE_TOL
    return FredholmReport(
        kernel_dimension=kernel,
        range_closed=positive_shift or not triple.k_entries.clusters,
        is_fredholm=positive_shift,
        is_left_semi_fredholm=positive_shift or finite,
        essential_min_modulus=alpha,
        is_injective=kernel == 0,
    )
