"""Canonical decompositions of absolutely norm-attaining spectra.

A positive AN operator splits uniquely as ``T = K - F + alpha*I`` with K
positive compact, F positive finite rank, ``KF = 0``, ``F <= alpha*I`` and
``alpha`` the essential minimum modulus.  :class:`PositiveTriple` is the
spectral presentation of that splitting; the operations below move triples
through squares, square roots and inverses, and extend the decomposition to
self-adjoint and normal models via ``T = K - F + alpha*V`` with V a partial
isometry carrying the eigenvalue phases.  The triple and every structure
come from one split of the points at alpha (:func:`_split`); a structure
adds each point's phase and sends points within ``MERGE_TOL`` of zero to
its kernel, and keeps clusters as the model states them.
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
    INF,
    MERGE_TOL,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
    _as_mult,
    _declared_positive_negative,
    mapped_cluster,
)


def _as_count(value, what: str):
    """Multiplicity that may be zero: non-negative int or inf."""
    if value == INF:
        return INF
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedModelError(f"{what} must be a non-negative integer or inf, got {value!r}")
    return value


def _merged_finite_entries(entries, alpha: float):
    """Validate a triple's finite-rank entries (real, in ``(MERGE_TOL,
    alpha + MERGE_TOL]`` clamped to alpha, finite multiplicity), then merge
    and sort them as the points of a :class:`SpectrumModel`."""
    what = "finite-rank part"
    items = []
    for e in entries:
        value, mult = complex(e.value), e.mult
        if abs(value.imag) > 0:
            raise MalformedModelError(f"{what} values must be real")
        v = value.real
        if v <= MERGE_TOL:
            raise MalformedModelError(f"{what} value {v} must exceed the merge tolerance")
        if v > alpha + MERGE_TOL:
            raise MalformedModelError(f"{what} value {v} exceeds the bound {alpha}")
        if mult == INF:
            raise MalformedModelError(f"{what} multiplicities must be finite")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise MalformedModelError(f"{what} multiplicity {mult!r} must be a positive integer")
        items.append(EigenvalueEntry(complex(min(v, alpha), 0.0), mult))
    return SpectrumModel(POSITIVE, tuple(items)).points


def _checked_alpha(alpha) -> float:
    """A decomposition's alpha as a float, which must be finite and >= 0."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise MalformedModelError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


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
        alpha = _checked_alpha(self.alpha)
        object.__setattr__(self, "alpha", alpha)

        k = self.k_entries
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

        f = _merged_finite_entries(self.f_entries, alpha)
        if f and alpha <= MERGE_TOL:
            raise MalformedModelError("finite-rank part requires a positive shift")
        object.__setattr__(self, "f_entries", f)

        object.__setattr__(self, "identity_multiplicity",
                           _as_count(self.identity_multiplicity, "identity multiplicity"))

    # -- queries -----------------------------------------------------------

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
        clusters = tuple(Cluster(complex(self.alpha, 0.0), ABOVE, cl.deltas)
                         for cl in self.k_entries.clusters)
        return StructuredDecomposition(self.alpha, tuple(blocks), clusters, 0)


@dataclass(frozen=True)
class Block:
    """One spectral block of a structured decomposition."""

    phase: complex
    part: str  # "k" | "f" | "identity"
    value: float
    mult: float  # int >= 1 or inf

    def eigenvalue(self, alpha: float) -> complex:
        """``phase * (alpha + value)`` for part "k", ``phase * (alpha -
        value)`` for part "f", and ``phase * alpha`` for part "identity"."""
        if self.part == "identity":
            return self.phase * alpha
        return self.phase * (alpha + self.value if self.part == "k" else alpha - self.value)


@dataclass(frozen=True)
class StructuredDecomposition:
    """Spectral form of ``T = K - F + alpha*V`` with ``K = V*K1`` and
    ``F = V*F1`` where ``|T| = K1 - F1 + alpha*I``; V vanishes exactly on
    the kernel.  Compact-part accumulations keep their original form: each
    cluster member carries its own phase ``member / |member|``.  A block's
    part is k, f or identity, its value finite and >= 0, and its phase
    within ``MERGE_TOL`` of modulus 1; any other block is MALFORMED."""

    alpha: float
    blocks: tuple[Block, ...]
    cluster_blocks: tuple[Cluster, ...]
    kernel_multiplicity: float  # int >= 0 or inf

    def __post_init__(self):
        object.__setattr__(self, "alpha", _checked_alpha(self.alpha))
        for b in self.blocks:
            if b.part not in ("k", "f", "identity"):
                raise MalformedModelError(f"block part must be k/f/identity, got {b.part!r}")
            if not 0.0 <= b.value < INF:
                raise MalformedModelError(f"block value {b.value} must be finite and >= 0")
            if not abs(abs(b.phase) - 1.0) <= MERGE_TOL:  # a NaN or infinite phase fails
                raise MalformedModelError(f"block phase {b.phase} must have modulus 1")
            _as_mult(b.mult)
        _as_count(self.kernel_multiplicity, "kernel multiplicity")


@dataclass(frozen=True)
class AMForm:
    """Inverse presentation ``T**-1 = beta*I - K1 + F1`` with
    ``beta = 1/alpha``; support-paired with the source triple, each entry and
    cluster is the image of one source entry or cluster, never merged."""

    beta: float
    k1_entries: tuple[EigenvalueEntry, ...]
    k1_clusters: tuple[Cluster, ...]
    f1_entries: tuple[EigenvalueEntry, ...]
    identity_multiplicity: float


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


def _split(n: SpectrumModel):
    """The split at alpha behind every decomposition.

    A model that is not AN raises :class:`NotANError`.  ``alpha`` is the
    least essential modulus (cluster limits and infinite multiplicities), 0
    when there is none.  Each point is split by its modulus ``m``, which in
    a positive model is the value itself, sign kept down to ``-MERGE_TOL``:
    "identity" when ``m`` is within ``MERGE_TOL`` of alpha (value 0), "k"
    above it (value ``m - alpha``) and "f" below it (value ``alpha - m``).
    Returns alpha and one ``(point, part, value)`` per point, in point order.
    """
    verdict = classify(n)
    if not verdict.is_an:
        raise NotANError(
            "model is not absolutely norm attaining: " + ", ".join(verdict.violations))
    mod = verdict.modulus_collapsed
    alpha = min([cl.limit.real for cl in mod.clusters]
                + [p.value.real for p in mod.points if p.is_infinite()], default=0.0)
    split = []
    for p in n.points:
        m = p.value.real if n.kind == POSITIVE else abs(p.value)
        if abs(m - alpha) <= MERGE_TOL:
            split.append((p, "identity", 0.0))
        elif m > alpha:
            split.append((p, "k", m - alpha))
        else:
            split.append((p, "f", alpha - m))
    return alpha, split


def decompose_positive(model: SpectrumModel) -> PositiveTriple:
    """Split a positive AN model into its canonical triple."""
    if model.kind != POSITIVE:
        raise WrongKindError(
            f"decomposition needs a positive model, got kind {model.kind!r}")
    if _declared_positive_negative(model):
        raise NegativeValueError("model declares negative spectral values")
    alpha, split = _split(model)
    k_points = tuple(EigenvalueEntry(complex(v, 0.0), p.mult)
                     for p, part, v in split if part == "k")
    f_entries = tuple(EigenvalueEntry(complex(v, 0.0), p.mult)
                      for p, part, v in split if part == "f")
    identity = sum(p.mult for p, part, _ in split if part == "identity")
    tails = tuple(Cluster(0j, ABOVE, cl.deltas) for cl in model.clusters)
    return PositiveTriple(alpha, SpectrumModel(POSITIVE, k_points, tails),
                          f_entries, identity)


def recompose(triple: PositiveTriple) -> SpectrumModel:
    """Positive model of the triple's operator: each block of
    :meth:`PositiveTriple.as_structure` at its :meth:`Block.eigenvalue`."""
    sd = triple.as_structure()
    points = tuple(EigenvalueEntry(b.eigenvalue(sd.alpha), b.mult) for b in sd.blocks)
    return SpectrumModel(POSITIVE, points, sd.cluster_blocks)


# ---------------------------------------------------------------------------
# triple maps


def _mapped_parts(triple: PositiveTriple, k_fn, f_fn):
    """Images of a triple's parts, one per source entry, unmerged: the
    compact part's ``(points, clusters)`` under ``k_fn``, a strictly
    increasing map fixing zero, and the finite-rank entries under ``f_fn``."""
    def image(entries, fn):
        return tuple(EigenvalueEntry(complex(fn(e.value.real), 0.0), e.mult)
                     for e in entries)
    k = triple.k_entries
    clusters = tuple(mapped_cluster(cl, lambda z: k_fn(z.real)) for cl in k.clusters)
    return (image(k.points, k_fn), clusters), image(triple.f_entries, f_fn)


def square_triple(triple: PositiveTriple) -> PositiveTriple:
    """Triple of ``T**2``: ``k -> k**2 + 2*alpha*k``, ``f -> 2*alpha*f - f**2``,
    ``alpha -> alpha**2``.  Cluster deltas are re-presented explicitly since
    the square map does not preserve the symbolic generators."""
    a = triple.alpha
    k, f = _mapped_parts(triple, lambda x: x * x + 2.0 * a * x,
                         lambda x: 2.0 * a * x - x ** 2)
    return PositiveTriple(a * a, SpectrumModel(POSITIVE, *k), f,
                          triple.identity_multiplicity)


def sqrt_triple(triple: PositiveTriple) -> PositiveTriple:
    """Exact inverse of :func:`square_triple` on valid triples:
    ``alpha -> sqrt(alpha)``, ``k -> sqrt(alpha + k) - sqrt(alpha)``,
    ``f -> sqrt(alpha) - sqrt(alpha - f)``."""
    a = triple.alpha
    root = math.sqrt(a)
    k, f = _mapped_parts(triple, lambda x: math.sqrt(a + x) - root,
                         lambda x: root - math.sqrt(max(a - x, 0.0)))
    return PositiveTriple(root, SpectrumModel(POSITIVE, *k), f,
                          triple.identity_multiplicity)


def invert_triple(triple: PositiveTriple) -> AMForm:
    """AM-form inverse ``beta*I - K1 + F1``: every recombined eigenvalue is
    the exact reciprocal of its source (``beta - k1 = 1/(alpha + k)``,
    ``beta + f1 = 1/(alpha - f)``); ``norm(K1) <= beta`` holds entrywise."""
    a = triple.alpha
    if a <= MERGE_TOL:
        raise AlphaZeroError("compact operators on infinite dimensions have no bounded inverse")
    if not triple.is_injective():
        raise NotInjectiveError("finite-rank part reaches alpha: kernel is nontrivial")
    k1, f1 = _mapped_parts(triple, lambda x: x / (a * (x + a)),
                           lambda x: x / (a * (a - x)))
    return AMForm(1.0 / a, *k1, f1, triple.identity_multiplicity)


# ---------------------------------------------------------------------------
# self-adjoint / normal structure


def structure_normal(model: SpectrumModel) -> StructuredDecomposition:
    """Structured decomposition of a model of any kind, with the unit-complex
    phase ``value / |value|`` per eigenvalue; zero eigenvalues form the
    kernel block where K, F and V all vanish."""
    alpha, split = _split(model)
    blocks = [Block(p.value / abs(p.value), part, value, p.mult)
              for p, part, value in split if abs(p.value) > MERGE_TOL]
    kernel = sum(p.mult for p in model.points if abs(p.value) <= MERGE_TOL)
    rank = {"k": 0, "f": 1, "identity": 2}
    blocks.sort(key=lambda b: (rank[b.part], -b.value, b.phase.real, b.phase.imag))
    return StructuredDecomposition(alpha, tuple(blocks), model.clusters, kernel)


def structure_selfadjoint(model: SpectrumModel) -> StructuredDecomposition:
    """:func:`structure_normal` of a self-adjoint (or positive) model, whose
    phases are +1/-1."""
    if model.kind not in (SELF_ADJOINT, POSITIVE):
        raise WrongKindError(
            f"self-adjoint structure needs a self-adjoint model, got {model.kind!r}")
    return structure_normal(model)


def decomposition(model: SpectrumModel) -> PositiveTriple | StructuredDecomposition:
    """The model's decomposition by kind: the canonical triple of a positive
    model, :func:`structure_normal` of any other."""
    if model.kind == POSITIVE:
        return decompose_positive(model)
    return structure_normal(model)


# ---------------------------------------------------------------------------
# spectral transforms


def gram_spectrum(model: SpectrumModel) -> SpectrumModel:
    """Positive model of ``T*T``: values squared in modulus.  AN membership
    is preserved (it is decided on the modulus spectrum, and squaring is
    strictly monotone on moduli).  A square too large for a float is
    MALFORMED, as a non-finite value of a model is."""
    try:
        points = tuple(EigenvalueEntry(complex(abs(p.value) ** 2, 0.0), p.mult)
                       for p in model.points)
    except OverflowError:
        raise MalformedModelError("a squared modulus overflows a float") from None
    clusters = tuple(mapped_cluster(cl, lambda z: abs(z) ** 2) for cl in model.clusters)
    return SpectrumModel(POSITIVE, points, clusters)


def adjoint_spectrum(model: SpectrumModel) -> SpectrumModel:
    """Spectrum of the adjoint: conjugated values; real kinds pass through."""
    if model.kind in (POSITIVE, SELF_ADJOINT):
        return model
    points = tuple(EigenvalueEntry(p.value.conjugate(), p.mult) for p in model.points)
    clusters = tuple(Cluster(cl.limit.conjugate(), cl.side, cl.deltas)
                     for cl in model.clusters)
    return SpectrumModel(NORMAL, points, clusters)


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
    _split(model)  # the NOT_AN gate
    shift = complex(0.0, float(lam))
    points = tuple(EigenvalueEntry(p.value + shift, p.mult) for p in model.points)
    clusters = tuple(Cluster(cl.limit + shift, cl.side, cl.deltas)
                     for cl in model.clusters)
    return SpectrumModel(NORMAL, points, clusters)


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
