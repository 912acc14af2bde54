"""Attainment checks and seeded model generators.

The oracle re-derives the attainment verdict on materialized spectra: it
checks restriction subspaces spanned by eigendirections (diagonal subsets
plus cluster tail subspaces), and searches for two-point mixing subspaces
whose restricted norm is a strict supremum.  A model passes only if every
probed subspace attains its norm.  The tail check is the classifier's
``LIMIT_FROM_BELOW`` rule (every cluster tail approached from below fails),
so on that code the two agree by construction; the mixing probes are the
independent part.  numpy's LAPACK may be used here as
lab equipment; library results never depend on this module.

Known blind spot, by design: mixing witnesses draw their vectors from
materialized cluster members, so a hand-written explicit cluster that stops
far from its limit can leave a pair unprobed.  The seeded generators below
keep cluster heads small relative to value spacing, which makes every
essential-value pair probeable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import MalformedModelError
from .model import (
    ABOVE,
    BELOW,
    INF,
    KINDS,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    VIOLATION_ORDER,
    LIMIT_FROM_BELOW,
    LIMIT_NEQ_INFINITE_MULT,
    MULTIPLE_INFINITE_MULTIPLICITIES,
    MULTIPLE_LIMIT_POINTS,
    NEGATIVE_VALUE,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    _modulus_cluster,
)
from .sequences import MERGE_TOL, DecaySequence, close_groups


@dataclass(frozen=True)
class TruncationProfile:
    """How hard the oracle probes: materialization depth per cluster and the
    comparison tolerance."""

    depth: int = 12
    tol: float = MERGE_TOL

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be at least 2, got {self.depth}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tolerance {self.tol} out of range")


@dataclass(frozen=True)
class OracleFailure:
    """One subspace on which the restricted norm is not attained (or a
    declared-positivity breach)."""

    kind: str  # "declared_negative" | "unattained_tail" | "unattained_mixture"
    witness: tuple
    detail: str


@dataclass(frozen=True)
class OracleReport:
    is_an: bool
    failures: tuple[OracleFailure, ...]
    subsets_checked: int
    pairs_checked: int


#: most items whose nonempty subsets ``subsets_checked`` counts
_SUBSET_CAP = 14


def _subset_scan(attained, unattained, tol: float):
    """Check sup = max on eigenbasis subsets.

    Ground items are attained values (eigenvector directions, supremum
    reached) and unattained markers (cluster tail subspaces approaching
    their value from below).  A subset fails when its largest unattained
    marker tops every attained value.  A singleton marker always fails, so
    the failing values are exactly the distinct markers: the classifier's
    ``LIMIT_FROM_BELOW`` rule, with no subset enumerated.  The count is that
    of the nonempty subsets of the markers plus the largest distinct
    attained values, up to ``_SUBSET_CAP`` items in all (markers always
    count).
    """
    markers = [g[0] for g in close_groups(unattained, tol)]
    points = len(close_groups(attained, tol))
    g = len(markers) + min(points, max(_SUBSET_CAP - len(markers), 0))
    return (1 << g) - 1, markers


def _mixing_refutes(a_base, a_mags, b_base, b_mags, depth: int, tol: float):
    """Probe the two-point mixing subspace for essential values a < b.

    Vectors v_n = cos(t_n) e_a^n + sin(t_n) e_b^n with weights chosen so the
    restricted norms climb strictly to b without reaching it; the subspace
    then has supremum b attained by no vector.  Returns the climb endpoint,
    or None when no usable member window exists (inconclusive).
    """
    def window(base, mags, usable):
        # the depth usable moduli nearest the value, nearest first, the last
        # repeated to fill; None when no member is usable
        if mags is None:
            return [base] * depth
        kept = [m for m in mags if usable(m)][-depth:][::-1]
        return kept + kept[-1:] * (depth - len(kept)) if kept else None

    ceiling2 = (a_base * a_base + b_base * b_base) / 2.0
    a_seq = window(a_base, a_mags, lambda m: m * m < ceiling2)
    b_seq = window(b_base, b_mags, lambda m: m >= b_base - tol)
    if a_seq is None or b_seq is None:
        return None

    b2 = b_base * b_base
    gap0 = b2 - max(x * x for x in a_seq)
    if gap0 <= tol:
        return None
    prev = -math.inf
    climb = []
    for i in range(depth):
        target = b2 - gap0 / (2.0 ** (i + 1))
        an2 = a_seq[i] * a_seq[i]
        bn2 = b_seq[i] * b_seq[i]
        if bn2 - an2 <= 0.0:
            return None
        w = (target - an2) / (bn2 - an2)
        if not 0.0 < w < 1.0:
            return None
        norm = math.sqrt((1.0 - w) * an2 + w * bn2)
        if norm <= prev or norm >= b_base:
            return None
        climb.append(norm)
        prev = norm
    return climb[-1]


def attainment_oracle(model: SpectrumModel,
                      profile: TruncationProfile | None = None) -> OracleReport:
    """Decide attainment by direct subspace probing.

    Checks, in order: declared positivity on materialized members (positive
    kind only), supremum attainment on eigenbasis subsets including cluster
    tails, and unattained two-point mixing subspaces between distinct
    essential values.
    """
    prof = profile or TruncationProfile()
    tol = prof.tol
    failures: list[OracleFailure] = []

    if model.kind == POSITIVE:
        for p in model.points:
            if p.value.real < -tol:
                failures.append(OracleFailure(
                    "declared_negative", (p.value.real,),
                    f"declared positive but carries eigenvalue {p.value.real}"))
        for cl in model.clusters:
            head = min(m.real for m in cl.members(prof.depth))
            if head < -tol:
                failures.append(OracleFailure(
                    "declared_negative", (head,),
                    f"declared positive but cluster member reaches {head}"))

    deep = max(prof.depth, 48)
    attained = [abs(p.value) for p in model.points]
    unattained: list[float] = []
    essential = []  # (base modulus, direction, member moduli or None)
    for p in model.points:
        if p.is_infinite():
            essential.append((abs(p.value), "flat", None))
    for cl in model.clusters:
        _modulus_cluster(cl)  # refuses the clusters that classify refuses
        try:
            mags = [abs(m) for m in cl.members(deep)]
        except OverflowError:
            raise MalformedModelError(
                f"a member of the cluster at {cl.limit} has a modulus that overflows a float"
            ) from None
        base = abs(cl.limit)
        attained.extend(mags[: prof.depth])
        if mags[0] > base + tol:
            direction = "upper"
        elif mags[0] < base - tol:
            direction = "lower"
        else:
            direction = "flat"
        if direction == "lower":
            unattained.append(base)
        else:
            attained.append(max(mags[0], base))
        essential.append((base, direction, mags))

    subsets, failing_markers = _subset_scan(attained, unattained, tol)
    for value in failing_markers:
        failures.append(OracleFailure(
            "unattained_tail", (value,),
            f"tail subspace has supremum {value} reached by no member"))

    groups = close_groups(essential, tol, key=lambda e: e[0])
    pairs = 0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            b_items = [e for e in groups[j] if e[1] in ("flat", "upper")]
            if not b_items:
                continue  # approached only from below; its own tail refutes
            a_item = groups[i][0]
            b_item = b_items[0]
            pairs += 1
            climbed = _mixing_refutes(a_item[0], a_item[2], b_item[0], b_item[2],
                                      prof.depth, tol)
            if climbed is not None:
                failures.append(OracleFailure(
                    "unattained_mixture", (a_item[0], b_item[0], climbed),
                    f"mixing directions at {a_item[0]} and {b_item[0]} climbs "
                    f"to {climbed} with supremum {b_item[0]} never attained"))

    return OracleReport(not failures, tuple(failures), subsets, pairs)


# ---------------------------------------------------------------------------
# finite-rank perturbation lab check


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


# ---------------------------------------------------------------------------
# seeded model generators


FAMILIES = KINDS

# Value layout for seeded models: grid spacing keeps distinct values far
# apart relative to the merge tolerance, and cluster heads stay under half
# the spacing so every essential pair is oracle-probeable.
_SPACING = 0.25
_MAX_POINTS = 4
_MAX_MULT = 3


def _gen_deltas(rng: random.Random, head: float) -> DecaySequence:
    style = rng.randrange(3)
    if style == 0:
        return DecaySequence.geometric(head * rng.choice([0.5, 1.0]),
                                       rng.choice([0.25, 0.5, 0.75]))
    if style == 1:
        return DecaySequence.harmonic(head * rng.choice([0.5, 1.0]))
    count = rng.randint(4, 8)
    first = head * rng.choice([0.5, 0.8])
    terms = tuple(first * (0.6 ** i) for i in range(count))
    return DecaySequence.explicit(terms, terminating=False)


def _grid_values(rng: random.Random, count: int, lo_step: int, hi_step: int):
    steps = rng.sample(range(lo_step, hi_step), min(count, hi_step - lo_step))
    return [s * _SPACING for s in sorted(steps)]


def _gen_positive(rng: random.Random) -> SpectrumModel:
    head = _SPACING / 2.0
    case = rng.randrange(4)
    points: list[EigenvalueEntry] = []
    clusters: list[Cluster] = []
    if case == 0:
        # compact only: essential minimum zero
        for v in _grid_values(rng, rng.randint(1, _MAX_POINTS), 1, 17):
            points.append(EigenvalueEntry(complex(v, 0), rng.randint(1, _MAX_MULT)))
        if rng.random() < 0.6:
            clusters.append(Cluster(0j, ABOVE, _gen_deltas(rng, head)))
        if rng.random() < 0.3:
            points.append(EigenvalueEntry(0j, INF))
        if not points and not clusters:
            points.append(EigenvalueEntry(complex(_SPACING, 0), 1))
    else:
        alpha = rng.randint(2, 6) * _SPACING * 2
        alpha_steps = round(alpha / _SPACING)
        if case == 1:
            # no finite-rank part
            if rng.random() < 0.5:
                clusters.append(Cluster(complex(alpha, 0), ABOVE, _gen_deltas(rng, head)))
            else:
                points.append(EigenvalueEntry(complex(alpha, 0), INF))
            for v in _grid_values(rng, rng.randint(1, _MAX_POINTS),
                                  alpha_steps + 1, alpha_steps + 12):
                points.append(EigenvalueEntry(complex(v, 0), rng.randint(1, _MAX_MULT)))
        elif case == 2:
            # no compact part: infinite multiplicity holds the shift alone
            points.append(EigenvalueEntry(complex(alpha, 0), INF))
            for v in _grid_values(rng, rng.randint(1, _MAX_POINTS), 1, alpha_steps):
                points.append(EigenvalueEntry(complex(v, 0), rng.randint(1, _MAX_MULT)))
            if rng.random() < 0.3:
                points.append(EigenvalueEntry(0j, rng.randint(1, 2)))
        else:
            # both parts present
            if rng.random() < 0.5:
                clusters.append(Cluster(complex(alpha, 0), ABOVE, _gen_deltas(rng, head)))
            else:
                points.append(EigenvalueEntry(complex(alpha, 0), INF))
                above = _grid_values(rng, 1, alpha_steps + 1, alpha_steps + 9)
                points.append(EigenvalueEntry(complex(above[0], 0),
                                              rng.randint(1, _MAX_MULT)))
            for v in _grid_values(rng, rng.randint(1, 2),
                                  alpha_steps + 1, alpha_steps + 12):
                points.append(EigenvalueEntry(complex(v, 0), rng.randint(1, _MAX_MULT)))
            below = _grid_values(rng, rng.randint(1, 2), 1, alpha_steps)
            for v in below:
                points.append(EigenvalueEntry(complex(v, 0), rng.randint(1, _MAX_MULT)))
    return SpectrumModel(POSITIVE, tuple(points), tuple(clusters))


def _gen_selfadjoint(rng: random.Random) -> SpectrumModel:
    head = _SPACING / 2.0
    alpha = rng.randint(2, 6) * _SPACING * 2
    alpha_steps = round(alpha / _SPACING)
    points: list[EigenvalueEntry] = []
    clusters: list[Cluster] = []
    sinks = rng.sample(["plus_inf", "minus_inf", "plus_cluster", "minus_cluster"],
                       rng.randint(1, 2))
    if "plus_inf" in sinks:
        points.append(EigenvalueEntry(complex(alpha, 0), INF))
    if "minus_inf" in sinks:
        points.append(EigenvalueEntry(complex(-alpha, 0), INF))
    if "plus_cluster" in sinks:
        clusters.append(Cluster(complex(alpha, 0), ABOVE, _gen_deltas(rng, head)))
    if "minus_cluster" in sinks:
        clusters.append(Cluster(complex(-alpha, 0), BELOW, _gen_deltas(rng, head)))
    for v in _grid_values(rng, rng.randint(1, _MAX_POINTS), 1, alpha_steps + 12):
        if abs(v - alpha) < _SPACING / 2:
            continue
        sign = rng.choice([-1.0, 1.0])
        points.append(EigenvalueEntry(complex(sign * v, 0), rng.randint(1, _MAX_MULT)))
    if rng.random() < 0.3:
        points.append(EigenvalueEntry(0j, rng.randint(1, 2)))
    return SpectrumModel(SELF_ADJOINT, tuple(points), tuple(clusters))


_PHASES = tuple(complex(math.cos(k * math.pi / 6.0), math.sin(k * math.pi / 6.0))
                for k in range(12))


def _gen_normal(rng: random.Random) -> SpectrumModel:
    head = _SPACING / 2.0
    alpha = rng.randint(2, 6) * _SPACING * 2
    alpha_steps = round(alpha / _SPACING)
    points: list[EigenvalueEntry] = []
    clusters: list[Cluster] = []
    for _ in range(rng.randint(1, 2)):
        phase = rng.choice(_PHASES)
        if rng.random() < 0.5:
            points.append(EigenvalueEntry(alpha * phase, INF))
        else:
            side = ABOVE if phase.real >= 0 else BELOW
            clusters.append(Cluster(alpha * phase, side, _gen_deltas(rng, head)))
    for v in _grid_values(rng, rng.randint(1, _MAX_POINTS), 1, alpha_steps + 12):
        if abs(v - alpha) < _SPACING / 2:
            continue
        points.append(EigenvalueEntry(v * rng.choice(_PHASES),
                                      rng.randint(1, _MAX_MULT)))
    if rng.random() < 0.2:
        points.append(EigenvalueEntry(0j, rng.randint(1, 2)))
    return SpectrumModel(NORMAL, tuple(points), tuple(clusters))


def generate_model(seed: int, family: str) -> SpectrumModel:
    """Seeded AN model of one of the three kinds."""
    rng = random.Random(("model", family, seed).__repr__())
    if family == POSITIVE:
        return _gen_positive(rng)
    if family == SELF_ADJOINT:
        return _gen_selfadjoint(rng)
    if family == NORMAL:
        return _gen_normal(rng)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def _maybe_sign_flip(rng: random.Random, model: SpectrumModel) -> SpectrumModel:
    """Optionally re-dress a positive violator as self-adjoint; moduli (and
    therefore the violation set) are preserved exactly."""
    if rng.random() >= 0.4:
        return model
    points = tuple(
        EigenvalueEntry(-p.value if rng.random() < 0.5 else p.value, p.mult)
        for p in model.points)
    clusters = []
    for cl in model.clusters:
        if rng.random() < 0.5 and abs(cl.limit) > 0:
            flipped = ABOVE if cl.side == BELOW else BELOW
            clusters.append(Cluster(-cl.limit, flipped, cl.deltas))
        else:
            clusters.append(cl)
    return SpectrumModel(SELF_ADJOINT, points, tuple(clusters))


FAMILY_CYCLE = (
    (POSITIVE, None),
    (POSITIVE, None),
    (POSITIVE, None),
    (SELF_ADJOINT, None),
    (SELF_ADJOINT, None),
    (NORMAL, None),
    (NORMAL, None),
    ("violator", NEGATIVE_VALUE),
    ("violator", MULTIPLE_LIMIT_POINTS),
    ("violator", LIMIT_FROM_BELOW),
    ("violator", MULTIPLE_INFINITE_MULTIPLICITIES),
    ("violator", LIMIT_NEQ_INFINITE_MULT),
)


def mixed_model(seed: int):
    """Seeded model drawn from the weighted family cycle (three positive,
    two self-adjoint, two normal, five violators per twelve seeds).
    Returns ``(tag, model)`` where the tag names the family or violation."""
    family, code = FAMILY_CYCLE[seed % len(FAMILY_CYCLE)]
    if family == "violator":
        return f"violator:{code}", generate_violator(seed, code)
    return family, generate_model(seed, family)


def seeded_models(family: str, count: int, base_seed: int = 0):
    """``(seed, tag, model)`` for ``count`` seeds from ``base_seed``: the
    mixed cycle for "all", each violation code in turn for "violators", or
    one of :data:`FAMILIES`; the tag names the family or violation."""
    for seed in range(base_seed, base_seed + count):
        if family == "all":
            tag, model = mixed_model(seed)
        elif family == "violators":
            code = VIOLATION_ORDER[seed % len(VIOLATION_ORDER)]
            tag, model = f"violator:{code}", generate_violator(seed, code)
        else:
            tag, model = family, generate_model(seed, family)
        yield seed, tag, model


def generate_violator(seed: int, code: str) -> SpectrumModel:
    """Seeded model violating exactly the requested condition."""
    rng = random.Random(("violator", code, seed).__repr__())
    head = _SPACING / 2.0
    points: list[EigenvalueEntry] = []
    clusters: list[Cluster] = []
    if code == NEGATIVE_VALUE:
        neg = -rng.randint(1, 8) * _SPACING
        points.append(EigenvalueEntry(complex(neg, 0), rng.randint(1, _MAX_MULT)))
        points.append(EigenvalueEntry(complex(rng.randint(2, 6) * _SPACING * 2, 0), INF))
        return SpectrumModel(POSITIVE, tuple(points), ())
    if code == MULTIPLE_LIMIT_POINTS:
        lo, hi = _grid_values(rng, 2, 2, 14)
        if hi - lo < 2 * _SPACING:
            hi = lo + 2 * _SPACING
        clusters.append(Cluster(complex(lo, 0), ABOVE, _gen_deltas(rng, head)))
        clusters.append(Cluster(complex(hi, 0), ABOVE, _gen_deltas(rng, head)))
    elif code == LIMIT_FROM_BELOW:
        limit = rng.randint(4, 10) * _SPACING
        clusters.append(Cluster(complex(limit, 0), BELOW, _gen_deltas(rng, head)))
    elif code == MULTIPLE_INFINITE_MULTIPLICITIES:
        lo, hi = _grid_values(rng, 2, 2, 14)
        if hi - lo < 2 * _SPACING:
            hi = lo + 2 * _SPACING
        points.append(EigenvalueEntry(complex(lo, 0), INF))
        points.append(EigenvalueEntry(complex(hi, 0), INF))
    elif code == LIMIT_NEQ_INFINITE_MULT:
        lo, hi = _grid_values(rng, 2, 2, 14)
        if hi - lo < 2 * _SPACING:
            hi = lo + 2 * _SPACING
        if rng.random() < 0.5:
            clusters.append(Cluster(complex(lo, 0), ABOVE, _gen_deltas(rng, head)))
            points.append(EigenvalueEntry(complex(hi, 0), INF))
        else:
            points.append(EigenvalueEntry(complex(lo, 0), INF))
            clusters.append(Cluster(complex(hi, 0), ABOVE, _gen_deltas(rng, head)))
    else:
        raise ValueError(f"unknown violation code {code!r}")
    if rng.random() < 0.5:
        for v in _grid_values(rng, rng.randint(1, 2), 15, 24):
            points.append(EigenvalueEntry(complex(v, 0), rng.randint(1, _MAX_MULT)))
    return _maybe_sign_flip(rng, SpectrumModel(POSITIVE, tuple(points), tuple(clusters)))
