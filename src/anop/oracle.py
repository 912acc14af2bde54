"""Attainment checks and seeded model generators.

The oracle re-derives the attainment verdict on materialized spectra: it
checks restriction subspaces spanned by eigendirections (diagonal subsets
plus cluster tail subspaces), and searches for two-point mixing subspaces
whose restricted norm is a strict supremum.  A model passes only if every
probed subspace attains its norm.  The tail check is the classifier's
``LIMIT_FROM_BELOW`` rule (every cluster tail approached from below fails),
so on that code the two agree by construction; the mixing probes are the
independent part.  Library results never depend on this module.

Known blind spot, by design: mixing witnesses draw their vectors from
materialized cluster members, so a hand-written explicit cluster that stops
far from its limit can leave a pair unprobed.  The seeded generators below
keep cluster heads small relative to value spacing, which makes every
essential-value pair probeable.
"""

from __future__ import annotations

import math
import random

from ._record import record
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
    modulus_spectrum,
)
from .sequences import MERGE_TOL, DecaySequence, close_groups


@record(frozen=True)
class TruncationProfile:
    """How hard the oracle probes: materialization depth per cluster.  The
    oracle compares at ``MERGE_TOL``, the tolerance ``classify`` decides at."""

    depth: int = 12

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be at least 2, got {self.depth}")


@record(frozen=True)
class OracleFailure:
    """One subspace on which the restricted norm is not attained (or a
    declared-positivity breach)."""

    kind: str  # "declared_negative" | "unattained_tail" | "unattained_mixture"
    witness: tuple
    detail: str


@record(frozen=True)
class OracleReport:
    is_an: bool
    failures: tuple[OracleFailure, ...]
    subsets_checked: int
    pairs_checked: int


#: most items whose nonempty subsets ``subsets_checked`` counts
_SUBSET_CAP = 14


def _subset_scan(attained, unattained):
    """Check sup = max on eigenbasis subsets.

    Ground items are attained values (eigenvector directions, supremum
    reached) and unattained markers (cluster tail subspaces approaching
    their value from below).  A subset fails when its largest unattained
    marker tops every attained value.  A singleton marker always fails, so
    the failing values are exactly the distinct markers: the classifier's
    ``LIMIT_FROM_BELOW`` rule, with no subset enumerated.  The count is that
    of the nonempty subsets of the markers plus the largest distinct
    attained values, up to ``_SUBSET_CAP`` items in all (markers always
    count).  Distinct markers are the groups of :func:`close_groups`;
    distinct attained values are counted from one sort as the groups it
    would find: one per value, less one per step of at most ``MERGE_TOL``.
    """
    markers = [g[0] for g in close_groups(unattained)]
    attained = sorted(attained)
    points = len(attained) - sum(b - a <= MERGE_TOL for a, b in zip(attained, attained[1:]))
    g = len(markers) + min(points, max(_SUBSET_CAP - len(markers), 0))
    return (1 << g) - 1, markers


def _mixing_refutes(a_base, a_mags, b_base, b_mags, depth: int, tol: float):
    """Probe the two-point mixing subspace for essential values a < b.

    Vectors v_n = cos(t_n) e_a^n + sin(t_n) e_b^n with weights chosen so the
    restricted norms climb strictly to b without reaching it; the subspace
    then has supremum b attained by no vector.  Returns the climb endpoint,
    or None (inconclusive) when no usable member window exists or the
    members cannot carry the climb.  A step that floating point cannot
    resolve ends the climb, which refutes once it holds two strict steps.
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
    climb = []
    for i in range(depth):
        target = b2 - gap0 / (2.0 ** (i + 1))
        an2 = a_seq[i] * a_seq[i]
        bn2 = b_seq[i] * b_seq[i]
        if bn2 - an2 <= 0.0:
            return None
        w = (target - an2) / (bn2 - an2)
        if not 0.0 < w < 1.0:
            if b_seq[i] < b_base:
                return None  # the target has passed this b-member
            break  # rounding: the target has reached b
        norm = math.sqrt((1.0 - w) * an2 + w * bn2)
        if norm >= b_base or climb and norm <= climb[-1]:
            break  # rounding: the step is not resolved
        climb.append(norm)
    return climb[-1] if len(climb) >= 2 else None


def attainment_oracle(model: SpectrumModel,
                      profile: TruncationProfile | None = None) -> OracleReport:
    """Decide attainment by direct subspace probing.

    Checks, in order: declared positivity on materialized members (positive
    kind only), supremum attainment on eigenbasis subsets including cluster
    tails, and unattained two-point mixing subspaces between distinct
    essential values.
    """
    prof = profile or TruncationProfile()
    failures: list[OracleFailure] = []

    if model.kind == POSITIVE:
        for p in model.points:
            if p.value.real < -MERGE_TOL:
                failures.append(OracleFailure(
                    "declared_negative", (p.value.real,),
                    f"declared positive but carries eigenvalue {p.value.real}"))
        for cl in model.clusters:
            head = min(m.real for m in cl.members(prof.depth))
            if head < -MERGE_TOL:
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
    modulus_spectrum(model)  # refuses the models that classify refuses
    for cl in model.clusters:
        try:
            mags = [abs(m) for m in cl.members(deep)]
        except OverflowError:
            raise MalformedModelError(
                f"a member of the cluster at {cl.limit} has a modulus that overflows a float"
            ) from None
        base = abs(cl.limit)
        attained.extend(mags[: prof.depth])
        if mags[0] < base - MERGE_TOL:
            direction = "lower"
            unattained.append(base)
        else:
            direction = "upper" if mags[0] > base + MERGE_TOL else "flat"
            attained.append(max(mags[0], base))
        essential.append((base, direction, mags))

    subsets, failing_markers = _subset_scan(attained, unattained)
    for value in failing_markers:
        failures.append(OracleFailure(
            "unattained_tail", (value,),
            f"tail subspace has supremum {value} reached by no member"))

    groups = close_groups(essential, key=lambda e: e[0])
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
                                      prof.depth, MERGE_TOL)
            if climbed is not None:
                failures.append(OracleFailure(
                    "unattained_mixture", (a_item[0], b_item[0], climbed),
                    f"mixing directions at {a_item[0]} and {b_item[0]} climbs "
                    f"to {climbed} with supremum {b_item[0]} never attained"))

    return OracleReport(not failures, tuple(failures), subsets, pairs)


# ---------------------------------------------------------------------------
# seeded model generators


FAMILIES = KINDS

# Value layout for seeded models: grid spacing keeps distinct values far
# apart relative to the merge tolerance, and cluster heads stay under half
# the spacing so every essential pair is oracle-probeable.
_SPACING = 0.25
_MAX_POINTS = 4
_MAX_MULT = 3


def _gen_deltas(rng: random.Random) -> DecaySequence:
    head = _SPACING / 2.0
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


def _grid_points(rng: random.Random, count: int, lo_step: int, hi_step: int,
                 phases=None, skip=None) -> list:
    """Points of seeded multiplicity at the drawn grid values other than
    ``skip``, each turned by a phase drawn from ``phases`` when given."""
    return [EigenvalueEntry(complex(v * rng.choice(phases) if phases else v),
                            rng.randint(1, _MAX_MULT))
            for v in _grid_values(rng, count, lo_step, hi_step) if v != skip]


def _shift(rng: random.Random):
    """A seeded shift alpha on the grid, with its number of steps."""
    steps = 2 * rng.randint(2, 6)
    return steps * _SPACING, steps


def _sink(rng: random.Random, limit, as_cluster: bool, side=None):
    """The essential value ``limit``: a seeded cluster or an infinite
    multiplicity.  The cluster approaches from ``side``, by default the side
    away from zero, so that its moduli approach from above."""
    limit = complex(limit)
    if not as_cluster:
        return EigenvalueEntry(limit, INF)
    if side is None:
        side = ABOVE if limit.real >= 0 else BELOW
    return Cluster(limit, side, _gen_deltas(rng))


def _zero_point(rng: random.Random, chance: float) -> list:
    """A point of seeded multiplicity at zero, drawn with ``chance``."""
    return [EigenvalueEntry(0j, rng.randint(1, 2))] if rng.random() < chance else []


def _model(kind: str, items) -> SpectrumModel:
    """The model of the drawn points and clusters, each kept in draw order."""
    return SpectrumModel(kind, tuple([x for x in items if isinstance(x, EigenvalueEntry)]),
                         tuple([x for x in items if isinstance(x, Cluster)]))


def _gen_positive(rng: random.Random) -> SpectrumModel:
    case = rng.randrange(4)
    if case == 0:
        # compact only: essential minimum zero
        items = _grid_points(rng, rng.randint(1, _MAX_POINTS), 1, 17)
        if rng.random() < 0.6:
            items.append(_sink(rng, 0.0, True))
        if rng.random() < 0.3:
            items.append(_sink(rng, 0.0, False))
        return _model(POSITIVE, items)
    alpha, steps = _shift(rng)
    if case == 2:
        # no compact part: infinite multiplicity holds the shift alone
        return _model(POSITIVE, [_sink(rng, alpha, False)]
                      + _grid_points(rng, rng.randint(1, _MAX_POINTS), 1, steps)
                      + _zero_point(rng, 0.3))
    # case 1 has no finite-rank part, case 3 has both parts
    as_cluster = rng.random() < 0.5
    items = [_sink(rng, alpha, as_cluster)]
    if case == 3 and not as_cluster:
        items += _grid_points(rng, 1, steps + 1, steps + 9)
    items += _grid_points(rng, rng.randint(1, _MAX_POINTS if case == 1 else 2),
                          steps + 1, steps + 12)
    if case == 3:
        items += _grid_points(rng, rng.randint(1, 2), 1, steps)
    return _model(POSITIVE, items)


#: the self-adjoint generator's essential values: (sign of alpha, as a cluster)
_SELFADJOINT_SINKS = ((1.0, False), (-1.0, False), (1.0, True), (-1.0, True))


def _gen_selfadjoint(rng: random.Random) -> SpectrumModel:
    alpha, steps = _shift(rng)
    chosen = rng.sample(_SELFADJOINT_SINKS, rng.randint(1, 2))
    items = [_sink(rng, sign * alpha, as_cluster)
             for sign, as_cluster in _SELFADJOINT_SINKS if (sign, as_cluster) in chosen]
    items += _grid_points(rng, rng.randint(1, _MAX_POINTS), 1, steps + 12,
                          (-1.0, 1.0), skip=alpha)
    return _model(SELF_ADJOINT, items + _zero_point(rng, 0.3))


_PHASES = tuple(complex(math.cos(k * math.pi / 6.0), math.sin(k * math.pi / 6.0))
                for k in range(12))


def _gen_normal(rng: random.Random) -> SpectrumModel:
    alpha, steps = _shift(rng)
    items = [_sink(rng, alpha * rng.choice(_PHASES), rng.random() >= 0.5)
             for _ in range(rng.randint(1, 2))]
    items += _grid_points(rng, rng.randint(1, _MAX_POINTS), 1, steps + 12,
                          _PHASES, skip=alpha)
    return _model(NORMAL, items + _zero_point(rng, 0.2))


_GENERATORS = {POSITIVE: _gen_positive, SELF_ADJOINT: _gen_selfadjoint,
               NORMAL: _gen_normal}


def generate_model(seed: int, family: str) -> SpectrumModel:
    """Seeded AN model of one of the three kinds."""
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    return _GENERATORS[family](random.Random(("model", family, seed).__repr__()))


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
    if code not in VIOLATION_ORDER:
        raise ValueError(f"unknown violation code {code!r}")
    rng = random.Random(("violator", code, seed).__repr__())
    if code == NEGATIVE_VALUE:
        neg = EigenvalueEntry(complex(-rng.randint(1, 8) * _SPACING),
                              rng.randint(1, _MAX_MULT))
        return _model(POSITIVE, [neg, _sink(rng, _shift(rng)[0], False)])
    if code == LIMIT_FROM_BELOW:
        items = [_sink(rng, rng.randint(4, 10) * _SPACING, True, BELOW)]
    else:
        # two essential values at least two steps apart
        lo, hi = _grid_values(rng, 2, 2, 14)
        if code == LIMIT_NEQ_INFINITE_MULT:
            low_cluster = rng.random() < 0.5
            clustered = (low_cluster, not low_cluster)
        else:
            clustered = (code == MULTIPLE_LIMIT_POINTS,) * 2
        items = [_sink(rng, lo, clustered[0]),
                 _sink(rng, max(hi, lo + 2 * _SPACING), clustered[1])]
    if rng.random() < 0.5:
        items += _grid_points(rng, rng.randint(1, 2), 15, 24)
    return _maybe_sign_flip(rng, _model(POSITIVE, items))
