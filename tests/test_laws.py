"""The theory's laws as an independent check of ``classify``.

A positive operator is absolutely norm-attaining (AN) exactly when it is
``alpha*I + K - F`` with K positive compact, F positive finite rank,
``KF = 0`` and ``0 <= F <= alpha*I``; any operator is AN exactly when its
modulus is.  Exact laws follow, and each is checked here on the verdicts
alone, without the oracle and without ``classify``'s own rules:

- direct sum: A + B (orthogonal) is AN exactly when A and B are, and one of
  them is finite-dimensional or both have the same essential modulus;
- positive shift: for positive A and b > 0, A + bI is AN exactly when A is;
- Gram and modulus: T*T and |T| are AN exactly when T is;
- adjoint: T* is AN exactly when T is;
- rotation: wT is AN exactly when T is, for |w| = 1.  A cluster's members
  approach along the real axis, so the model expresses wT for w = -1 on
  every model and for other w only on cluster-free models;
- heredity: AN is defined by restriction, so every sub-model of an AN
  model is AN.  A sub-model drops items, lowers multiplicities (``inf`` to
  finite included), thins a cluster to a non-terminating subsequence or
  cuts it to a terminating prefix;
- two-item witnesses: the characterization's conditions are pairwise, so
  the codes of a NOT_AN model are those of its sub-models of at most two
  items.

Every law holds for models with no ``NEGATIVE_VALUE``, whose declared kind
the maps do not keep.  The cases are the seeded generators' families and
hand-built pairs whose essential values lie a few ``MERGE_TOL`` apart, where
the direct-sum law meets the merge rule.  Values within ``MERGE_TOL`` of
each other are one value, so "the same essential modulus" means moduli at
most ``MERGE_TOL`` apart.

Heredity and the witnesses run on the seeded models and on hand-built
models whose essential values lie at least ``3 * MERGE_TOL`` apart: a chain
of values each within ``MERGE_TOL`` of the next is one value, and dropping
its middle splits it.  The chain cases wait for the same mend as scaling.

The Gram law runs on the seeded models only.  Squaring turns a gap g
between moduli near x into about 2xg, so on the hand-built sums it can
join or split two essential values across ``MERGE_TOL``: the scaling
defect of a tolerance that is absolute, not relative to the model.  The
scaling law and the decomposition round trip wait on the same mend.
"""

import cmath
import itertools
import math
import random

import pytest

from anop.decompose import adjoint_spectrum, gram_spectrum
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    KINDS,
    NEGATIVE_VALUE,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
    is_finite_dimensional,
    moduli_report,
    modulus_spectrum,
)
from anop.oracle import seeded_models
from anop.sequences import MATERIALIZE_DEPTH, MERGE_TOL, DecaySequence

#: seeds drawn from each generator family
SEEDS = 500

#: offsets between the essential moduli of a hand-built pair, in units of
#: MERGE_TOL: the first four join, the rest stay apart
OFFSETS = (0.0, 0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0)

#: rotations of cluster-free models: the twelfth roots of unity and three
#: angles off that grid
ANGLES = tuple(k * math.pi / 6.0 for k in range(12)) + (0.1, 1.0, 2.5)

_OTHER_SIDE = {ABOVE: BELOW, BELOW: ABOVE}


def _is_an(model) -> bool:
    return classify(model).is_an


def _lawful(model) -> bool:
    """Whether the laws speak of ``model``: no declared-kind breach."""
    return NEGATIVE_VALUE not in classify(model).violations


def _essential(rng, kind, modulus, form):
    """An essential value of the given modulus in a random presentation of
    ``kind``: a point of infinite multiplicity (``form`` "point"), or a
    cluster whose moduli approach from "above" or "below"."""
    if kind == POSITIVE:
        phase = 1.0
    elif kind == SELF_ADJOINT or form == "below" or rng.random() < 0.3:
        phase = rng.choice((1.0, -1.0))
    else:
        phase = cmath.exp(1j * rng.choice(ANGLES))
    value = complex(modulus * phase)
    if form == "point":
        return EigenvalueEntry(value, INF)
    # the moduli of value + d grow with d when Re(value) >= 0, and those of
    # value - d then fall while d < |value|
    outward = ABOVE if value.real >= 0.0 else BELOW
    side = outward if form == "above" else _OTHER_SIDE[outward]
    head = modulus * rng.choice((0.05, 0.2))
    deltas = rng.choice((DecaySequence.geometric(head, 0.5), DecaySequence.harmonic(head)))
    return Cluster(value, side, deltas)


def _near_model(rng, kind, modulus):
    """A hand-built model: up to two finite points and, six times in seven,
    one essential value of the given modulus."""
    points = [EigenvalueEntry(complex(rng.choice((0.25, 0.75, 1.25, 4.5)) * modulus),
                              rng.randint(1, 3))
              for _ in range(rng.randint(0, 2))]
    form = rng.choice(("point", "point", "above", "above", "above", "below", None))
    clusters = []
    if form == "point":
        points.append(_essential(rng, kind, modulus, form))
    elif form:
        clusters.append(_essential(rng, kind, modulus, form))
    return SpectrumModel(kind, tuple(points), tuple(clusters))


def _near_pairs(count):
    """``count`` seeded pairs whose essential moduli lie ``OFFSETS`` apart."""
    rng = random.Random("laws: near pairs")
    pairs = []
    for i in range(count):
        modulus = rng.choice((0.5, 1.0, 2.0, 3.75))
        offset = OFFSETS[i % len(OFFSETS)] * MERGE_TOL
        pairs.append((_near_model(rng, rng.choice(KINDS), modulus),
                      _near_model(rng, rng.choice(KINDS), modulus + offset)))
    return pairs


def direct_sum(a, b):
    """A + B on orthogonal spaces, of the wider kind of the two."""
    kind = max(a.kind, b.kind, key=KINDS.index)
    return SpectrumModel(kind, a.points + b.points, a.clusters + b.clusters)


def _expected_sum_verdict(a, b) -> bool:
    if not (_is_an(a) and _is_an(b)):
        return False
    if is_finite_dimensional(a) or is_finite_dimensional(b):
        return True
    gap = moduli_report(a).essential_min_modulus - moduli_report(b).essential_min_modulus
    return abs(gap) <= MERGE_TOL


def rotated(model, w):
    """``w*T`` for a unit w: every value turned; a cluster only by -1, which
    turns ``L + d`` into ``-L - d``."""
    points = tuple(EigenvalueEntry(w * p.value, p.mult) for p in model.points)
    clusters = tuple(Cluster(-cl.limit, _OTHER_SIDE[cl.side], cl.deltas)
                     for cl in model.clusters)
    assert w == -1 or not clusters
    return SpectrumModel(SELF_ADJOINT if w == -1 and model.kind != NORMAL else NORMAL,
                         points, clusters)


def shifted(model, b):
    """``T + b*I`` for a positive model and a real b."""
    points = tuple(EigenvalueEntry(p.value + b, p.mult) for p in model.points)
    clusters = tuple(Cluster(cl.limit + b, cl.side, cl.deltas) for cl in model.clusters)
    return SpectrumModel(POSITIVE, points, clusters)


def _reductions(item):
    """What a sub-model may keep of one item, ``None`` for dropping it."""
    if isinstance(item, EigenvalueEntry):
        return [None] + [EigenvalueEntry(item.value, m) for m in (1, 2) if m < item.mult]
    terms = item.deltas.terms(MATERIALIZE_DEPTH)
    return [None,
            Cluster(item.limit, item.side, DecaySequence.explicit(terms[::2], terminating=False)),
            Cluster(item.limit, item.side, DecaySequence.explicit(terms[:3]))]


def _model_of(kind, items):
    return SpectrumModel(kind, tuple(i for i in items if isinstance(i, EigenvalueEntry)),
                         tuple(i for i in items if isinstance(i, Cluster)))


def sub_models(model, rng):
    """Each one-item reduction of ``model``, and one reduction of every item
    at random."""
    items = model.points + model.clusters
    subs = [_model_of(model.kind, items[:i] + (r,) + items[i + 1:])
            for i, item in enumerate(items) for r in _reductions(item)]
    mixed = [rng.choice([item] + _reductions(item)) for item in items]
    return subs + [_model_of(model.kind, mixed)]


@pytest.fixture(scope="module")
def seeded():
    """Every lawful model of the generator families, ``SEEDS`` seeds each."""
    return [model for family in ("all", "violators") + KINDS
            for _, _, model in seeded_models(family, SEEDS, 7)
            if _lawful(model)]


@pytest.fixture(scope="module")
def near():
    """The hand-built pairs and their direct sums, which carry two essential
    values a few ``MERGE_TOL`` apart."""
    pairs = [(a, b) for a, b in _near_pairs(1200) if _lawful(a) and _lawful(b)]
    return pairs, [direct_sum(a, b) for a, b in pairs]


@pytest.fixture(scope="module")
def apart():
    """Hand-built models with essential values at least ``3 * MERGE_TOL``
    apart: the near pairs' parts, and the sums of the pairs set that far
    apart."""
    pairs = _near_pairs(1200)
    sums = [direct_sum(a, b) for i, (a, b) in enumerate(pairs)
            if OFFSETS[i % len(OFFSETS)] >= 3.0]
    return [m for m in [m for pair in pairs for m in pair] + sums if _lawful(m)]


def _broken(law, models):
    """The models on which ``law(model)`` disagrees with the model's verdict."""
    return [m for m in models if law(m) != _is_an(m)]


def test_cases_hold_both_verdicts_and_both_sides_of_the_merge_rule(seeded, near):
    pairs, sums = near
    verdicts = [_is_an(m) for m in seeded + sums]
    assert 0.25 < sum(verdicts) / len(verdicts) < 0.75
    # hand-built pairs of AN infinite-dimensional models fall on both sides
    # of the merge rule
    both = [(a, b) for a, b in pairs
            if not (is_finite_dimensional(a) or is_finite_dimensional(b))
            and _is_an(a) and _is_an(b)]
    joined = sum(_expected_sum_verdict(a, b) for a, b in both)
    assert joined > 100 and len(both) - joined > 100


def test_direct_sum_law(seeded, near):
    rng = random.Random("laws: seeded pairs")
    pairs = near[0] + [(rng.choice(seeded), rng.choice(seeded)) for _ in range(3000)]
    broken = [(a, b) for a, b in pairs
              if _is_an(direct_sum(a, b)) != _expected_sum_verdict(a, b)]
    assert len(pairs) >= 2000
    assert broken == []


def test_positive_shift_law(seeded, near):
    models = [m for m in seeded + near[1] if m.kind == POSITIVE]
    cases = [(m, b) for m in models for b in (0.1, 1.0, 7.0)]
    broken = [(m, b) for m, b in cases if _is_an(shifted(m, b)) != _is_an(m)]
    assert len(cases) >= 2000
    assert broken == []


def test_gram_law(seeded):
    broken = _broken(lambda m: _is_an(gram_spectrum(m)), seeded)
    assert len(seeded) >= 2000
    assert broken == []


def test_modulus_law(seeded, near):
    models = seeded + near[1]
    assert len(models) >= 2000
    assert _broken(lambda m: _is_an(modulus_spectrum(m)), models) == []


def test_adjoint_law(seeded, near):
    models = seeded + near[1]
    assert len(models) >= 2000
    assert _broken(lambda m: _is_an(adjoint_spectrum(m)), models) == []


def test_negation_law(seeded, near):
    models = seeded + near[1]
    assert len(models) >= 2000
    assert _broken(lambda m: _is_an(rotated(m, -1)), models) == []


def test_rotation_law_on_cluster_free_models(seeded, near):
    models = [m for m in seeded + near[1] if not m.clusters]
    cases = [(m, cmath.exp(1j * theta)) for m in models for theta in ANGLES]
    broken = [(m, w) for m, w in cases if _is_an(rotated(m, w)) != _is_an(m)]
    assert len(cases) >= 2000
    assert broken == []


def test_heredity_law(seeded, apart):
    rng = random.Random("laws: heredity")
    models = [m for m in seeded + apart if _is_an(m)]
    broken = [(m, sub) for m in models for sub in sub_models(m, rng) if not _is_an(sub)]
    assert len(models) >= 2000
    assert broken == []


def test_two_item_witness_law(seeded, apart):
    violators = [m for _, _, m in seeded_models("violators", 2000, 7 + SEEDS) if _lawful(m)]
    models = [m for m in seeded + apart + violators if not _is_an(m)]
    broken = []
    for m in models:
        items = m.points + m.clusters
        codes = {code for size in (1, 2) for sub in itertools.combinations(items, size)
                 for code in classify(_model_of(m.kind, sub)).violations}
        if codes != set(classify(m).violations):
            broken.append(m)
    assert len(models) >= 2000
    assert broken == []
