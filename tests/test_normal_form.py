"""The normal form against a reference copy of its general path.

``SpectrumModel`` keeps input that is already in normal form as it is, and a
positive model with no negative value is its own modulus.  The references
below are the general path alone: every value through ``close_groups``,
every merged cluster validated again, every modulus rebuilt.  Points,
clusters, verdicts and moduli reports must match them ``repr`` for ``repr``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from anop.errors import MalformedModelError
from anop.model import (
    ABOVE, BELOW, INF, KINDS, NORMAL, POSITIVE, SELF_ADJOINT, Cluster, EigenvalueEntry,
    SpectrumModel, _as_mult, _as_value, _validate_cluster, classify,
    descending_prefix, modulus_spectrum, moduli_report)
from anop.oracle import FAMILIES, seeded_models
from anop.sequences import (
    MATERIALIZE_DEPTH, MERGE_TOL, DecaySequence, close_groups, merge_sequences)


def _unbuilt(kind, points, clusters):
    """A model holding these fields as given, its normal form not run."""
    m = object.__new__(SpectrumModel)
    m.__dict__.update(kind=kind, points=points, clusters=clusters)
    return m


def reference_model(kind, points, clusters):
    """The general path of ``SpectrumModel.__post_init__``."""
    if kind not in KINDS:
        raise MalformedModelError(f"unknown model kind {kind!r}")
    point_items = [(_as_value(p.value, kind), _as_mult(p.mult)) for p in points]
    survivors = []
    for cl in clusters:
        cl = _validate_cluster(cl, kind)
        if cl.deltas.terminating:
            point_items += [(m, 1) for m in cl.members(len(cl.deltas.terms_))]
        else:
            survivors.append(cl)
    merged_points = tuple(
        EigenvalueEntry(g[0][0], sum(m for _, m in g))
        for g in close_groups(point_items, key=lambda it: it[0]))
    merged_clusters = []
    for group in close_groups(survivors, key=lambda cl: cl.limit):
        for side in (ABOVE, BELOW):
            same = [cl.deltas for cl in group if cl.side == side]
            if same:
                deltas = same[0] if len(same) == 1 else merge_sequences(same)
                merged_clusters.append(_validate_cluster(
                    Cluster(group[0].limit, side, deltas), kind))
    return _unbuilt(kind, merged_points, tuple(merged_clusters))


def reference_mapped_cluster(cl, fn):
    """``mapped_cluster`` with the members built first."""
    try:
        base = fn(cl.limit)
        diffs = [fn(m) - base for m in cl.members(MATERIALIZE_DEPTH)]
    except OverflowError:
        raise MalformedModelError(
            f"image of the cluster at {cl.limit} overflows a float") from None
    mags = descending_prefix(abs(d) for d in diffs)
    if not mags:
        raise MalformedModelError(
            f"image of the cluster at {cl.limit} is below float resolution")
    return Cluster(complex(base, 0.0), ABOVE if diffs[0] > 0 else BELOW,
                   DecaySequence.explicit(mags, terminating=False))


def reference_modulus(model):
    """``_modulus_model``, rebuilt through the general path every time."""
    def modulus_cluster(cl):
        if cl.limit.imag != 0.0:
            return reference_mapped_cluster(cl, abs)
        r = cl.limit.real
        if r > 0.0:
            side = cl.side
        elif r < 0.0:
            side = BELOW if cl.side == ABOVE else ABOVE
        else:
            side = ABOVE
        return Cluster(complex(abs(cl.limit), 0.0), side, cl.deltas)

    points = [EigenvalueEntry(complex(abs(p.value), 0.0), p.mult) for p in model.points]
    clusters = tuple(modulus_cluster(cl) for cl in model.clusters)
    return reference_model(POSITIVE, tuple(points), clusters)


def _outcome(fn, *args):
    """``fn(*args)``, or None and the message of the MALFORMED it raises."""
    try:
        return fn(*args), None
    except MalformedModelError as exc:
        return None, str(exc)


def assert_matches_reference(kind, points, clusters):
    got, got_error = _outcome(SpectrumModel, kind, points, clusters)
    want, want_error = _outcome(reference_model, kind, points, clusters)
    assert got_error == want_error
    if want is None:
        return
    assert repr(got.points) == repr(want.points)
    assert repr(got.clusters) == repr(want.clusters)
    assert got == want
    want_modulus, want_error = _outcome(reference_modulus, want)
    verdict, got_error = _outcome(classify, got)
    assert got_error == want_error
    if want_modulus is None:
        return
    want.__dict__["_modulus"] = want_modulus  # what classify(want) reads
    assert repr(verdict) == repr(classify(want))
    assert repr(moduli_report(got)) == repr(moduli_report(want))


@pytest.mark.parametrize("family", ("all", "violators") + FAMILIES)
def test_seeded_models_match_the_reference(family, monkeypatch):
    """Every model the generators build for seeds 0-599, from the raw fields
    each build was given."""
    raw = []
    post_init = SpectrumModel.__post_init__

    def recorded(self):
        raw.append((self.kind, self.points, self.clusters))
        post_init(self)

    monkeypatch.setattr(SpectrumModel, "__post_init__", recorded)
    assert len(list(seeded_models(family, 600))) == 600
    monkeypatch.undo()
    assert len(raw) >= 600
    for kind, points, clusters in raw:
        assert_matches_reference(kind, points, clusters)


#: values near five anchors (zero of either sign among them), at steps of
#: the merge tolerance scaled by 1 - 1e-6, 1 or 1 + 1e-6: chains that merge
#: and gaps that only just keep apart
near = st.builds(lambda base, k, f: base + k * MERGE_TOL * f if k else base,
                 st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                 st.integers(min_value=-2, max_value=2),
                 st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6]))
near_imag = st.sampled_from([0.0, -0.0, MERGE_TOL * (1 - 1e-6), MERGE_TOL * (1 + 1e-6), 1.0])
deltas = st.one_of(
    st.builds(DecaySequence.geometric,
              st.sampled_from([0.25, MERGE_TOL * (1 - 1e-6), MERGE_TOL * (1 + 1e-6)]),
              st.sampled_from([0.5, 0.25])),
    st.builds(DecaySequence.harmonic, st.sampled_from([0.25, 1e-9])),
    st.builds(lambda terms, end: DecaySequence.explicit(terms, terminating=end),
              st.sampled_from([[0.25, 0.125], [2 * MERGE_TOL, MERGE_TOL * (1 + 1e-6)],
                               [MERGE_TOL * (1 - 1e-6)]]),
              st.booleans()))


@st.composite
def raw_items(draw):
    """Unsorted points and clusters of any kind; a normal model's values
    may be complex, and limits come from one small pool, so clusters share
    a limit on one side or on both."""
    kind = draw(st.sampled_from(KINDS))
    values = st.builds(complex, near, near_imag) if kind == NORMAL else near
    points = draw(st.lists(st.builds(EigenvalueEntry, values,
                                     st.sampled_from([1, 2, 3, INF])), max_size=6))
    clusters = draw(st.lists(st.builds(Cluster, values, st.sampled_from([ABOVE, BELOW]),
                                       deltas), max_size=4))
    return kind, tuple(points), tuple(clusters)


@settings(max_examples=400, deadline=None)
@given(raw_items())
def test_raw_items_match_the_reference(raw):
    kind, points, clusters = raw
    assert_matches_reference(kind, points, clusters)
    built, _ = _outcome(SpectrumModel, kind, points, clusters)
    if built is not None:  # a built model rebuilt: the path kept as given
        assert_matches_reference(kind, built.points, built.clusters)


GEO = DecaySequence.geometric(0.25, 0.5)


@pytest.mark.parametrize("points,clusters", [
    ((EigenvalueEntry(1.0, 2), EigenvalueEntry(0.0, INF)), ()),
    ((EigenvalueEntry(3.0, 1),), (Cluster(0.0, ABOVE, GEO), Cluster(2.0, BELOW, GEO))),
    ((), (Cluster(1.0, ABOVE, GEO), Cluster(1.0, BELOW, GEO))),
], ids=["zero point", "cluster at zero from above", "one limit on both sides"])
def test_a_nonnegative_positive_model_is_its_own_modulus(points, clusters):
    m = SpectrumModel(POSITIVE, points, clusters)
    assert modulus_spectrum(m) is m
    classify(m)
    moduli_report(m)
    assert "_modulus" not in vars(m)
    assert repr(m) == repr(reference_modulus(m))


@pytest.mark.parametrize("kind,points,clusters", [
    (POSITIVE, (EigenvalueEntry(-0.0, 1), EigenvalueEntry(1.0, 1)), ()),
    (POSITIVE, (EigenvalueEntry(-0.5, 1),), (Cluster(1.0, ABOVE, GEO),)),
    (POSITIVE, (EigenvalueEntry(1.0, 1),), (Cluster(0.0, BELOW, GEO),)),
    (SELF_ADJOINT, (EigenvalueEntry(1.0, 2),), (Cluster(0.5, ABOVE, GEO),)),
], ids=["negative zero", "negative point", "cluster at zero from below", "selfadjoint"])
def test_any_other_model_builds_a_fresh_modulus(kind, points, clusters):
    m = SpectrumModel(kind, points, clusters)
    mod = modulus_spectrum(m)
    assert mod is not m and vars(m)["_modulus"] is mod
    assert modulus_spectrum(m) is mod
    assert repr(mod) == repr(reference_modulus(m))
    assert all(math.copysign(1.0, p.value.real) > 0.0 for p in mod.points)
