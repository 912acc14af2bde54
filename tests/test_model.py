import math

import pytest
from hypothesis import given, strategies as st

from anop.errors import MalformedModelError
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    LIMIT_FROM_BELOW,
    LIMIT_NEQ_INFINITE_MULT,
    MULTIPLE_INFINITE_MULTIPLICITIES,
    MULTIPLE_LIMIT_POINTS,
    NEGATIVE_VALUE,
    VIOLATION_ORDER,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
    is_finite_dimensional,
    moduli_report,
    modulus_spectrum,
    normalize_model,
    descending_prefix,
)
from anop.sequences import DecaySequence

from conftest import positive_points, same_model


GEO = DecaySequence.geometric(0.125, 0.5)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_merges_nearby_points():
    m = SpectrumModel(POSITIVE, (
        EigenvalueEntry(1.0 + 0j, 2),
        EigenvalueEntry(1.0 + 5e-10 + 0j, 3),
        EigenvalueEntry(2.0 + 0j, 1),
    ))
    assert len(m.points) == 2
    assert m.points[0].mult == 5
    assert abs(m.points[0].value - 1.0) <= 5e-10


def test_normalize_expands_terminating_clusters():
    # a terminating explicit cluster is sugar for finitely many eigenvalues
    m = SpectrumModel(POSITIVE, (), (
        Cluster(2.0 + 0j, ABOVE, DecaySequence.explicit([0.5, 0.25])),))
    assert m.clusters == ()
    assert [p.value.real for p in m.points] == [2.25, 2.5]
    assert sum(p.mult for p in m.points) == 2
    assert is_finite_dimensional(m)


def test_normalize_keeps_non_terminating_explicit_clusters():
    m = SpectrumModel(POSITIVE, (), (
        Cluster(2.0 + 0j, ABOVE,
                DecaySequence.explicit([0.5, 0.25], terminating=False)),))
    assert len(m.clusters) == 1
    assert not is_finite_dimensional(m)


def test_normalize_merges_cluster_slots():
    m = SpectrumModel(POSITIVE, (), (
        Cluster(1.0 + 0j, ABOVE, DecaySequence.geometric(0.1, 0.5)),
        Cluster(1.0 + 0j, ABOVE, DecaySequence.geometric(0.05, 0.5)),
    ))
    assert len(m.clusters) == 1
    ts = m.clusters[0].deltas.terms(4)
    assert ts[0] == 0.1 and ts[1] == 0.05


def test_normalize_is_idempotent():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(-2.0 + 0j, INF),
        EigenvalueEntry(3.0 + 0j, 1),
    ), (Cluster(2.0 + 0j, ABOVE, GEO),))
    assert SpectrumModel(m.kind, m.points, m.clusters) == m


def test_normalize_model_is_the_identity():
    m = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(2.0 + 0j, 1),),
                      (Cluster(1.0 + 0j, ABOVE, GEO),))
    assert normalize_model(m) is m


def test_merged_clusters_are_checked_at_their_shared_limit():
    # each below-side cluster stays above zero at its own limit, but the one
    # at 1 + 0.9e-9 reaches below zero from the merged limit 1
    with pytest.raises(MalformedModelError):
        SpectrumModel(SELF_ADJOINT, (), (
            Cluster(1.0 + 0j, BELOW, DecaySequence.geometric(1.0, 0.5)),
            Cluster(1.0 + 9e-10 + 0j, BELOW,
                    DecaySequence.geometric(1.0 + 1.8e-9, 0.5))))


def test_normalize_rejects_unknown_kind():
    with pytest.raises(MalformedModelError):
        SpectrumModel("unitary", ())


def test_normalize_rejects_bad_multiplicity():
    with pytest.raises(MalformedModelError):
        positive_points((1.0, 0))
    with pytest.raises(MalformedModelError):
        positive_points((1.0, 1.5))
    with pytest.raises(MalformedModelError):
        positive_points((1.0, True))


def test_real_kinds_reject_complex_values():
    with pytest.raises(MalformedModelError):
        SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(1 + 1j, 1),))
    # the same value is fine on a normal model
    SpectrumModel(NORMAL, (EigenvalueEntry(1 + 1j, 1),))


def test_cluster_members_must_not_cross_zero():
    # above-side deltas at a negative limit may touch zero but not pass it
    SpectrumModel(SELF_ADJOINT, (), (
        Cluster(-1.0 + 0j, ABOVE, DecaySequence.geometric(1.0, 0.5)),))
    with pytest.raises(MalformedModelError):
        SpectrumModel(SELF_ADJOINT, (), (
            Cluster(-1.0 + 0j, ABOVE, DecaySequence.geometric(1.5, 0.5)),))
    with pytest.raises(MalformedModelError):
        SpectrumModel(POSITIVE, (), (
            Cluster(1.0 + 0j, BELOW, DecaySequence.geometric(1.5, 0.5)),))


# ---------------------------------------------------------------------------
# modulus reduction


def test_descending_prefix_cuts_at_floor():
    assert descending_prefix([0.5, 0.25, 0.25, 0.1]) == (0.5, 0.25)
    assert descending_prefix([0.5, 0.0]) == (0.5,)
    assert descending_prefix([]) == ()


def test_modulus_maps_negative_values():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(-2.0 + 0j, 1),
        EigenvalueEntry(2.0 + 0j, 3),
    ))
    mod = modulus_spectrum(m)
    assert mod.kind == POSITIVE
    assert len(mod.points) == 1
    assert mod.points[0].value == 2.0 + 0j
    assert mod.points[0].mult == 4


def test_modulus_flips_cluster_side_at_negative_limits():
    m = SpectrumModel(SELF_ADJOINT, (), (
        Cluster(-2.0 + 0j, BELOW, GEO),))
    mod = modulus_spectrum(m)
    cl = mod.clusters[0]
    assert cl.limit == 2.0 + 0j
    assert cl.side == ABOVE
    assert cl.deltas == GEO


def test_modulus_zero_limit_maps_above():
    m = SpectrumModel(SELF_ADJOINT, (), (Cluster(0j, BELOW, GEO),))
    cl = modulus_spectrum(m).clusters[0]
    assert cl.limit == 0j and cl.side == ABOVE


def test_modulus_materializes_complex_limits():
    limit = 2j
    m = SpectrumModel(NORMAL, (), (Cluster(limit, ABOVE, GEO),))
    cl = modulus_spectrum(m).clusters[0]
    assert cl.limit == 2.0 + 0j
    assert cl.side == ABOVE
    # member moduli sqrt(4 + d^2) re-presented explicitly
    expect = abs(2j + GEO.terms(1)[0]) - 2.0
    assert abs(cl.deltas.terms(1)[0] - expect) < 1e-15
    assert not cl.deltas.terminating


# ---------------------------------------------------------------------------
# classification table


def test_finite_models_are_an():
    v = classify(positive_points((3.0, 2), (1.0, 5)))
    assert v.is_an and v.violations == ()


def test_single_infinite_value_is_an():
    v = classify(positive_points((2.0, INF), (3.0, 1)))
    assert v.is_an


def test_single_above_cluster_is_an():
    m = SpectrumModel(POSITIVE, (), (Cluster(2.0 + 0j, ABOVE, GEO),))
    assert classify(m).is_an


def test_cluster_matching_infinite_value_is_an():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(2.0 + 0j, INF),),
                      (Cluster(2.0 + 0j, ABOVE, GEO),))
    assert classify(m).is_an


def test_two_limit_points_refused():
    m = SpectrumModel(POSITIVE, (), (
        Cluster(1.0 + 0j, ABOVE, GEO),
        Cluster(2.0 + 0j, ABOVE, GEO),
    ))
    v = classify(m)
    assert not v.is_an
    assert v.violations == (MULTIPLE_LIMIT_POINTS,)


def test_limit_from_below_refused():
    m = SpectrumModel(POSITIVE, (), (Cluster(1.0 + 0j, BELOW, GEO),))
    assert classify(m).violations == (LIMIT_FROM_BELOW,)


def test_two_infinite_multiplicities_refused():
    m = positive_points((1.0, INF), (2.0, INF))
    assert classify(m).violations == (MULTIPLE_INFINITE_MULTIPLICITIES,)


def test_limit_point_must_match_infinite_value():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(3.0 + 0j, INF),),
                      (Cluster(1.5 + 0j, ABOVE, GEO),))
    assert classify(m).violations == (LIMIT_NEQ_INFINITE_MULT,)


def test_negative_value_refused_even_on_finite_models():
    v = classify(positive_points((-0.5, 1), (1.0, 1)))
    assert not v.is_an
    assert v.violations == (NEGATIVE_VALUE,)


def test_violations_come_in_canonical_order():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(-1.0 + 0j, 1),), (
        Cluster(1.0 + 0j, ABOVE, GEO),
        Cluster(2.0 + 0j, BELOW, GEO),
    ))
    v = classify(m)
    assert v.violations == (NEGATIVE_VALUE, MULTIPLE_LIMIT_POINTS,
                            LIMIT_FROM_BELOW)
    assert list(v.violations) == [c for c in VIOLATION_ORDER
                                  if c in v.violations]


def test_symmetric_selfadjoint_sinks_collapse_to_one():
    # +alpha and -alpha infinite values share one modulus, so the model is AN
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(2.0 + 0j, INF),
        EigenvalueEntry(-2.0 + 0j, INF),
        EigenvalueEntry(3.0 + 0j, 1),
    ))
    v = classify(m)
    assert v.is_an
    assert len([p for p in v.modulus_collapsed.points if p.is_infinite()]) == 1


def test_negative_limit_cluster_on_selfadjoint_is_an():
    m = SpectrumModel(SELF_ADJOINT, (), (
        Cluster(-2.0 + 0j, BELOW, GEO),))
    assert classify(m).is_an


# ---------------------------------------------------------------------------
# moduli report


def test_moduli_report_plain():
    r = moduli_report(positive_points((3.0, 1), (0.5, 2)))
    assert r.operator_norm == 3.0
    assert r.min_modulus == 0.5
    assert r.norm_attained
    assert r.finite_dim
    assert r.essential_min_modulus == 0.5  # fallback on finite models


def test_moduli_report_below_cluster_norm_not_attained():
    m = SpectrumModel(POSITIVE, (), (
        Cluster(1.0 + 0j, BELOW, DecaySequence.geometric(0.125, 0.5)),))
    r = moduli_report(m)
    assert r.operator_norm == 1.0
    assert not r.norm_attained
    assert r.min_modulus == 0.875  # head of the tail
    assert r.essential_min_modulus == 1.0


def test_moduli_report_above_cluster_attains():
    m = SpectrumModel(POSITIVE, (), (
        Cluster(2.0 + 0j, ABOVE, DecaySequence.geometric(0.125, 0.5)),))
    r = moduli_report(m)
    assert r.operator_norm == 2.125
    assert r.norm_attained
    assert r.min_modulus == 2.0  # infimum of the decaying tail
    assert not r.finite_dim


def test_moduli_report_empty_model():
    r = moduli_report(SpectrumModel(POSITIVE, ()))
    assert r.operator_norm == 0.0 and r.finite_dim


# ---------------------------------------------------------------------------
# properties


values = st.floats(min_value=0.05, max_value=8.0)
mults = st.one_of(st.integers(min_value=1, max_value=4), st.just(INF))


@st.composite
def small_positive_models(draw):
    pairs = draw(st.lists(st.tuples(values, mults), min_size=1, max_size=5))
    points = tuple(EigenvalueEntry(complex(v, 0.0), m) for v, m in pairs)
    clusters = ()
    if draw(st.booleans()):
        limit = draw(values)
        side = draw(st.sampled_from([ABOVE, BELOW]))
        head = min(limit / 2, draw(st.floats(min_value=0.01, max_value=1.0)))
        clusters = (Cluster(complex(limit, 0.0), side,
                            DecaySequence.geometric(head, 0.5)),)
    return SpectrumModel(POSITIVE, points, clusters)


#: values on chains of MERGE_TOL/2 steps, which merge only as whole chains
chained = st.builds(lambda base, k: base + k * 0.5e-9,
                    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 1.5, 2.0]),
                    st.integers(min_value=0, max_value=4))
raw_deltas = st.one_of(
    st.builds(DecaySequence.geometric, st.sampled_from([0.5, 0.25, 0.125]),
              st.sampled_from([0.5, 0.25])),
    st.builds(DecaySequence.harmonic, st.sampled_from([0.5, 0.25])),
    st.builds(lambda n, end: DecaySequence.explicit(
        [0.5 ** (k + 1) for k in range(n)], terminating=end),
        st.integers(min_value=1, max_value=4), st.booleans()))


@st.composite
def raw_models(draw):
    """Unnormalized self-adjoint or normal inputs: points and clusters on
    chains, terminating explicit clusters among them, in any order."""
    kind = draw(st.sampled_from([SELF_ADJOINT, NORMAL]))
    if kind == NORMAL:
        spectral = st.builds(complex, chained, st.sampled_from([0.0, 0.5e-9, 1.0]))
    else:
        spectral = st.builds(complex, chained)
    points = draw(st.lists(st.builds(EigenvalueEntry, spectral, mults), max_size=8))
    # limits keep their real part away from zero, so no cluster crosses it
    limits = spectral.filter(lambda v: abs(v.real) >= 1.0)
    clusters = draw(st.lists(st.builds(Cluster, limits, st.sampled_from([ABOVE, BELOW]),
                                       raw_deltas), max_size=5))
    return kind, points, clusters


@given(raw_models(), st.data())
def test_models_are_built_normal_and_order_free(raw, data):
    kind, points, clusters = raw
    m = SpectrumModel(kind, tuple(points), tuple(clusters))
    assert SpectrumModel(m.kind, m.points, m.clusters) == m
    shuffled = SpectrumModel(kind, tuple(data.draw(st.permutations(points))),
                             tuple(data.draw(st.permutations(clusters))))
    assert shuffled == m


@given(small_positive_models())
def test_classify_stable_under_normalization(m):
    v1 = classify(m)
    v2 = classify(SpectrumModel(m.kind, m.points, m.clusters))
    assert v1.is_an == v2.is_an
    assert v1.violations == v2.violations


@given(small_positive_models())
def test_modulus_spectrum_is_positive_and_idempotent(m):
    mod = modulus_spectrum(m)
    assert mod.kind == POSITIVE
    assert all(p.value.real >= 0.0 and p.value.imag == 0.0 for p in mod.points)
    assert same_model(modulus_spectrum(mod), mod, tol=1e-12)


@given(small_positive_models())
def test_norm_bounds_every_materialized_value(m):
    r = moduli_report(m)
    members = [mm for cl in m.clusters for mm in cl.members(16)]
    for v in [p.value for p in m.points] + members:
        assert abs(v) <= r.operator_norm + 1e-12
