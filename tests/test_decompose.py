import math

import pytest

from anop.decompose import (
    PositiveTriple,
    decompose_positive,
    recompose,
    square_triple,
    sqrt_triple,
    invert_triple,
    structure_selfadjoint,
    structure_normal,
    gram_spectrum,
    adjoint_spectrum,
    imaginary_shift,
    fredholm_report,
)
from anop.errors import (
    AlphaZeroError,
    MalformedModelError,
    NegativeValueError,
    NotANError,
    NotInjectiveError,
    WrongKindError,
)
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
)
from anop.sequences import DecaySequence

from conftest import positive_points, same_model, same_triple


GEO = DecaySequence.geometric(0.125, 0.5)


def full_model():
    """Points on both sides of the essential level plus a cluster at it."""
    return SpectrumModel(POSITIVE, (
        EigenvalueEntry(3.5 + 0j, 1),
        EigenvalueEntry(1.0 + 0j, 1),
        EigenvalueEntry(0.25 + 0j, 2),
    ), (Cluster(2.0 + 0j, ABOVE, GEO),))


# ---------------------------------------------------------------------------
# decomposition and recomposition


def test_decompose_splits_at_the_essential_level():
    t = decompose_positive(full_model())
    assert t.alpha == 2.0
    assert [p.value.real for p in t.k_entries.points] == [1.5]
    assert t.k_entries.clusters
    assert t.k_entries.clusters[0].limit == 0j
    assert t.k_entries.clusters[0].deltas == GEO
    assert [(e.value.real, e.mult) for e in t.f_entries] == [(1.0, 1), (1.75, 2)]
    assert t.identity_multiplicity == 0


def test_decompose_counts_identity_directions():
    m = positive_points((2.0, INF), (2.0, 3), (3.0, 1))
    t = decompose_positive(m)
    assert t.alpha == 2.0
    assert t.identity_multiplicity == INF  # merged with the explicit triple


def test_decompose_compact_only_model():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(1.0 + 0j, 2),),
                      (Cluster(0j, ABOVE, GEO),))
    t = decompose_positive(m)
    assert t.alpha == 0.0
    assert t.f_entries == ()
    assert t.k_entries.clusters


def test_decompose_requires_positive_kind():
    m = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(-1.0 + 0j, 1),))
    with pytest.raises(WrongKindError):
        decompose_positive(m)


def test_decompose_rejects_negative_values():
    with pytest.raises(NegativeValueError):
        decompose_positive(positive_points((-1.0, 1), (2.0, INF)))


def test_decompose_rejects_non_an_models():
    m = positive_points((1.0, INF), (2.0, INF))
    with pytest.raises(NotANError):
        decompose_positive(m)


def test_recompose_round_trip():
    m = full_model()
    t = decompose_positive(m)
    assert same_model(recompose(t), m)
    assert same_triple(decompose_positive(recompose(t)), t)


def test_recompose_places_cluster_at_alpha():
    t = decompose_positive(full_model())
    r = recompose(t)
    assert len(r.clusters) == 1
    assert r.clusters[0].limit == 2.0 + 0j
    assert r.clusters[0].side == ABOVE


# ---------------------------------------------------------------------------
# triple validation


def test_triple_validates_alpha():
    with pytest.raises(MalformedModelError):
        PositiveTriple(-1.0, SpectrumModel(POSITIVE, ()), (), 0)
    with pytest.raises(MalformedModelError):
        PositiveTriple(math.inf, SpectrumModel(POSITIVE, ()), (), 0)


def test_triple_compact_part_must_be_finite_mult():
    k = positive_points((1.0, INF))
    with pytest.raises(MalformedModelError):
        PositiveTriple(2.0, k, (), 0)


def test_triple_compact_cluster_must_decay_to_zero():
    k = SpectrumModel(POSITIVE, (), (Cluster(1.0 + 0j, ABOVE, GEO),))
    with pytest.raises(MalformedModelError):
        PositiveTriple(2.0, k, (), 0)
    k = SpectrumModel(POSITIVE, (), (Cluster(0j, BELOW, GEO),))
    with pytest.raises(MalformedModelError):
        PositiveTriple(2.0, k, (), 0)


def test_triple_finite_part_bounded_by_alpha():
    f = (EigenvalueEntry(2.5 + 0j, 1),)
    with pytest.raises(MalformedModelError):
        PositiveTriple(2.0, SpectrumModel(POSITIVE, ()), f, 0)
    # exactly alpha is allowed: those directions form the kernel
    t = PositiveTriple(2.0, SpectrumModel(POSITIVE, ()),
                       (EigenvalueEntry(2.0 + 0j, 3),), 0)
    assert t.kernel_multiplicity() == 3
    assert not t.is_injective()


def test_triple_no_finite_part_without_shift():
    f = (EigenvalueEntry(0.5 + 0j, 1),)
    with pytest.raises(MalformedModelError):
        PositiveTriple(0.0, SpectrumModel(POSITIVE, ()), f, 0)


def test_triple_kernel_at_zero_shift_is_the_identity_block():
    t = PositiveTriple(0.0, positive_points((1.0, 1)), (), 4)
    assert t.kernel_multiplicity() == 4
    assert t.is_finite_dimensional()


# ---------------------------------------------------------------------------
# square and square root


def test_square_maps_each_part():
    t = decompose_positive(full_model())
    sq = square_triple(t)
    assert sq.alpha == 4.0
    # k: 1.5 -> 1.5^2 + 2*2*1.5
    assert abs(sq.k_entries.points[0].value.real - (1.5 ** 2 + 6.0)) < 1e-15
    # f: descending after the map since 2*a*f - f^2 is increasing on (0, a]
    got = [e.value.real for e in sq.f_entries]
    assert got == sorted(got)
    assert abs(got[0] - (2 * 2 * 1.0 - 1.0)) < 1e-15


def test_square_then_sqrt_is_identity():
    t = decompose_positive(full_model())
    assert same_triple(sqrt_triple(square_triple(t)), t)


def test_square_agrees_with_squared_spectrum():
    m = full_model()
    t = decompose_positive(m)
    via_triple = square_triple(t)
    via_spectrum = decompose_positive(gram_spectrum(m))
    assert same_triple(via_triple, via_spectrum)


def test_square_preserves_identity_multiplicity():
    t = PositiveTriple(2.0, positive_points((1.0, 1)), (), INF)
    assert square_triple(t).identity_multiplicity == INF


# ---------------------------------------------------------------------------
# inversion


def test_invert_reciprocal_eigenvalues():
    t = decompose_positive(full_model())
    form = invert_triple(t)
    assert form.beta == 0.5
    # beta - k1 = 1/(alpha + k) entrywise
    k1 = form.k1_entries[0].value.real
    assert abs((form.beta - k1) - 1.0 / 3.5) < 1e-15
    for e, g in zip(t.f_entries, form.f1_entries):
        assert abs((form.beta + g.value.real)
                   - 1.0 / (t.alpha - e.value.real)) < 1e-15
        assert e.mult == g.mult
    # cluster deltas map term by term
    src = t.k_entries.clusters[0].deltas.terms(8)
    img = form.k1_clusters[0].deltas.terms(8)
    for d, d1 in zip(src, img):
        assert abs((form.beta - d1) - 1.0 / (t.alpha + d)) < 1e-15


def test_invert_norm_bound():
    t = decompose_positive(full_model())
    form = invert_triple(t)
    tops = [p.value.real for p in form.k1_entries]
    for cl in form.k1_clusters:
        tops.extend(cl.deltas.terms(48))
    assert max(tops) <= form.beta + 1e-12


def test_invert_keeps_k1_entries_paired_with_their_sources():
    # 1e6 and 1e6 + 1 are distinct compact values whose k1 images
    # x / (alpha * (x + alpha)) lie about 1e-12 apart, well inside MERGE_TOL
    t = PositiveTriple(1.0, positive_points((1e6, 1), (1e6 + 1.0, 2)), (), 0)
    form = invert_triple(t)
    assert [e.mult for e in form.k1_entries] == [1, 2]
    assert abs(form.k1_entries[1].value - form.k1_entries[0].value) < 1e-9
    for (w, mult), src in zip(form.eigenvalues(0), t.k_entries.points):
        assert mult == src.mult
        assert abs(w - 1.0 / (t.alpha + src.value.real)) < 1e-14


def test_invert_requires_positive_shift():
    t = PositiveTriple(0.0, positive_points((1.0, 1)), (), 0)
    with pytest.raises(AlphaZeroError):
        invert_triple(t)


def test_invert_requires_injectivity():
    t = PositiveTriple(2.0, SpectrumModel(POSITIVE, ()),
                       (EigenvalueEntry(2.0 + 0j, 1),), 0)
    with pytest.raises(NotInjectiveError):
        invert_triple(t)


def test_inverse_eigenvalues_are_reciprocals_of_recomposition():
    t = decompose_positive(full_model())
    spectrum = {round(p.value.real, 9): p.mult for p in recompose(t).points}
    inverted = invert_triple(t).eigenvalues(0)  # depth 0: points only
    assert inverted
    for v, mult in inverted:
        assert spectrum[round(1.0 / v, 9)] == mult


# ---------------------------------------------------------------------------
# structured decompositions


def test_structure_selfadjoint_signed_example():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(3.0 + 0j, 1),
        EigenvalueEntry(-1.0 + 0j, 1),
        EigenvalueEntry(-2.0 + 0j, INF),
    ))
    sd = structure_selfadjoint(m)
    assert sd.alpha == 2.0
    assert [(b.phase, b.part, b.value, b.mult) for b in sd.blocks] == [
        (1.0 + 0j, "k", 1.0, 1),
        (-1.0 + 0j, "f", 1.0, 1),
        (-1.0 + 0j, "identity", 0.0, INF),
    ]
    assert sd.kernel_multiplicity == 0


def test_structure_zero_values_form_the_kernel():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(0j, 2),
        EigenvalueEntry(1.0 + 0j, INF),
        EigenvalueEntry(1.5 + 0j, 1),
    ))
    sd = structure_selfadjoint(m)
    assert sd.kernel_multiplicity == 2
    assert all(b.part != "identity" or b.phase == 1.0 for b in sd.blocks)


def test_structure_normal_carries_phases():
    m = SpectrumModel(NORMAL, (
        EigenvalueEntry(2j, INF),
        EigenvalueEntry(0.5 + 0.5j, 1),
    ))
    sd = structure_normal(m)
    assert sd.alpha == 2.0
    ident = [b for b in sd.blocks if b.part == "identity"][0]
    assert abs(ident.phase - 1j) < 1e-15
    fblock = [b for b in sd.blocks if b.part == "f"][0]
    assert abs(abs(fblock.phase) - 1.0) < 1e-15
    assert abs(fblock.value - (2.0 - math.sqrt(0.5))) < 1e-15


def test_structure_eigenvalues_recombine():
    m = SpectrumModel(NORMAL, (
        EigenvalueEntry(2j, INF),
        EigenvalueEntry(-1.0 + 0j, 2),
        EigenvalueEntry(0j, 1),
    ))
    sd = structure_normal(m)
    got = sd.eigenvalues(4)
    expect = {(0j, 1), (-1 + 0j, 2), (2j, INF)}
    assert {(complex(round(v.real, 12), round(v.imag, 12)), m_)
            for v, m_ in got} == expect


def test_structure_keeps_cluster_blocks_in_original_form():
    m = SpectrumModel(SELF_ADJOINT, (), (Cluster(-2.0 + 0j, BELOW, GEO),))
    sd = structure_selfadjoint(m)
    assert sd.alpha == 2.0
    assert len(sd.cluster_blocks) == 1
    cb = sd.cluster_blocks[0]
    assert cb.limit == -2.0 + 0j and cb.side == BELOW
    members = [v for v, _ in sd.eigenvalues(3)]
    assert members[0] == -2.0 - 0.125


def test_structure_rejects_wrong_kind_and_non_an():
    with pytest.raises(WrongKindError):
        structure_selfadjoint(SpectrumModel(NORMAL, (EigenvalueEntry(1j, 1),)))
    bad = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(1.0 + 0j, INF),
        EigenvalueEntry(2.0 + 0j, INF),
    ))
    with pytest.raises(NotANError):
        structure_selfadjoint(bad)


def test_triple_as_structure_keeps_the_triple_order():
    t = decompose_positive(full_model())
    sd = t.as_structure()
    assert sd.alpha == t.alpha and sd.kernel_multiplicity == 0
    assert all(b.phase == 1 for b in sd.blocks)
    assert [(b.part, b.value) for b in sd.blocks] == [
        ("k", 1.5), ("f", 1.0), ("f", 1.75)]
    assert [(cb.limit, cb.side) for cb in sd.cluster_blocks] == [(2.0 + 0j, ABOVE)]
    got = sorted((v.real, m_) for v, m_ in sd.eigenvalues(3))
    want = sorted((v.real, m_) for v, m_ in
                  [(p.value, p.mult) for p in recompose(t).points]
                  + [(2.0 + d, 1) for d in GEO.terms(3)])
    assert got == want


def test_triple_as_structure_keeps_the_identity_at_alpha_zero():
    t = PositiveTriple(0.0, positive_points((1.0, 1)), (), 2)
    sd = t.as_structure()
    assert [(b.phase, b.part, b.mult) for b in sd.blocks] == [
        (1, "k", 1), (1, "identity", 2)]
    assert sd.kernel_multiplicity == 0


def test_structure_accepts_positive_models():
    sd = structure_selfadjoint(positive_points((3.0, 1), (2.0, INF)))
    assert sd.alpha == 2.0
    assert sd.blocks[0].part == "k"


# ---------------------------------------------------------------------------
# spectral transforms


def test_gram_squares_moduli():
    m = SpectrumModel(NORMAL, (EigenvalueEntry(1 + 1j, 2),))
    g = gram_spectrum(m)
    assert g.kind == POSITIVE
    assert abs(g.points[0].value.real - 2.0) < 1e-15
    assert g.points[0].mult == 2


def test_gram_preserves_the_verdict():
    good = full_model()
    assert classify(gram_spectrum(good)).is_an
    bad = SpectrumModel(POSITIVE, (), (Cluster(1.0 + 0j, BELOW, GEO),))
    assert classify(gram_spectrum(bad)).violations == classify(bad).violations


def test_adjoint_conjugates_normal_spectra():
    m = SpectrumModel(NORMAL, (EigenvalueEntry(1 + 2j, 1),),
                      (Cluster(3j, ABOVE, GEO),))
    a = adjoint_spectrum(m)
    assert a.points[0].value == 1 - 2j
    assert a.clusters[0].limit == -3j
    sa = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(-1.0 + 0j, 1),))
    assert adjoint_spectrum(sa) == sa


def test_imaginary_shift_moves_spectrum_exactly():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(3.0 + 0j, 1),
        EigenvalueEntry(-2.0 + 0j, INF),
    ), (Cluster(2.0 + 0j, ABOVE, GEO),))
    s = imaginary_shift(m, 0.75)
    assert s.kind == NORMAL
    assert {p.value for p in s.points} == {3.0 + 0.75j, -2.0 + 0.75j}
    assert s.clusters[0].limit == 2.0 + 0.75j
    assert s.clusters[0].side == ABOVE
    assert s.clusters[0].deltas == GEO


def test_imaginary_shift_result_stays_an():
    m = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(-2.0 + 0j, INF),
                                     EigenvalueEntry(3.0 + 0j, 1)))
    s = imaginary_shift(m, 1.0)
    assert classify(s).is_an
    # moduli collapse to sqrt(t^2 + lam^2)
    g = gram_spectrum(s)
    assert {round(p.value.real, 12) for p in g.points} == {5.0, 10.0}


def test_imaginary_shift_rejects_normal_input_and_violators():
    with pytest.raises(WrongKindError):
        imaginary_shift(SpectrumModel(NORMAL, (EigenvalueEntry(1j, 1),)), 1.0)
    bad = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(1.0 + 0j, INF),
                                       EigenvalueEntry(2.0 + 0j, INF)))
    with pytest.raises(NotANError):
        imaginary_shift(bad, 1.0)


# ---------------------------------------------------------------------------
# Fredholm-type properties


def test_fredholm_positive_shift_injective():
    t = decompose_positive(full_model())
    r = fredholm_report(t)
    assert r.is_fredholm and r.range_closed and r.is_left_semi_fredholm
    assert r.is_injective and r.kernel_dimension == 0
    assert r.essential_min_modulus == 2.0


def test_fredholm_kernel_from_finite_part_at_alpha():
    t = PositiveTriple(2.0, SpectrumModel(POSITIVE, ()),
                       (EigenvalueEntry(2.0 + 0j, 2),), INF)
    r = fredholm_report(t)
    assert r.kernel_dimension == 2
    assert not r.is_injective
    assert r.is_fredholm  # finite-dimensional kernel, closed range


def test_fredholm_compact_infinite_rank():
    t = PositiveTriple(0.0, SpectrumModel(POSITIVE, (),
                                          (Cluster(0j, ABOVE, GEO),)), (), 0)
    r = fredholm_report(t)
    assert not r.is_fredholm
    assert not r.range_closed
    assert not r.is_left_semi_fredholm
    assert r.essential_min_modulus == 0.0


def test_fredholm_compact_finite_rank_with_infinite_kernel():
    t = PositiveTriple(0.0, positive_points((1.0, 2)), (), INF)
    r = fredholm_report(t)
    assert r.range_closed  # finite rank
    assert not r.is_fredholm
    assert not r.is_left_semi_fredholm  # kernel is infinite-dimensional
    assert r.kernel_dimension == INF


def test_fredholm_finite_dimensional_degenerate_case():
    t = PositiveTriple(0.0, positive_points((1.0, 2)), (), 3)
    r = fredholm_report(t)
    assert r.is_left_semi_fredholm
    assert not r.is_fredholm
