import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anop.serialize as sz
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    VIOLATION_ORDER,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
)
import anop.oracle as oracle
from anop.oracle import (
    FAMILIES,
    FAMILY_CYCLE,
    TruncationProfile,
    attainment_oracle,
    generate_model,
    generate_violator,
    mixed_model,
    seeded_models,
    _mixing_refutes,
    _SUBSET_CAP,
)
from anop.sequences import MERGE_TOL, DecaySequence, close_groups

from conftest import SPECS, positive_points, rank_perturbation_check


GEO = DecaySequence.geometric(0.125, 0.5)


# ---------------------------------------------------------------------------
# direct attainment probing


def test_oracle_accepts_plain_an_model():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(3.0 + 0j, 1),),
                      (Cluster(2.0 + 0j, ABOVE, GEO),))
    rep = attainment_oracle(m)
    assert rep.is_an
    assert rep.failures == ()
    assert rep.subsets_checked > 0


def test_oracle_flags_declared_negative():
    rep = attainment_oracle(positive_points((-0.5, 1), (2.0, 1)))
    assert not rep.is_an
    assert {f.kind for f in rep.failures} == {"declared_negative"}


def test_oracle_flags_below_cluster_tail():
    m = SpectrumModel(SELF_ADJOINT, (), (Cluster(1.0 + 0j, BELOW, GEO),))
    rep = attainment_oracle(m)
    assert not rep.is_an
    kinds = {f.kind for f in rep.failures}
    assert "unattained_tail" in kinds
    tail = [f for f in rep.failures if f.kind == "unattained_tail"][0]
    assert abs(tail.witness[0] - 1.0) < 1e-12


def test_oracle_tail_failure_survives_larger_values():
    # the singleton tail subspace fails no matter what sits above it
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(3.0 + 0j, INF),),
                      (Cluster(1.0 + 0j, BELOW, GEO),))
    rep = attainment_oracle(m)
    assert not rep.is_an
    assert any(f.kind == "unattained_tail" for f in rep.failures)


def test_oracle_finds_mixture_between_infinite_values():
    m = positive_points((1.0, INF), (2.0, INF))
    rep = attainment_oracle(m)
    assert not rep.is_an
    mix = [f for f in rep.failures if f.kind == "unattained_mixture"]
    assert mix
    a, b, climbed = mix[0].witness
    assert (a, b) == (1.0, 2.0)
    assert a < climbed < b
    assert rep.pairs_checked >= 1


def test_oracle_finds_mixture_between_cluster_and_infinite_value():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(3.0 + 0j, INF),),
                      (Cluster(1.5 + 0j, ABOVE, GEO),))
    rep = attainment_oracle(m)
    assert not rep.is_an
    assert any(f.kind == "unattained_mixture" for f in rep.failures)


def test_oracle_accepts_matched_cluster_and_infinite_value():
    m = SpectrumModel(POSITIVE, (EigenvalueEntry(2.0 + 0j, INF),),
                      (Cluster(2.0 + 0j, ABOVE, GEO),))
    assert attainment_oracle(m).is_an


def test_oracle_depth_controls_probing():
    prof = TruncationProfile(depth=6)
    m = positive_points((1.0, INF), (2.0, INF))
    assert not attainment_oracle(m, prof).is_an


def test_mixing_probe_is_inconclusive_without_a_member_window():
    # essential values a = 1 and b = 2: flat values give a climb below 2
    climbed = _mixing_refutes(1.0, None, 2.0, None, 6, 1e-9)
    assert 1.9 < climbed < 2.0
    # a-side: no member below the ceiling sqrt((a**2 + b**2) / 2) ~ 1.58
    assert _mixing_refutes(1.0, [1.8, 1.7], 2.0, None, 6, 1e-9) is None
    assert _mixing_refutes(1.0, [1.8, 1.7, 1.2, 1.1], 2.0, None, 6, 1e-9) is not None
    # b-side: no member at or above b - tol
    assert _mixing_refutes(1.0, None, 2.0, [1.5, 1.4], 6, 1e-9) is None
    assert _mixing_refutes(1.0, None, 2.0, [2.5, 2.2, 1.5], 6, 1e-9) == climbed
    # a b-member sits below an a-member
    assert _mixing_refutes(1.0, [1.55], 2.0, [1.5], 4, 0.5) is None
    # the weight leaves (0, 1): a member at 1.9 cannot carry the climb past it
    assert _mixing_refutes(1.0, None, 2.0, [1.9], 6, 0.2) is None
    assert 1.98 < _mixing_refutes(1.0, None, 2.0, None, 6, 0.2) < 2.0
    # rounding stalls the climb on values 1e-8 apart; the strict steps
    # before the stall still refute
    assert _mixing_refutes(1.0, None, 1.0 + 1e-8, None, 80, 1e-9) is not None
    assert _mixing_refutes(1.0, None, 1.0 + 1e-8, None, 20, 1e-9) is not None


@pytest.mark.parametrize("depth", [12, 49, 60, 100, 1000])
@pytest.mark.parametrize("name", ["violator_two_limits.json", "violator_two_inf.json",
                                  "violator_limit_mismatch.json"])
def test_mixing_violator_specs_are_refuted_at_every_depth(name, depth):
    # past about 50 steps rounding stalls every climb; its strict steps refute
    model = sz.parse_model(json.loads((SPECS / name).read_text()))
    rep = attainment_oracle(model, TruncationProfile(depth=depth))
    assert not rep.is_an
    mix = [f.witness for f in rep.failures if f.kind == "unattained_mixture"]
    assert mix
    a, b, climbed = mix[0]
    assert a < climbed < b


def reference_subset_scan(attained, unattained, tol):
    """The subset scan as it was before the sorted pass: the distinct
    attained values are counted as the ``close_groups`` of every pair."""
    markers = [g[0] for g in close_groups(unattained, tol)]
    points = len(close_groups(attained, tol))
    g = len(markers) + min(points, max(_SUBSET_CAP - len(markers), 0))
    return (1 << g) - 1, markers


def test_subset_scan_matches_the_pairwise_reference(monkeypatch):
    scan = oracle._subset_scan
    scans = []

    def checked(attained, unattained):
        got = scan(attained, unattained)
        assert got == reference_subset_scan(attained, unattained, MERGE_TOL)
        scans.append(got[0])
        return got

    monkeypatch.setattr(oracle, "_subset_scan", checked)
    for depth in (2, 6, 12, 24):
        prof = TruncationProfile(depth=depth)
        for family in ("violators",) + tuple(FAMILIES):
            for _, _, model in seeded_models(family, 300):
                attainment_oracle(model, prof)
    for depth in (12, 1000):
        for path in sorted(SPECS.glob("*.json")):
            attainment_oracle(sz.parse_model(json.loads(path.read_text())),
                              TruncationProfile(depth=depth))
    assert len(scans) == 4 * 4 * 300 + 2 * 13
    assert len(set(scans)) > 1


def test_truncation_profile_validation():
    with pytest.raises(ValueError):
        TruncationProfile(depth=1)


# ---------------------------------------------------------------------------
# eigenvalue counting under finite-rank perturbation


def test_rank_perturbation_exact_gap():
    base = np.zeros((6, 6))
    bumped = np.diag([1.0, 0, 0, 0, 0, 0])
    rep = rank_perturbation_check(base, bumped, rank_bound=1)
    assert rep.within_bound
    assert rep.max_count_gap == 1
    assert rep.rank_detected == 1


def test_rank_perturbation_detects_violated_bound():
    base = np.zeros((6, 6))
    bumped = np.diag([1.0, 1.0, 1.0, 0, 0, 0])
    rep = rank_perturbation_check(base, bumped, rank_bound=1)
    assert not rep.within_bound
    assert rep.max_count_gap == 3
    assert rep.rank_detected == 3


def test_rank_perturbation_random_hermitian():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    u = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    p = u @ np.diag([2.0, -1.0, 0.5]) @ u.T
    rep = rank_perturbation_check(a, a + p, rank_bound=3)
    assert rep.within_bound
    assert rep.rank_detected <= 3


# ---------------------------------------------------------------------------
# seeded generators


def test_generators_are_deterministic():
    for family in FAMILIES:
        assert generate_model(11, family) == generate_model(11, family)
    assert generate_violator(5, VIOLATION_ORDER[0]) == \
        generate_violator(5, VIOLATION_ORDER[0])


def test_generator_kind_matches_family():
    for family in FAMILIES:
        for seed in range(8):
            assert generate_model(seed, family).kind == family


def test_generated_models_are_an():
    for family in FAMILIES:
        for seed in range(40):
            v = classify(generate_model(seed, family))
            assert v.is_an, (family, seed, v.violations)


def test_violators_hit_exactly_their_code():
    for code in VIOLATION_ORDER:
        for seed in range(40):
            v = classify(generate_violator(seed, code))
            assert v.violations == (code,), (code, seed, v.violations)


#: sha256 over the emitted models of the seeded generators; any change that
#: moves one draw of any generator fails here
GENERATOR_SHA256 = "4c7fd1269cf49ad95e3d8588868ff0efcbecb9df5446ef170925299172a6e596"


def test_seeded_models_are_pinned():
    h = hashlib.sha256()
    for family in FAMILIES:
        for seed in range(1000):
            h.update(sz.emit(sz.model_payload(generate_model(seed, family))).encode())
    for code in VIOLATION_ORDER:
        for seed in range(1000):
            h.update(sz.emit(sz.model_payload(generate_violator(seed, code))).encode())
    for family in ("all", "violators") + tuple(FAMILIES):
        for seed, tag, model in seeded_models(family, 300, 7):
            h.update(f"{seed} {tag} ".encode())
            h.update(sz.emit(sz.model_payload(model)).encode())
    assert h.hexdigest() == GENERATOR_SHA256


def test_generate_model_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate_model(0, "unitary")
    with pytest.raises(ValueError):
        generate_violator(0, "NOT_A_CODE")


def test_mixed_model_follows_the_cycle():
    for seed in range(24):
        tag, model = mixed_model(seed)
        family, code = FAMILY_CYCLE[seed % len(FAMILY_CYCLE)]
        if family == "violator":
            assert tag == f"violator:{code}"
            assert classify(model).violations == (code,)
        else:
            assert tag == family
            assert model.kind == family


# ---------------------------------------------------------------------------
# classifier vs oracle


def test_classifier_and_oracle_agree_on_a_quick_sample():
    prof = TruncationProfile()
    for seed in range(180):
        tag, model = mixed_model(seed)
        verdict = classify(model)
        probed = attainment_oracle(model, prof)
        assert verdict.is_an == probed.is_an, (seed, tag, verdict.violations,
                                               [f.kind for f in probed.failures])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_agreement_holds_for_arbitrary_seeds(seed):
    tag, model = mixed_model(seed)
    assert classify(model).is_an == attainment_oracle(model).is_an
