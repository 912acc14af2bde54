"""One merge rule: values joined by a chain of steps, each at most
``MERGE_TOL``, are one spectral value wherever anop compares values."""

from hypothesis import given, strategies as st

from anop.decompose import PositiveTriple
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    POSITIVE,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
)
from anop.oracle import attainment_oracle
from anop.sequences import MERGE_TOL, DecaySequence, close_groups

#: each step is within MERGE_TOL, the two ends are not
CHAIN = (1.0, 1.0 + 0.8e-9, 1.0 + 1.6e-9)
DELTAS = DecaySequence.geometric(0.25, 0.5)


def _clusters(limits, side):
    return tuple(Cluster(complex(v, 0.0), side, DELTAS) for v in limits)


def test_chain_of_points_is_one_point():
    n = SpectrumModel(POSITIVE, tuple(
        EigenvalueEntry(complex(v, 0.0), 1) for v in CHAIN))
    assert n.points == (EigenvalueEntry(1 + 0j, 3),)


def test_chain_of_cluster_limits_is_one_limit_point():
    model = SpectrumModel(POSITIVE, (), _clusters(CHAIN, ABOVE))
    assert [cl.limit for cl in model.clusters] == [1 + 0j]
    verdict = classify(model)
    assert verdict.is_an and verdict.violations == ()


def test_chain_of_finite_rank_entries_is_one_entry():
    triple = PositiveTriple(2.0, SpectrumModel(POSITIVE), tuple(
        EigenvalueEntry(complex(v, 0.0), 1) for v in CHAIN), 0)
    assert triple.f_entries == (EigenvalueEntry(1 + 0j, 3),)


def test_chain_of_essential_values_is_one_for_the_oracle():
    above = SpectrumModel(POSITIVE, (), _clusters(CHAIN, ABOVE))
    report = attainment_oracle(above)
    assert report.is_an and report.pairs_checked == 0

    below = SpectrumModel(POSITIVE, (), _clusters(CHAIN, BELOW))
    assert [f.kind for f in attainment_oracle(below).failures] == ["unattained_tail"]

    # the chain runs through an infinite multiplicity between two limits
    mixed = SpectrumModel(POSITIVE, (EigenvalueEntry(complex(CHAIN[1], 0.0), INF),),
                          _clusters((CHAIN[0], CHAIN[2]), ABOVE))
    assert classify(mixed).is_an
    report = attainment_oracle(mixed)
    assert report.is_an and report.pairs_checked == 0


def _components(values, tol):
    """Connected components of the graph ``|a - b| <= tol``, comparing
    every pair, as sets of input indices."""
    label = list(range(len(values)))
    changed = True
    while changed:
        changed = False
        for i in range(len(values)):
            for j in range(len(values)):
                if abs(values[i] - values[j]) <= tol and label[j] > label[i]:
                    label[j] = label[i]
                    changed = True
    groups = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, set()).add(i)
    return {frozenset(g) for g in groups.values()}


_STEP = st.integers(min_value=-12, max_value=12).map(lambda k: k * MERGE_TOL / 2)
_REAL = st.one_of(_STEP.map(lambda x: 1.0 + x),
                  st.floats(min_value=1.0 - 6e-9, max_value=1.0 + 6e-9))
_COMPLEX = st.builds(complex, _REAL, st.one_of(_STEP, st.floats(-6e-9, 6e-9)))


@given(st.one_of(st.lists(_REAL, max_size=24), st.lists(_COMPLEX, max_size=24)),
       st.randoms(use_true_random=False))
def test_close_groups_are_the_components_of_the_tolerance_graph(values, rnd):
    indexed = list(enumerate(values))
    groups = close_groups(indexed, key=lambda it: it[1])
    assert {frozenset(i for i, _ in g) for g in groups} == _components(values, MERGE_TOL)

    # groups and members come out in (real, imag) order
    def order(it):
        return (complex(it[1]).real, complex(it[1]).imag)

    for g in groups:
        assert g == sorted(g, key=order)
    assert [order(g[0]) for g in groups] == sorted(order(g[0]) for g in groups)

    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert ([[complex(v) for v in g] for g in close_groups(shuffled)]
            == [[complex(v) for _, v in g] for g in groups])


def test_close_groups_keep_ties_in_input_order():
    items = [(1.0, "a"), (0.0, "b"), (1.0 + 0.5e-9, "c"), (1.0, "d")]
    assert close_groups(items, key=lambda it: it[0]) == [
        [(0.0, "b")], [(1.0, "a"), (1.0, "d"), (1.0 + 0.5e-9, "c")]]
    assert close_groups([]) == []
