import math

import pytest
from hypothesis import given, strategies as st

from anop.errors import MalformedModelError
from anop.sequences import DecaySequence, merge_sequences


def test_explicit_terms_and_head():
    s = DecaySequence.explicit([0.5, 0.25, 0.1])
    assert s.terms(2) == (0.5, 0.25)
    assert s.terms(10) == (0.5, 0.25, 0.1)
    assert s.head == 0.5
    assert s.terminating


def test_explicit_non_terminating_flag():
    s = DecaySequence.explicit([0.5, 0.25], terminating=False)
    assert not s.terminating


def test_explicit_rejects_empty():
    with pytest.raises(MalformedModelError):
        DecaySequence.explicit([])


def test_explicit_rejects_non_decreasing():
    with pytest.raises(MalformedModelError):
        DecaySequence.explicit([0.5, 0.5])
    with pytest.raises(MalformedModelError):
        DecaySequence.explicit([0.25, 0.5])


def test_explicit_rejects_nonpositive_terms():
    with pytest.raises(MalformedModelError):
        DecaySequence.explicit([0.5, 0.0])
    with pytest.raises(MalformedModelError):
        DecaySequence.explicit([0.5, -0.1])
    with pytest.raises(MalformedModelError):
        DecaySequence.explicit([math.nan])


def test_geometric_terms():
    s = DecaySequence.geometric(1.0, 0.5)
    assert s.terms(4) == (1.0, 0.5, 0.25, 0.125)
    assert s.head == 1.0
    assert not s.terminating


def test_geometric_validates_parameters():
    with pytest.raises(MalformedModelError):
        DecaySequence.geometric(0.0, 0.5)
    with pytest.raises(MalformedModelError):
        DecaySequence.geometric(1.0, 1.0)
    with pytest.raises(MalformedModelError):
        DecaySequence.geometric(1.0, 0.0)
    with pytest.raises(MalformedModelError):
        DecaySequence.geometric(-1.0, 0.5)


def test_harmonic_terms():
    s = DecaySequence.harmonic(2.0)
    assert s.terms(3) == (2.0, 1.0, 2.0 / 3.0)
    assert s.head == 2.0
    assert not s.terminating
    with pytest.raises(MalformedModelError):
        DecaySequence.harmonic(0.0)


def test_unknown_kind_rejected():
    with pytest.raises(MalformedModelError):
        DecaySequence(kind="fibonacci", terms_=(1.0,))


def test_terms_zero_request():
    assert DecaySequence.geometric(1.0, 0.5).terms(0) == ()


def test_merge_interleaves_and_dedupes():
    a = DecaySequence.explicit([0.5, 0.125])
    b = DecaySequence.explicit([0.25, 0.125 + 1e-12])
    merged = merge_sequences([a, b])
    got = merged.terms(8)
    assert got == pytest.approx((0.5, 0.25, 0.125), abs=1e-9)
    assert len(got) == 3
    assert merged.terminating


def test_merge_non_terminating_when_any_source_is():
    a = DecaySequence.explicit([0.5])
    b = DecaySequence.geometric(0.25, 0.5)
    merged = merge_sequences([a, b])
    assert not merged.terminating
    ts = merged.terms(16)
    assert ts[0] == 0.5 and ts[1] == 0.25


@given(first=st.floats(min_value=1e-6, max_value=1e3),
       ratio=st.floats(min_value=1e-3, max_value=0.999),
       n=st.integers(min_value=1, max_value=40))
def test_geometric_strictly_decreasing_positive(first, ratio, n):
    ts = DecaySequence.geometric(first, ratio).terms(n)
    assert len(ts) == n
    assert all(t > 0.0 for t in ts)
    assert all(x > y for x, y in zip(ts, ts[1:]))


@given(scale=st.floats(min_value=1e-6, max_value=1e3),
       n=st.integers(min_value=1, max_value=40))
def test_harmonic_strictly_decreasing_positive(scale, n):
    ts = DecaySequence.harmonic(scale).terms(n)
    assert all(t > 0.0 for t in ts)
    assert all(x > y for x, y in zip(ts, ts[1:]))


@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1,
                max_size=12, unique=True))
def test_merge_output_is_a_valid_sequence(values):
    # any strictly decreasing presentation of the values merges cleanly
    terms = tuple(sorted(values, reverse=True))
    merged = merge_sequences([DecaySequence.explicit(terms),
                              DecaySequence.explicit(terms)])
    out = merged.terms(64)
    assert all(x > y for x, y in zip(out, out[1:]))
    assert len(out) <= len(terms)
