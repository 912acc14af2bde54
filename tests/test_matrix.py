import hashlib
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anop.matrix
from anop.decompose import (
    Block,
    PositiveTriple,
    StructuredDecomposition,
    decompose_positive,
    decomposition,
    structure_normal,
    structure_selfadjoint,
)
from anop.errors import (
    AlphaZeroError,
    DimTooLargeError,
    DimTooSmallError,
    MalformedModelError,
    NoConvergenceError,
    NotHermitianError,
    NotInjectiveError,
    ShapeMismatchError,
)
from anop.matrix import (
    MAX_DIM,
    _realize_slots,
    _splitmix_uniforms,
    block_form,
    converse_witness,
    hermitian_eigen,
    inverse_via_blocks,
    polar_decompose,
    realize_matrix,
    seeded_unitary,
    verify_structure,
)
from anop.model import (
    ABOVE,
    INF,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
)
from anop.oracle import seeded_models
from anop.sequences import DecaySequence
from anop.serialize import load, parse_model, parse_structure

from conftest import SPECS, positive_points


GEO = DecaySequence.geometric(0.125, 0.5)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# eigensolver


def degenerate_hermitian(n, seed):
    """A repeated-eigenvalue spectrum, as realizations produce, conjugated
    by a seeded unitary; ``n`` must be 9."""
    u = seeded_unitary(n, seed)
    return (u * np.array([1.0, 1.0, 1.0, 3.0, 3.0, -2.0, -2.0, 0.0, 0.0])) @ u.conj().T


EIGEN_SIZES = [1, 2, 3, 5, 8, 13, 24, 31, 64]


@pytest.mark.parametrize(
    "n,build", [(n, random_hermitian) for n in EIGEN_SIZES] + [(9, degenerate_hermitian)],
    ids=[str(n) for n in EIGEN_SIZES] + ["degenerate-9"])
def test_eigen_matches_lapack(n, build):
    a = build(n, seed=n)
    eig = hermitian_eigen(a)
    ref = np.linalg.eigvalsh(a)
    scale = max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(eig.values - ref)) <= 1e-12 * scale
    # residual and orthonormality of the eigenvectors
    resid = np.linalg.norm(a @ eig.vectors - eig.vectors * eig.values)
    assert resid <= 1e-12 * scale * n
    assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-12 * n


def test_eigen_values_sorted_ascending():
    eig = hermitian_eigen(np.diag([3.0, -1.0, 2.0]))
    assert list(eig.values) == sorted(eig.values)
    assert eig.sweeps == 0


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_non_square():
    with pytest.raises(ShapeMismatchError):
        hermitian_eigen(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        hermitian_eigen(np.zeros((0, 0)))
    with pytest.raises(ShapeMismatchError):
        hermitian_eigen(np.eye(3), basis=np.eye(4))


def test_eigen_dimension_cap():
    with pytest.raises(DimTooLargeError):
        hermitian_eigen(np.eye(MAX_DIM + 1))


def test_eigen_no_convergence_signalled(monkeypatch):
    a = random_hermitian(12, seed=5)
    monkeypatch.setattr(anop.matrix, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergenceError):
        hermitian_eigen(a)


NON_FINITE_NORM = {
    "overflowing-norm": [[1.0, 1e160], [1e160, 2.0]],
    "nan-entry": [[1.0, math.nan], [math.nan, 2.0]],
    "inf-entry": [[math.inf, 0.0], [0.0, 1.0]],
}


@pytest.mark.parametrize("a", NON_FINITE_NORM.values(), ids=NON_FINITE_NORM)
def test_eigen_refuses_input_of_non_finite_norm(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedModelError, match="not a finite float"):
            hermitian_eigen(a)


def test_overflowing_norm_is_named_as_a_finite_magnitude():
    # the sum of squares overflows, the norm itself does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedModelError) as eig_exc:
            hermitian_eigen([[1.0, 1e160], [1e160, 2.0]])
        with pytest.raises(MalformedModelError) as polar_exc:
            polar_decompose([[1e160, 0.0], [0.0, 1.0]])
    assert re.search(r"norm 1\.41421356\d*e\+160 is not a finite float", eig_exc.value.message)
    assert polar_exc.value.message.startswith("T norm 1e+160 ")
    for exc in (eig_exc, polar_exc):
        assert "inf" not in exc.value.message


def test_eigen_solves_large_input_inside_its_range():
    eig = hermitian_eigen([[0.0, 9e153], [9e153, 0.0]])
    assert np.allclose(eig.values, [-9e153, 9e153], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [1, 5, 16, 31])
def test_eigen_started_in_a_basis_matches_a_cold_solve(n):
    a = random_hermitian(n, seed=n + 1)
    q = seeded_unitary(n, 7)
    warm = hermitian_eigen(a, basis=q)
    cold = hermitian_eigen(a)
    scale = max(np.max(np.abs(cold.values)), 1.0)
    assert np.max(np.abs(warm.values - cold.values)) <= 1e-12 * scale
    resid = np.linalg.norm(a @ warm.vectors - warm.vectors * warm.values)
    assert resid <= 1e-12 * scale * n
    assert np.linalg.norm(warm.vectors.conj().T @ warm.vectors - np.eye(n)) <= 1e-12 * n


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_eigen_reconstructs_input(n, seed):
    a = random_hermitian(n, seed)
    eig = hermitian_eigen(a)
    back = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.linalg.norm(back - a) <= 1e-11 * max(np.linalg.norm(a), 1.0)


def reference_order(n):
    """The round-robin order as separate ``(p, q)`` rounds, one ``np.roll``
    each: the kernel's order before the stacked layout."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(np.arange(1, m), r)))
        p, q = order[:m // 2], order[:m // 2 - 1:-1]
        keep = (p < n) & (q < n)
        rounds.append((p[keep], q[keep]))
    return rounds


def reference_sweeps(a, v):
    """The Jacobi kernel on separate C-ordered ``a`` and ``v``, its four
    column and two row gathers per round written out."""
    n = a.shape[0]
    norm_f = anop.matrix._fro(a)
    if norm_f == 0.0:
        return 0
    thresh = anop.matrix.EIGEN_TOL * norm_f
    pivot_tol = thresh / (2.0 * n)
    off_diagonal = ~np.eye(n, dtype=bool)
    rounds = reference_order(n)
    for sweep in range(anop.matrix.MAX_SWEEPS):
        if anop.matrix._fro(a[off_diagonal]) <= thresh:
            return sweep
        for p, q in rounds:
            apq = a[p, q]
            r = np.abs(apq)
            big = r > pivot_tol
            if not big.all():
                p, q, apq, r = p[big], q[big], apq[big], r[big]
                if p.size == 0:
                    continue
            tau = (a[p, p].real - a[q, q].real) / (2.0 * r)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sp = t * c * (apq / r)
            spc = sp.conj()
            for m in (a, v):
                mp, mq = m[:, p], m[:, q]
                m[:, p] = c * mp + spc * mq
                m[:, q] = c * mq - sp * mp
            c, sp, spc = c[:, None], sp[:, None], spc[:, None]
            ap, aq = a[p], a[q]
            a[p] = c * ap + sp * aq
            a[q] = c * aq - spc * ap
            a[p, q] = 0.0
            a[q, p] = 0.0
    return -1


def reference_eigen(a, basis=None):
    """``hermitian_eigen`` on the reference kernel: values, vectors, sweeps."""
    work = anop.matrix._hermitian_input(a)
    if basis is not None:
        work = anop.matrix._hermitian_input(basis.conj().T @ work @ basis)
    work = np.ascontiguousarray(work)
    vectors = np.eye(work.shape[0], dtype=np.complex128)
    sweeps = reference_sweeps(work, vectors)
    values = np.real(np.diag(work)).copy()
    order = np.argsort(values, kind="stable")
    vectors = vectors[:, order] if basis is None else basis @ vectors[:, order]
    return values[order], vectors, sweeps


def kernel_input(kind, n):
    """Seeded Hermitian inputs of the kinds verification feeds the solver."""
    if kind == "random":
        return random_hermitian(n, seed=n)
    if kind == "degenerate":
        u = seeded_unitary(n, n + 2)
        spectrum = np.resize([1.0, 1.0, 1.0, 3.0, 3.0, -2.0, -2.0, 0.0, 0.0], n)
        return (u * spectrum) @ u.conj().T
    if kind == "graded":
        d = np.logspace(0, -8, n)
        return d[:, None] * random_hermitian(n, seed=n) * d
    return np.zeros((n, n), dtype=complex)


@pytest.mark.parametrize("kind", ["random", "degenerate", "graded", "zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 15, 16, 31, 33, 64])
def test_eigen_matches_the_reference_kernel_bit_for_bit(n, kind):
    a = kernel_input(kind, n)
    for basis in (None, seeded_unitary(n, 7)):
        eig = hermitian_eigen(a, basis)
        values, vectors, sweeps = reference_eigen(a, basis)
        assert np.array_equal(eig.values, values)
        assert np.array_equal(eig.vectors, vectors)
        assert eig.sweeps == sweeps
        # the same memory layout, so products downstream take the same BLAS path
        assert eig.vectors.strides == vectors.strides


def test_parallel_order_meets_every_pair_once_in_disjoint_rounds():
    for n in range(1, 66):
        met = []
        for pq in anop.matrix._parallel_order(n):
            assert len(set(pq.tolist())) == pq.size
            p, q = np.split(pq, 2)
            met += [tuple(sorted(pair)) for pair in zip(p.tolist(), q.tolist())]
        assert sorted(met) == [(i, j) for i in range(n) for j in range(i + 1, n)], n


def test_solve_that_starts_converged_builds_no_order(monkeypatch):
    a = random_hermitian(8, seed=4)
    own = hermitian_eigen(a).vectors

    def refuse(n):
        raise AssertionError("the round-robin order was built")

    monkeypatch.setattr(anop.matrix, "_parallel_order", refuse)
    assert hermitian_eigen(np.diag([3.0, -1.0, 2.0, 0.5])).sweeps == 0
    assert hermitian_eigen(a, basis=own).sweeps == 0


def assert_matches_the_reference_kernel(a, basis=None):
    eig = hermitian_eigen(a, basis)
    values, vectors, sweeps = reference_eigen(a, basis)
    # bytes, not values: a signed zero that differs fails too
    assert eig.values.tobytes() == values.tobytes()
    assert eig.vectors.tobytes() == vectors.tobytes()
    assert eig.vectors.strides == vectors.strides
    assert eig.sweeps == sweeps
    return eig


@pytest.mark.parametrize("dim", [8, 13, 16, 21, 24, 29, 32, 33])
def test_eigen_matches_the_reference_kernel_on_what_verify_sends(dim):
    # T*T of a seeded realization, solved cold, then K's Hermitian part and
    # the splitter of F (F, or F*F when F is not Hermitian) solved in its
    # eigenvectors, as verify_structure does
    for seed, tag, m in seeded_models("all", 12, base_seed=dim):
        if tag.startswith("violator"):
            continue
        try:
            ro = realize_matrix(decomposition(m), dim, seed=seed + 1)
        except DimTooSmallError:
            continue
        t = ro.matrix
        q = assert_matches_the_reference_kernel(t.conj().T @ t).vectors
        assert_matches_the_reference_kernel((ro.compact + ro.compact.conj().T) / 2, q)
        _, splitter = anop.matrix._splitter(ro.finite)
        assert_matches_the_reference_kernel(splitter, q)


def block_diagonal_hermitian(n):
    """Seeded Hermitian blocks of at most three rows down the diagonal: a
    pair across two blocks stays zero, so most pairs of a round fall below
    the pivot threshold and some rounds have no pair above it."""
    a = np.zeros((n, n), dtype=complex)
    for start in range(0, n, 3):
        stop = min(start + 3, n)
        a[start:stop, start:stop] = random_hermitian(stop - start, seed=start)
    return a


@pytest.mark.parametrize("n", [2, 5, 8, 16, 31])
def test_eigen_matches_the_reference_kernel_on_filtered_rounds(n):
    a = block_diagonal_hermitian(n)
    assert_matches_the_reference_kernel(a)
    assert_matches_the_reference_kernel(a, seeded_unitary(n, 7))
    # the same blocks with signed zeros between them
    assert_matches_the_reference_kernel(np.where(a == 0, -0.0, a))


def signed_zero_hermitian(rng, n):
    """Gaussian entries, and zeros of either sign in either part."""
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    a = np.array([[zeros[rng.integers(4)] if rng.random() < 0.6 else complex(*rng.standard_normal(2))
                   for _ in range(n)] for _ in range(n)])
    return (a + a.conj().T) / 2.0


def test_kernel_leaves_the_reference_kernel_bytes_on_signed_zeros():
    # the whole stack, off-diagonal zeros included, not only what a solve returns
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a = signed_zero_hermitian(rng, n)
        av = np.asfortranarray(np.concatenate((a, np.eye(n))))
        ref_a, ref_v = a.copy(), np.eye(n, dtype=complex)
        assert anop.matrix._jacobi_sweeps(av) == reference_sweeps(ref_a, ref_v)
        assert np.ascontiguousarray(av[:n]).tobytes() == ref_a.tobytes()
        assert np.ascontiguousarray(av[n:]).tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("scale", [1e-170, 1e-250, 1e-300])
def test_eigen_of_a_tiny_matrix_is_the_scaled_eigen(scale):
    # every entry squares below the smallest float: the norm must not read 0
    assert anop.matrix._fro(scale * np.ones((2, 2))) == pytest.approx(2.0 * scale, rel=1e-15, abs=0.0)
    for h in ([[0.0, 1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 3.0]], random_hermitian(8, seed=3)):
        h = np.asarray(h, dtype=complex)
        want = scale * hermitian_eigen(h).values
        eig = hermitian_eigen(scale * h)
        assert eig.sweeps > 0
        assert np.max(np.abs(eig.values - want)) <= 1e-12 * np.max(np.abs(want))
        if scale > 1e-271:   # the reference kernel does not rescale tinier input
            assert_matches_the_reference_kernel(scale * h)


def test_eigen_of_subnormal_entries_is_finite():
    v = 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = hermitian_eigen([[0.0, v], [v, 0.0]])
    assert eig.sweeps == 1
    assert np.allclose(eig.values, [-v, v], rtol=1e-6, atol=0.0)


# ---------------------------------------------------------------------------
# polar


def test_polar_shift_matrix():
    t = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    pair = polar_decompose(t)
    assert np.allclose(pair.modulus, np.diag([0.0, 2.0]), atol=1e-12)
    assert np.allclose(pair.isometry, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
    # the isometry vanishes on the kernel of T
    kernel_vec = np.array([1.0, 0.0])
    assert np.linalg.norm(pair.isometry @ kernel_vec) <= 1e-12


def test_polar_reconstructs_and_is_partial_isometry():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    pair = polar_decompose(t)
    nt = np.linalg.norm(t)
    assert np.linalg.norm(t - pair.isometry @ pair.modulus) <= 1e-10 * nt
    vv = pair.isometry.conj().T @ pair.isometry
    assert np.linalg.norm(vv @ vv - vv) <= 1e-10
    # modulus is PSD with the same singular values as T
    sv = np.linalg.svd(t, compute_uv=False)
    ev = np.linalg.eigvalsh(pair.modulus)
    assert np.max(np.abs(np.sort(sv) - ev)) <= 1e-10 * nt


@pytest.mark.parametrize("entry", [1e160, 1e100])
def test_polar_refuses_input_whose_gram_is_beyond_the_solver_range(entry):
    t = np.array([[entry, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MalformedModelError, match=re.escape(f"T norm {entry} ")):
            polar_decompose(t)


def test_polar_solves_large_input_inside_the_solver_range():
    t = 1e75 * np.array([[1.0, 0.2], [0.3, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair = polar_decompose(t)
    assert np.linalg.norm(t - pair.isometry @ pair.modulus) <= 1e-12 * np.linalg.norm(t)


# ---------------------------------------------------------------------------
# seeded unitaries


def test_seed_zero_is_identity():
    assert np.array_equal(seeded_unitary(5, 0), np.eye(5))


@pytest.mark.parametrize("dim,seed", [(1, 1), (4, 7), (16, 123), (33, 9)])
def test_seeded_unitary_is_unitary(dim, seed):
    u = seeded_unitary(dim, seed)
    assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-13 * dim


def test_seeded_unitary_is_deterministic():
    a = seeded_unitary(9, 42)
    b = seeded_unitary(9, 42)
    assert np.array_equal(a, b)
    c = seeded_unitary(9, 43)
    assert np.linalg.norm(a - c) > 1e-3


def test_seeded_unitary_rejects_bad_dim():
    with pytest.raises(ShapeMismatchError):
        seeded_unitary(0, 1)


def reference_unitary(dim, seed):
    """``seeded_unitary`` as one thread ran it, its loop written out: the
    bytes the seeded unitaries keep."""
    u = _splitmix_uniforms(seed, 2 * dim * dim)
    u1 = u[0::2].reshape(dim, dim)
    u2 = u[1::2].reshape(dim, dim)
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.exp(2j * np.pi * u2)
    work = gauss.astype(np.complex128)
    q = np.eye(dim, dtype=np.complex128)
    for k in range(dim):
        x = work[k:, k].copy()
        nx = math.sqrt(float(np.sum(np.abs(x) ** 2)))
        if nx == 0.0:
            continue
        lead = x[0]
        ph = lead / abs(lead) if abs(lead) > 0 else 1.0
        x[0] += ph * nx
        nv = math.sqrt(float(np.sum(np.abs(x) ** 2)))
        if nv == 0.0:
            continue
        x /= nv
        work[k:, k:] -= 2.0 * np.outer(x, x.conj() @ work[k:, k:])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ x, x.conj())
    for k in range(dim):
        d = work[k, k]
        if abs(d) > 0:
            q[:, k] *= d / abs(d)
    return q


SPLIT = anop.matrix._SPLIT_DIM


@pytest.fixture
def two_cpus(monkeypatch):
    """The second thread runs from ``_SPLIT_DIM`` on, whatever the CPUs."""
    monkeypatch.setattr(anop.matrix, "_cpus", lambda: 2)


@pytest.mark.parametrize("seed", [1, 7, 2 ** 63, -1])
@pytest.mark.parametrize("dim", sorted({1, 2, 3, 32, 33, SPLIT - 1, SPLIT, SPLIT + 1, 128, 200}))
def test_seeded_unitary_is_the_one_thread_loop_bit_for_bit(two_cpus, dim, seed):
    assert seeded_unitary(dim, seed).tobytes() == reference_unitary(dim, seed).tobytes()


def test_seeded_unitary_repeats_its_bytes_on_the_second_thread(two_cpus):
    first = seeded_unitary(256, 5).tobytes()
    assert all(seeded_unitary(256, 5).tobytes() == first for _ in range(2))


def test_seeded_unitary_keeps_its_bytes_when_the_threads_switch_often(two_cpus):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [seeded_unitary(SPLIT + 1, seed).tobytes() for seed in (2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [reference_unitary(SPLIT + 1, seed).tobytes() for seed in (2, 3)]


@pytest.mark.parametrize("dim,cpus,threads", [
    (SPLIT - 1, 2, 0), (SPLIT, 1, 0), (SPLIT, 2, 1)])
def test_second_thread_runs_from_the_split_dim_on_two_cpus(monkeypatch, dim, cpus, threads):
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(anop.matrix, "_cpus", lambda: cpus)
    monkeypatch.setattr(anop.matrix.threading, "Thread", Thread)
    seeded_unitary(dim, 3)
    assert len(started) == threads
    assert not any(t.is_alive() for t in started)


def test_an_error_on_the_second_thread_reaches_the_caller(two_cpus, monkeypatch):
    reflect = anop.matrix._reflect

    def failing(q, k, x, scratch):
        if k == 40:
            raise FloatingPointError("step 40")
        reflect(q, k, x, scratch)

    monkeypatch.setattr(anop.matrix, "_reflect", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="step 40"):
        seeded_unitary(SPLIT, 9)
    assert threading.active_count() == before


def test_the_second_thread_exits_when_the_caller_fails(two_cpus):
    before = threading.active_count()
    done = []
    with pytest.raises(KeyError):
        with anop.matrix._second_thread(SPLIT) as run:
            run(done.append, 1)
            raise KeyError("caller")
    assert done == [1] and threading.active_count() == before


def test_realization_products_match_the_one_thread_products(two_cpus):
    triple = full_triple()
    ro = realize_matrix(triple, SPLIT + 3, seed=11)
    uh = ro.unitary.conj().T
    slots = _realize_slots(triple.as_structure(), SPLIT + 3, slack_identity=True)
    diagonals = np.array([s[:4] for s in slots], dtype=np.complex128).T
    parts = (ro.matrix, ro.compact, ro.finite, ro.isometry)
    assert ro.unitary.tobytes() == reference_unitary(SPLIT + 3, 11).tobytes()
    assert all(part.tobytes() == ((ro.unitary * d) @ uh).tobytes()
               for part, d in zip(parts, diagonals))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix_reference(seed, count):
    """The scalar splitmix64 loop the array code must reproduce bit for bit;
    ``(x + 1) / 2.0 ** 64`` rounds the exact integer ``x + 1`` once."""
    out = np.empty(count, dtype=np.float64)
    z = seed & _MASK64
    for i in range(count):
        z = (z + _GAMMA) & _MASK64
        x = z
        x = (x ^ (x >> 30)) * _MIX1 & _MASK64
        x = (x ^ (x >> 27)) * _MIX2 & _MASK64
        x = x ^ (x >> 31)
        out[i] = (x + 1) / 2.0 ** 64
    return out


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _seed_with_first_draw(x):
    """The seed whose first splitmix64 output is ``x`` (the mix is a
    bijection of 64-bit words)."""
    x = _unxorshift(x, 31)
    x = _unxorshift(x * pow(_MIX2, -1, 1 << 64) & _MASK64, 27)
    x = _unxorshift(x * pow(_MIX1, -1, 1 << 64) & _MASK64, 30)
    return (x - _GAMMA) & _MASK64


@pytest.mark.parametrize("count", [0, 1, 4097])
@pytest.mark.parametrize("seed", [1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, -1])
def test_splitmix_matches_scalar_loop(seed, count):
    u = _splitmix_uniforms(seed, count)
    assert u.dtype == np.float64 and u.shape == (count,)
    assert u.tobytes() == _splitmix_reference(seed, count).tobytes()
    assert np.all((u > 0.0) & (u <= 1.0))


@pytest.mark.parametrize("x", [
    2 ** 64 - 1,                 # x + 1 = 2**64: no uint64 wrap to 0
    2 ** 63 + 3 * 2 ** 10 - 1,   # a tie: rounding x first, then x + 1, misses it
    0,
])
def test_splitmix_rounds_x_plus_one_once(x):
    seed = _seed_with_first_draw(x)
    assert _splitmix_reference(seed, 1)[0] == (x + 1) / 2.0 ** 64
    assert _splitmix_uniforms(seed, 1)[0] == (x + 1) / 2.0 ** 64


def test_splitmix_stream_digest_is_pinned():
    # integer and IEEE arithmetic only: the same bytes on every platform
    u = _splitmix_uniforms(1, 4096).astype("<f8")
    assert hashlib.sha256(u.tobytes()).hexdigest() == (
        "0d834f9747deb83eceba43e44bdcb6d2f9d4b33f713d999852220337b0e80647")


# ---------------------------------------------------------------------------
# realization


def full_triple():
    return decompose_positive(SpectrumModel(POSITIVE, (
        EigenvalueEntry(3.5 + 0j, 1),
        EigenvalueEntry(1.0 + 0j, 1),
        EigenvalueEntry(0.25 + 0j, 2),
    ), (Cluster(2.0 + 0j, ABOVE, GEO),)))


def test_realize_entry_order_and_values():
    ro = realize_matrix(full_triple(), dim=7, seed=0)
    assert ro.labels == ("k", "cluster", "cluster", "cluster", "f", "f", "f")
    want = [3.5, 2.125, 2.0625, 2.03125, 1.0, 0.25, 0.25]
    assert np.allclose(ro.diagonal.real, want, atol=1e-12)
    assert np.array_equal(ro.matrix, np.diag(ro.diagonal))
    # recombination holds entrywise
    assert np.allclose(ro.matrix,
                       ro.compact - ro.finite + ro.alpha * ro.isometry)


def test_realize_pads_identity_when_no_infinite_part():
    t = PositiveTriple(2.0, positive_points((1.0, 1)), (), 0)
    ro = realize_matrix(t, dim=4)
    assert ro.labels == ("k", "identity", "identity", "identity")
    assert np.allclose(ro.diagonal.real, [3.0, 2.0, 2.0, 2.0])


def test_realize_alpha_zero_triple_pads_identity():
    # a finite positive model has alpha 0; its triple keeps V = I on the slack
    t = decompose_positive(positive_points((3.0, 1), (1.0, 1)))
    assert t.alpha == 0.0
    ro = realize_matrix(t, dim=4)
    assert ro.labels == ("k", "k", "identity", "identity")
    assert np.array_equal(ro.isometry, np.eye(4))
    rep = verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry,
                           ro.alpha)
    assert rep.ok and rep.mode == "positive"


def test_realize_pads_kernel_for_compact_structures():
    m = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(2.0 + 0j, 1),
                                     EigenvalueEntry(1.0 + 0j, 1)))
    sd = structure_selfadjoint(m)
    assert sd.alpha == 0.0
    ro = realize_matrix(sd, dim=4)
    assert ro.labels[-2:] == ("kernel", "kernel")
    assert np.allclose(sorted(ro.diagonal.real), [0.0, 0.0, 1.0, 2.0])


def test_realize_shares_slack_round_robin():
    m = positive_points((2.0, INF), (3.0, 1))
    sd = structure_selfadjoint(m)
    ro = realize_matrix(sd, dim=6)
    assert ro.labels.count("identity") == 5
    t = full_triple()
    ro = realize_matrix(t, dim=12, seed=0)
    assert ro.labels.count("cluster") == 8  # single sink takes all slack


#: blocks out of order, four sinks (two clusters, an infinite identity block
#: and an infinite kernel) and five finite directions; the explicit cluster
#: has two members
SINKS_DOCUMENT = {
    "alpha": 1.0,
    "blocks": [
        {"part": "f", "value": 0.25, "mult": 1, "phase": [1.0, 0.0]},
        {"part": "identity", "value": 0.0, "mult": "inf", "phase": [-1.0, 0.0]},
        {"part": "k", "value": 1.5, "mult": 1, "phase": [-1.0, 0.0]},
        {"part": "identity", "value": 0.0, "mult": 1, "phase": [0.0, 1.0]},
        {"part": "k", "value": 0.5, "mult": 2, "phase": [1.0, 0.0]},
    ],
    "clusters": [
        {"limit": 1.0, "side": "above",
         "deltas": {"kind": "geometric", "first": 0.5, "ratio": 0.5}},
        {"limit": -1.0, "side": "below",
         "deltas": {"kind": "explicit", "terms": [0.5, 0.25]}},
    ],
    "kernel_multiplicity": "inf",
}


@pytest.mark.parametrize("dim, cluster_share, identity_share, kernel_share", [
    (19, 4, 3, 3),  # 14 leftover over 4 sinks: the first two take one more
    (8, 1, 1, 0),   # 3 leftover: the last sink, the kernel, takes none
])
def test_realize_shares_leftover_among_sinks_in_entry_order(
        dim, cluster_share, identity_share, kernel_share):
    ro = realize_matrix(parse_structure(SINKS_DOCUMENT), dim=dim)
    geometric = [1.5, 1.25, 1.125, 1.0625][:cluster_share]
    explicit = ([-1.5, -1.25] + [-1.25] * 2)[:cluster_share]  # repeats its last member
    want = ([-2.5, 1.5, 1.5] + geometric + explicit + [-1.0] * identity_share
            + [1j, 0.75] + [0.0] * kernel_share)
    assert ro.labels == (("k",) * 3 + ("cluster",) * (2 * cluster_share)
                         + ("identity",) * (identity_share + 1) + ("f",)
                         + ("kernel",) * kernel_share)
    assert np.array_equal(ro.diagonal, np.array(want, dtype=complex))
    phases = ([-1, 1, 1] + [1] * cluster_share + [-1] * cluster_share
              + [-1] * identity_share + [1j, 1] + [0] * kernel_share)
    assert np.array_equal(np.diag(ro.isometry), np.array(phases, dtype=complex))


def test_realize_requires_room_for_finite_directions():
    with pytest.raises(DimTooSmallError):
        realize_matrix(full_triple(), dim=3)
    with pytest.raises(DimTooSmallError):
        realize_matrix(full_triple(), dim=0)
    with pytest.raises(DimTooLargeError):
        realize_matrix(full_triple(), dim=MAX_DIM + 1)


def test_realize_rejects_infinite_compact_blocks():
    sd = StructuredDecomposition(2.0, (Block(1.0 + 0j, "k", 1.0, INF),), (), 0)
    with pytest.raises(MalformedModelError):
        realize_matrix(sd, dim=8)


@pytest.mark.parametrize("phase,part,value", [
    (1.0 + 0j, "q", 0.5), (0j, "q", -3.0), (1.0 + 0j, "k", -3.0),
    (1.0 + 0j, "f", math.inf), (1.0 + 0j, "k", math.nan), (0j, "k", 0.5),
    (2.0 + 0j, "f", 0.5), (complex(math.nan, 0.0), "identity", 0.0),
], ids=["part", "part-zero-phase-negative", "negative", "infinite", "nan-value",
        "zero-phase", "long-phase", "nan-phase"])
def test_structure_refuses_a_block_it_cannot_realize(phase, part, value):
    # once realized without a word: a part that is not k/f/identity was
    # dropped, and a bad value or phase became an eigenvalue no block states
    with pytest.raises(MalformedModelError):
        realize_matrix(StructuredDecomposition(1.0, (Block(phase, part, value, 1),), (), 0),
                       dim=4)


def test_realize_seed_conjugates_all_components():
    ro0 = realize_matrix(full_triple(), dim=8, seed=0)
    ro1 = realize_matrix(full_triple(), dim=8, seed=5)
    u = seeded_unitary(8, 5)
    assert np.allclose(ro1.matrix, u @ ro0.matrix @ u.conj().T, atol=1e-12)
    assert np.allclose(ro1.compact, u @ ro0.compact @ u.conj().T, atol=1e-12)
    assert np.array_equal(ro1.diagonal, ro0.diagonal)


def test_realize_normal_structure_diagonal_phases():
    m = SpectrumModel(NORMAL, (EigenvalueEntry(2j, INF),
                               EigenvalueEntry(1.0 + 0j, 1)))
    ro = realize_matrix(structure_normal(m), dim=5)
    assert abs(ro.diagonal[ro.labels.index("f")] - 1.0) < 1e-12
    ident = [d for d, lab in zip(ro.diagonal, ro.labels) if lab == "identity"]
    assert all(abs(d - 2j) < 1e-12 for d in ident)


# ---------------------------------------------------------------------------
# verification


def test_verify_positive_realization():
    ro = realize_matrix(full_triple(), dim=10, seed=3)
    rep = verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry,
                           ro.alpha)
    assert rep.ok
    assert rep.mode == "positive"
    assert rep.failures == ()
    assert rep.recombination_residual <= 1e-12
    assert rep.kf_residual <= 1e-12
    assert rep.off_diagonal_norm <= 1e-12


def test_verify_polar_mode_for_signed_spectra():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(3.0 + 0j, 1),
        EigenvalueEntry(-1.0 + 0j, 1),
        EigenvalueEntry(-2.0 + 0j, INF),
    ))
    ro = realize_matrix(structure_selfadjoint(m), dim=9, seed=2)
    rep = verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry,
                           ro.alpha)
    assert rep.ok and rep.mode == "polar"
    assert rep.normality_defect <= 1e-12
    assert rep.partial_isometry_defect <= 1e-12


def test_verify_flags_finite_part_above_alpha():
    n = 4
    k = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    f = np.diag([0.0, 0.0, 3.0, 0.0]).astype(complex)
    v = np.eye(n, dtype=complex)
    t = k - f + 2.0 * v
    rep = verify_structure(t, k, f, v, 2.0)
    assert not rep.ok
    assert "f_below_alpha" in rep.failures


def test_verify_flags_overlapping_supports():
    k = np.diag([2.0, 0.0]).astype(complex)
    f = np.diag([1.0, 0.0]).astype(complex)
    v = np.eye(2, dtype=complex)
    t = k - f + 1.0 * v
    rep = verify_structure(t, k, f, v, 1.0)
    assert not rep.ok
    assert "kf_orthogonality" in rep.failures


def test_verify_flags_bad_recombination():
    ro = realize_matrix(full_triple(), dim=8, seed=1)
    wrong = ro.matrix + 0.5 * np.eye(8)
    rep = verify_structure(wrong, ro.compact, ro.finite, ro.isometry, ro.alpha)
    assert not rep.ok
    assert "recombination" in rep.failures


def test_verify_flags_non_psd_compact_part():
    n = 3
    k = np.diag([-1.0, 0.0, 0.0]).astype(complex)
    f = np.zeros((n, n), dtype=complex)
    v = np.eye(n, dtype=complex)
    t = k - f + 1.0 * v
    rep = verify_structure(t, k, f, v, 1.0)
    assert not rep.ok
    assert "k_positive" in rep.failures


def _count_eigensolves(monkeypatch):
    """Every ``hermitian_eigen`` call as ``(input, result)``, in call order."""
    calls = []
    real = anop.matrix.hermitian_eigen

    def counting(a, *args, **kwargs):
        eig = real(a, *args, **kwargs)
        calls.append((a, eig))
        return eig

    monkeypatch.setattr(anop.matrix, "hermitian_eigen", counting)
    return calls


def test_verify_positive_mode_sweeps_only_the_basis_solve(monkeypatch):
    ro = realize_matrix(full_triple(), dim=10, seed=3)
    calls = _count_eigensolves(monkeypatch)
    rep = verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry,
                           ro.alpha)
    assert rep.ok and rep.mode == "positive"
    # T*T cold; K, F (shared with the block form) and the two witness parts
    # start in its basis, where they are already diagonal
    assert [eig.sweeps > 0 for _, eig in calls] == [True, False, False, False, False]


def test_verify_polar_mode_sweeps_only_the_basis_solve(monkeypatch):
    m = SpectrumModel(NORMAL, (EigenvalueEntry(2.0 + 0j, INF),
                               EigenvalueEntry(1j, 1),
                               EigenvalueEntry(3j, 1)))
    ro = realize_matrix(structure_normal(m), dim=6, seed=2)
    assert np.linalg.norm(ro.finite - ro.finite.conj().T) > 0.1
    calls = _count_eigensolves(monkeypatch)
    rep = verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry,
                           ro.alpha)
    assert rep.ok and rep.mode == "polar"
    # T*T cold; F*F (shared with the block form) and the two witness parts
    # start in its basis
    assert [eig.sweeps > 0 for _, eig in calls] == [True, False, False, False]


def test_verify_polar_mode_with_hermitian_f_solves_f_once(monkeypatch):
    # a negative phase puts a self-adjoint realization in polar mode with a
    # Hermitian F = diag(-1, 0, ...) in a seeded basis
    m = SpectrumModel(SELF_ADJOINT, (EigenvalueEntry(3.0 + 0j, 1),
                                     EigenvalueEntry(-1.0 + 0j, 1),
                                     EigenvalueEntry(-2.0 + 0j, INF)))
    ro = realize_matrix(structure_selfadjoint(m), dim=9, seed=2)
    assert np.linalg.norm(ro.finite - ro.finite.conj().T) <= 1e-12
    starts = []
    real = anop.matrix.hermitian_eigen

    def recording(a, basis=None):
        starts.append("cold" if basis is None else "warm")
        return real(a, basis)

    monkeypatch.setattr(anop.matrix, "hermitian_eigen", recording)
    rep = verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry, ro.alpha)
    assert rep.ok and rep.mode == "polar"
    # T*T cold; F (the splitter, whose eigenvalues also bound F*F) and the
    # two witness parts start in its basis
    assert starts == ["cold", "warm", "warm", "warm"]
    # the F*F bound reads F's most negative eigenvalue: -3 squared tops
    # alpha**2 = 4 by 5
    f = 3.0 * ro.finite
    t = ro.compact - f + ro.alpha * ro.isometry
    rep = verify_structure(t, ro.compact, f, ro.isometry, ro.alpha)
    assert "f_below_alpha" in rep.failures
    assert abs(rep.f_bound_defect - 5.0 / 4.0) <= 1e-12


def test_verify_warm_started_psd_defect_matches_lapack(monkeypatch):
    ro = realize_matrix(full_triple(), dim=12, seed=5)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    w /= np.linalg.norm(w)
    k = ro.compact - (1.0 + np.linalg.norm(ro.compact)) * np.outer(w, w.conj())
    calls = _count_eigensolves(monkeypatch)
    rep = verify_structure(ro.matrix, k, ro.finite, ro.isometry, ro.alpha)
    assert not rep.ok and "k_positive" in rep.failures
    # the corrupted K is not diagonal in the basis of T*T: its solve sweeps
    assert calls[1][1].sweeps > 0
    want = -np.linalg.eigvalsh(k)[0] / np.linalg.norm(k)
    assert want > 0.1
    assert abs(rep.k_psd_defect - want) <= 1e-12 * want


def _measured(report):
    """Every report field but the judgement (``ok`` and ``failures``)."""
    fields = dict(vars(report))
    del fields["ok"], fields["failures"]
    return fields


def test_verify_measures_a_non_hermitian_f_alike_under_any_tol():
    # F skewed by 1e-8 splits by F*F at CHECK_TOL whatever tol is: a loose
    # tol passes the f_hermitian check on the same measured defects
    ro = realize_matrix(full_triple(), dim=8, seed=1)
    f = ro.finite.copy()
    f[0, 1] += 1e-8
    strict, loose = (verify_structure(ro.matrix, ro.compact, f, ro.isometry,
                                      ro.alpha, tol=tol) for tol in (1e-10, 1e-6))
    assert _measured(strict) == _measured(loose)
    assert strict.mode == "positive" and "f_hermitian" in strict.failures
    assert loose.ok


def _perturbed(ro, how):
    """The realization's ``(T, K, F, V)`` with one small defect: F or K
    skewed by 1e-8 at one entry, V off by 1e-7 on one diagonal entry, or F
    plus 1e-7 on one diagonal entry."""
    k, f, v = ro.compact.copy(), ro.finite.copy(), ro.isometry.copy()
    m, at, step = {"none": (f, (0, 0), 0.0), "f_skew": (f, (0, 1), 1e-8),
                   "k_skew": (k, (0, 1), 1e-8), "v_off": (v, (0, 0), 1e-7),
                   "f_small": (f, (0, 0), 1e-7)}[how]
    m[at] += step
    return ro.matrix, k, f, v


@pytest.mark.parametrize("spec", [p.name for p in sorted(SPECS.glob("*.json"))
                                  if not p.name.startswith("violator")])
def test_verify_measures_the_same_under_every_tol(spec):
    # tol judges and decides nothing: the mode, every defect and the block
    # form's coupling are the same at every tol, and no tol makes it refuse
    sd = decomposition(parse_model(load((SPECS / spec).read_text())))
    for dim in (8, 16):
        for seed in (0, 3):
            ro = realize_matrix(sd, dim, seed)
            for how in ("none", "f_skew", "k_skew", "v_off", "f_small"):
                operands = _perturbed(ro, how)
                reports = [_measured(verify_structure(*operands, ro.alpha, tol=tol))
                           for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-3)]
                assert all(r == reports[0] for r in reports[1:]), (dim, seed, how)


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("k_top, f_entry, skewed, failure, defect, want", [
    (1.0, -0.5, "f", "f_positive", "f_psd_defect", 0.5),
    (1.0, 3.0, "f", "f_below_alpha", "f_bound_defect", 0.5),
    (-1.0, 0.5, "k", "k_positive", "k_psd_defect", 1.0),
], ids=["f_positive", "f_below_alpha", "k_positive"])
def test_verify_positive_mode_measures_every_bound(tol, k_top, f_entry, skewed,
                                                   failure, defect, want):
    # a part skewed beyond CHECK_TOL still has its positivity bounds
    # measured, on its Hermitian part, at a strict and at a loose tol
    k = np.diag([k_top, 0.0, 0.0, 0.0]).astype(complex)
    f = np.diag([0.0, 0.0, f_entry, 0.0]).astype(complex)
    (f if skewed == "f" else k)[2, 3] = 1e-8
    v = np.eye(4, dtype=complex)
    rep = verify_structure(k - f + 2.0 * v, k, f, v, 2.0, tol=tol)
    assert rep.mode == "positive"
    assert failure in rep.failures
    assert abs(getattr(rep, defect) - want) <= 1e-12


# ---------------------------------------------------------------------------
# block form and blockwise inversion


def test_block_form_reducing_subspace():
    t = np.diag([3.0, 1.0, 2.0]).astype(complex)
    s = np.diag([1.0, 0.0, 1.0]).astype(complex)
    bf = block_form(t, s)
    assert bf.range_dim == 2 and bf.kernel_dim == 1
    assert bf.off_diagonal_norm <= 1e-12
    assert np.allclose(sorted(np.diag(bf.on_range).real), [2.0, 3.0])
    assert np.allclose(bf.on_kernel, [[1.0]])


def test_block_form_detects_coupling():
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s = np.diag([1.0, 0.0]).astype(complex)
    bf = block_form(t, s)
    assert bf.off_diagonal_norm > 0.9


def test_block_form_shape_guard():
    with pytest.raises(ShapeMismatchError):
        block_form(np.eye(2), np.eye(3))


def test_inverse_via_blocks_matches_direct_inverse():
    ro = realize_matrix(full_triple(), dim=9, seed=4)
    inv = inverse_via_blocks(ro.compact, ro.finite, ro.alpha)
    direct = np.linalg.inv(ro.matrix)
    assert np.linalg.norm(inv - direct) <= 1e-12 * np.linalg.norm(direct)
    assert np.linalg.norm(ro.matrix @ inv - np.eye(9)) <= 1e-12


def test_inverse_via_blocks_eigensolves_f_once(monkeypatch):
    ro = realize_matrix(full_triple(), dim=16, seed=3)
    calls = _count_eigensolves(monkeypatch)
    inv = inverse_via_blocks(ro.compact, ro.finite, ro.alpha)
    assert np.linalg.norm(ro.matrix @ inv - np.eye(16)) <= 1e-12
    # F, then K compressed to the kernel of F; F is diagonal on its range
    assert [c[0].shape[0] for c in calls] == [16, 13]


def test_inverse_via_blocks_requires_shift_and_injectivity():
    n = 3
    k = np.diag([1.0, 0.0, 0.0]).astype(complex)
    f = np.zeros((n, n), dtype=complex)
    # alpha is data: within MERGE_TOL of zero it is no shift, as in invert
    for alpha in (0.0, 5e-10):
        with pytest.raises(AlphaZeroError):
            inverse_via_blocks(k, f, alpha)
    f = np.diag([0.0, 2.0, 0.0]).astype(complex)
    with pytest.raises(NotInjectiveError):
        inverse_via_blocks(k, f, 2.0)


# ---------------------------------------------------------------------------
# converse witness


def test_witness_accepts_canonical_decomposition():
    ro = realize_matrix(full_triple(), dim=8, seed=6)
    wit = converse_witness(ro.compact, ro.finite, ro.isometry, ro.alpha,
                           ro.matrix)
    assert wit.an_predicted
    assert wit.identity_residual <= 1e-12
    assert wit.script_k_min_eig >= -1e-10
    assert wit.script_f_min_eig >= -1e-10


def test_witness_rejects_oversized_finite_part():
    n = 3
    k = np.zeros((n, n), dtype=complex)
    f = 5.0 * np.eye(n, dtype=complex)
    v = np.eye(n, dtype=complex)
    wit = converse_witness(k, f, v, 2.0)
    assert not wit.an_predicted
    assert wit.script_f_min_eig < -1.0


def test_witness_rejects_negative_compact_part():
    n = 3
    k = -np.eye(n, dtype=complex)
    f = np.zeros((n, n), dtype=complex)
    v = np.eye(n, dtype=complex)
    wit = converse_witness(k, f, v, 1.0)
    assert not wit.an_predicted
    assert wit.script_k_min_eig < -0.5


def test_witness_refuses_a_gram_beyond_the_solver_range_naming_t():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedModelError) as exc:
            converse_witness(np.diag([1e300, 0.0, 0.0]), np.zeros((3, 3)), np.eye(3), 2.0)
    assert exc.value.message.startswith("T norm 1e+300 is too large")


def test_witness_identity_residual_detects_wrong_t():
    n = 3
    z = np.zeros((n, n), dtype=complex)
    wit = converse_witness(z, z, z, 1.0, np.eye(n, dtype=complex))
    assert not wit.an_predicted
    assert wit.identity_residual > 0.1


@pytest.mark.parametrize("corrupt", [False, True], ids=["canonical", "corrupted-k"])
def test_witness_started_in_a_basis_matches_a_cold_witness(corrupt):
    ro = realize_matrix(full_triple(), dim=12, seed=5)
    k = ro.compact - 2.0 * np.eye(12) if corrupt else ro.compact
    q = seeded_unitary(12, 9)
    warm = converse_witness(k, ro.finite, ro.isometry, ro.alpha, ro.matrix, basis=q)
    cold = converse_witness(k, ro.finite, ro.isometry, ro.alpha, ro.matrix)
    assert warm.an_predicted == cold.an_predicted == (not corrupt)
    for name in ("identity_residual", "partial_isometry_defect",
                 "script_k_min_eig", "script_f_min_eig"):
        want = getattr(cold, name)
        assert abs(getattr(warm, name) - want) <= 1e-12 * max(abs(want), 1.0), name


@pytest.mark.parametrize("check", ["converse_witness", "verify_structure"])
@pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
def test_alpha_must_be_finite_and_nonnegative(check, alpha):
    ro = realize_matrix(full_triple(), dim=6, seed=1)
    with pytest.raises(MalformedModelError, match="alpha must be finite"):
        if check == "converse_witness":
            converse_witness(ro.compact, ro.finite, ro.isometry, alpha)
        else:
            verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry, alpha)


#: operand count and call of each function with several same-shape operands
SHAPED_CALLS = {
    "converse_witness": (3, lambda ops: converse_witness(*ops, 1.0)),
    "converse_witness-t": (4, lambda ops: converse_witness(*ops[:3], 1.0, ops[3])),
    "verify_structure": (4, lambda ops: verify_structure(*ops, 1.0)),
    "inverse_via_blocks": (2, lambda ops: inverse_via_blocks(*ops, 1.0)),
}
SHAPE_CASES = [(name, bad) for name, (count, _) in SHAPED_CALLS.items()
               for bad in range(count)]


@pytest.mark.parametrize("name,bad", SHAPE_CASES,
                         ids=[f"{name}-{bad}" for name, bad in SHAPE_CASES])
def test_one_mis_shaped_operand_is_a_shape_mismatch(name, bad):
    count, call = SHAPED_CALLS[name]
    ops = [np.eye(3, dtype=complex) for _ in range(count)]
    ops[bad] = np.eye(4, dtype=complex)
    with pytest.raises(ShapeMismatchError):
        call(ops)
