"""Finite matrix realizations and numerical verification.

Everything here works on concrete numpy matrices: realizing a spectral
decomposition as a (optionally conjugated) matrix, eigendecomposing it with
an in-house Jacobi solver, and checking the structural identities
``T = K - F + alpha*V``, ``KF = 0``, positivity bounds and the converse
witness ``T*T = scriptK - scriptF + alpha**2 * V*V``.

The Jacobi kernel is the only eigensolver in ``src/``; numpy's LAPACK
routines appear only in ``tests/``.  Its pivot and stopping tests are
absolute, about ``EIGEN_TOL * norm(A, 'fro')``: on graded input spanning
1e-8 its worst relative eigenvalue error measured 6.0e-2 (LAPACK's
1.1e-14), and relative accuracy (Demmel and Veselic, 1992) is ROADMAP.md's
Direction 16.  The kernel is plain numpy: it visits the off-diagonal pairs
in the Brent-Luk (1985) round-robin order, whose rounds of disjoint
rotations vectorize.  The matrix and its eigenvector basis are one
column-major ``(2n, n)`` stack, so a round is one column gather that rotates
both, then one row gather, one row scatter and one zeroing scatter on the
matrix; the order is built only when a first sweep runs.

Verification shares one basis.  ``verify_structure`` eigensolves ``T*T``
once, cold, and passes its eigenvectors ``Q`` as the ``basis`` of every
later :func:`hermitian_eigen` call (in positive mode, K's Hermitian part and
F's behind a splitter ``F*F``; the splitter; the two witness parts), which
then runs Jacobi on ``Q* X Q``; the ``F*F`` bound is read off the splitter's
eigenvalues.  The components of a canonical realization are diagonal in that
basis, so those solves mostly take no sweep.  The stopping test is the same
as for a cold solve, so a basis that fits ``X`` poorly costs sweeps, not
accuracy.  The solver takes input whose Frobenius norm is a finite float,
below about 1.3e154; a ``T*T`` or ``F*F`` beyond that is refused as it is
formed, naming T's or F's norm.  There is no lower bound: a norm whose sum
of squares underflows is taken scaled by the largest entry, and Jacobi
solves input of norm below about 1.2e-271 scaled up by a power of two.
"""

from __future__ import annotations

import math
import os
import queue
import sys
import threading
from contextlib import contextmanager

import numpy as np

from ._record import record
from .decompose import PositiveTriple, StructuredDecomposition, _checked_alpha
from .errors import (
    AlphaZeroError,
    DimTooLargeError,
    DimTooSmallError,
    MalformedModelError,
    NoConvergenceError,
    NotHermitianError,
    NotInjectiveError,
    ShapeMismatchError,
)
from .model import INF, MERGE_TOL, Cluster

MAX_DIM = 1024
EIGEN_TOL = 1e-13
MAX_SWEEPS = 100
CHECK_TOL = 1e-10
POLAR_TOL = 1e-12
# Jacobi rescales input of smaller Frobenius norm, about 1.2e-271, by its
# inverse: ``EIGEN_TOL * norm / (2n)`` stays a normal float up to MAX_DIM
_TINY_NORM = 2.0 ** -900
# seeded_unitary and realize_matrix share their work with a second thread
# from this dimension on: it paid from 128, cost 60% at 64 (BENCH_26.json)
_SPLIT_DIM = 128

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _parallel_order(n):
    """Brent-Luk round-robin ordering, one round per row: with ``n`` rounded
    up to even ``m``, round ``r`` seats ``0`` then ``1 + (j - r) mod (m - 1)``
    and pairs the first half with the reversed second half, so ``m - 1``
    rounds of disjoint pairs meet every pair once.  A row is the round's
    ``concat(p, q)``; the index ``n`` of odd ``n`` is a phantom whose pair is
    dropped."""
    m = n + n % 2
    j = np.arange(m - 1)
    order = np.insert(1 + (j - j[:, None]) % (m - 1), 0, 0, axis=1)
    p, q = order[:, :m // 2], order[:, :m // 2 - 1:-1]
    keep = (p < n) & (q < n)
    return np.concatenate((p[keep].reshape(m - 1, -1), q[keep].reshape(m - 1, -1)), axis=1)


def _jacobi_sweeps(av):
    """Parallel-order complex Jacobi on the column-major ``(2n, n)`` stack
    ``av`` of a Hermitian matrix ``a`` over its basis ``v``, which
    accumulates the eigenvectors.  Returns the sweep count, or -1 when
    ``MAX_SWEEPS`` sweeps do not converge.

    A round's rotations touch disjoint pairs, so they commute and are
    applied at once.  Its pivots and both diagonals are 1-D gathers from the
    stack's memory.  One column gather of the round's ``concat(p, q)`` and
    two scatters rotate ``a`` and ``v`` together.  On the view ``a``, one
    gather of rows ``concat(p, q)`` takes both products of every row, the
    sums and differences are formed in place, one scatter writes the rows
    and one 1-D scatter zeroes the pivots: the floating-point operations of
    separate ``p`` and ``q`` updates, so the same bits, signed zeros
    included.  Each round's index arrays are built once per solve, and only
    once the first convergence test fails, so a solve that starts converged
    never builds the order.  The off-diagonal mass is summed directly:
    deriving it from ``norm(a)**2 - norm(diag)**2`` cancels
    catastrophically near convergence and stalls the test on rounding noise.
    """
    n = av.shape[1]
    a = av[:n]
    norm_f = _fro(a)
    if norm_f == 0.0:
        return 0
    if norm_f < _TINY_NORM:
        # the pivot threshold would near the subnormals, where rotations
        # lose their precision or overflow; a power of two scales exactly
        a /= _TINY_NORM
        sweeps = _jacobi_sweeps(av)
        a *= _TINY_NORM
        return sweeps
    thresh = EIGEN_TOL * norm_f
    pivot_tol = thresh / (2.0 * n)
    off_diagonal = ~np.eye(n, dtype=bool)
    # the stack's memory as one vector: entry (i, j) of a is flat[i + 2n j]
    flat = av.reshape(-1, order="F")
    diagonal = flat.view(np.float64)[::4 * n + 2]  # the real parts
    rounds = None
    for sweep in range(MAX_SWEEPS):
        if _fro(a[off_diagonal]) <= thresh:
            return sweep
        if rounds is None:
            h = n // 2  # pairs per round; odd n drops its phantom's pair
            rounds = []
            for pq in _parallel_order(n):
                # flat indices of the entries (p, q), then of (q, p)
                pivots = pq + 2 * n * np.concatenate((pq[h:], pq[:h]))
                rounds.append((pq[:h], pq[h:], pq, pivots[:h], pivots))
        for p, q, pq, upper, pivots in rounds:
            apq = flat[upper]
            r = np.abs(apq)
            big = r > pivot_tol
            h = np.count_nonzero(big)
            if h < p.size:
                if h == 0:
                    continue
                p, q, apq, r = p[big], q[big], apq[big], r[big]
                pqp = np.concatenate((p, q, p))
                pq, pivots = pqp[:2 * h], pqp[:2 * h] + 2 * n * pqp[h:]
            d = diagonal[pq]
            tau = (d[:h] - d[h:]) / (2.0 * r)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sp = t * c * (apq / r)
            spc = sp.conj()
            c = c.astype(np.complex128)
            m = av[:, pq]
            av[:, p] = c * m[:, :h] + spc * m[:, h:]
            av[:, q] = c * m[:, h:] - sp * m[:, :h]
            m = a[pq]
            y = np.concatenate((spc, sp))[:, None] * m
            m *= np.concatenate((c, c))[:, None]
            np.add(m[:h], y[h:], out=m[:h])
            np.subtract(m[h:], y[:h], out=m[h:])
            a[pq] = m
            flat[pivots] = 0.0
    return -1


@record()
class EigenDecomposition:
    """Eigenvalues ascending (by real part, then imaginary) with matching
    eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int = 0


@record()
class PolarPair:
    """``T = isometry @ modulus`` with the isometry vanishing on the kernel."""

    isometry: np.ndarray
    modulus: np.ndarray


@record()
class BlockForm:
    """Compression of an operator onto the range/kernel splitting of a
    Hermitian splitter matrix."""

    on_range: np.ndarray
    on_kernel: np.ndarray
    off_diagonal_norm: float
    range_dim: int
    kernel_dim: int


@record()
class RealizedOperator:
    """A spectral decomposition materialized at finite dimension.

    ``matrix = unitary @ diag(diagonal) @ unitary*`` and the component
    matrices satisfy ``matrix = compact - finite + alpha * isometry`` by
    construction.  ``labels`` names each diagonal slot (k, cluster,
    identity, f, kernel) in entry order.
    """

    matrix: np.ndarray
    compact: np.ndarray
    finite: np.ndarray
    isometry: np.ndarray
    alpha: float
    diagonal: np.ndarray
    unitary: np.ndarray
    labels: tuple[str, ...]


@record(frozen=True)
class WitnessReport:
    """Converse-direction witness data for ``T = K - F + alpha*V``."""

    identity_residual: float
    partial_isometry_defect: float
    script_k_min_eig: float
    script_f_min_eig: float
    an_predicted: bool


@record(frozen=True)
class VerificationReport:
    """Numerical check of a structural decomposition; every defect is scaled
    by the relevant operand norms so ``ok`` compares against one tolerance."""

    ok: bool
    mode: str  # "positive" (V = I) or "polar"
    recombination_residual: float
    kf_residual: float
    k_hermitian_defect: float
    f_hermitian_defect: float
    k_psd_defect: float
    f_psd_defect: float
    f_bound_defect: float
    normality_defect: float
    partial_isometry_defect: float
    off_diagonal_norm: float
    witness_min_eig: float
    failures: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# core linear algebra


def _as_square(a, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"{what} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ShapeMismatchError(f"{what} must be nonempty")
    return m


def _fro(a) -> float:
    """Frobenius norm.  When the sum of squares leaves the normal floats, as
    it overflows for entries above about 1e154 and underflows to a subnormal
    or zero when every entry is below about 1e-154, the moduli are first
    divided by the largest."""
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(a) ** 2))
    if not sys.float_info.min <= total < math.inf:
        mod = np.abs(a)
        big = float(np.max(mod, initial=0.0))
        if 0.0 < big < math.inf:
            return big * math.sqrt(float(np.sum((mod / big) ** 2)))
    return math.sqrt(total)


def _gram(m, name: str) -> np.ndarray:
    """``m* m``, refused where the eigensolver would refuse it, by a message
    that names the norm of ``m``, the matrix the caller gave."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.conj().T @ m
        norm = _fro(gram)
    if not math.isfinite(norm * norm):
        raise MalformedModelError(
            f"{name} norm {_fro(m)} is too large for the eigensolver to take "
            f"{name}*{name}, whose norm must be a float below about 1.3e154")
    return gram


def _splitter(f):
    """F's Hermitian defect ``||F - F*|| / max(||F||, 1)`` and the matrix
    that splits by F's range: F within CHECK_TOL of Hermitian, else ``F*F``."""
    defect = _fro(f - f.conj().T) / max(_fro(f), 1.0)
    return defect, (f if defect <= CHECK_TOL else _gram(f, "F"))


def _operands(**named) -> list[np.ndarray]:
    """Each named operand as a nonempty square complex matrix; all must
    share one shape."""
    mats = [_as_square(m, name) for name, m in named.items()]
    if len({m.shape for m in mats}) > 1:
        shapes = ", ".join(f"{name} {m.shape}" for name, m in zip(named, mats))
        raise ShapeMismatchError(f"operand shapes differ: {shapes}")
    return mats


def _hermitian_input(a) -> np.ndarray:
    """The eigensolver's input checks: ``a`` square, at most MAX_DIM, with a
    Frobenius norm whose square is a finite float and Hermitian to working
    precision; returns its Hermitian part."""
    m = _as_square(a, "eigensolver input")
    n = m.shape[0]
    if n > MAX_DIM:
        raise DimTooLargeError(f"dimension {n} exceeds the solver cap {MAX_DIM}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _fro(m)
        asymmetry = _fro(m - m.conj().T)
    if not math.isfinite(norm * norm):
        raise MalformedModelError(
            f"eigensolver input norm {norm} is not a finite float below about 1.3e154")
    if asymmetry > 1e-10 * max(norm, 1.0):
        raise NotHermitianError("eigensolver input is not Hermitian")
    return (m + m.conj().T) / 2.0


def hermitian_eigen(a, basis=None) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by round-robin
    (parallel-order) Jacobi, started in the orthonormal ``basis`` unless it
    is None.

    The input checks run once, on ``a`` itself.  With a basis, Jacobi runs
    on ``basis* a basis``, Hermitian by construction and only symmetrized,
    and the eigenvectors come back through ``basis``, which is Jacobi with
    the accumulated basis started at ``basis``.

    Raises NotHermitianError when the input is not Hermitian to working
    precision, DimTooLargeError beyond MAX_DIM, MalformedModelError when
    its Frobenius norm is not a finite float below about 1.3e154 (a NaN or
    infinite entry, or a norm whose square overflows), and NoConvergenceError
    if the off-diagonal mass survives ``MAX_SWEEPS`` sweeps.
    """
    work = _hermitian_input(a)
    if basis is not None:
        _, basis = _operands(a=work, basis=basis)
        work = basis.conj().T @ work @ basis
        work = (work + work.conj().T) / 2.0
    n = work.shape[0]
    av = np.asfortranarray(np.concatenate((work, np.eye(n))))
    sweeps = _jacobi_sweeps(av)
    if sweeps < 0:
        raise NoConvergenceError(
            f"Jacobi did not converge within {MAX_SWEEPS} sweeps at dimension {n}")
    values = np.real(np.diag(av[:n])).copy()
    order = np.argsort(values, kind="stable")
    vectors = av[n:, order] if basis is None else basis @ av[n:, order]
    return EigenDecomposition(values[order], vectors, sweeps)


def polar_decompose(a) -> PolarPair:
    """Polar factorization ``T = V|T|`` with V a partial isometry that is
    zero on the kernel of T (so V*V is the range projection of ``|T|``).

    ``T*T`` is eigensolved; one beyond the solver's range raises
    MalformedModelError from :func:`_gram`, naming T's norm."""
    t = _as_square(a, "polar input")
    eig = hermitian_eigen(_gram(t, "T"))
    svals = np.sqrt(np.clip(eig.values, 0.0, None))
    modulus = (eig.vectors * svals) @ eig.vectors.conj().T
    order, r = _range_first(svals, POLAR_TOL)
    cols = eig.vectors[:, order[:r]]
    iso = ((t @ cols) / svals[order[:r]]) @ cols.conj().T
    return PolarPair(iso, modulus)


# ---------------------------------------------------------------------------
# deterministic random unitaries


def _splitmix_uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of splitmix64 from state ``seed``, mapped
    into (0, 1] as ``(x + 1) / 2**64``.

    Draw ``i`` (from 1) mixes the state ``z_i = seed + i*gamma mod 2**64``
    (Steele, Lea & Flood, 2014), so the stream is one pass of ``uint64``
    array operations.  ``x + 1`` is rounded to float64 once, as the exact
    integer would be: the 32-bit halves ``hi*2**32`` and ``lo + 1`` are
    exact in float64 and their sum rounds once.  Only integer and IEEE
    arithmetic is involved, so the stream is the same on every platform.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    np.right_shift(z, np.uint64(32), out=t)
    out = t.astype(np.float64)
    out *= 2.0 ** 32
    z &= np.uint64(0xFFFFFFFF)
    z += np.uint64(1)
    out += z
    out /= 2.0 ** 64
    return out


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _second_thread(dim: int):
    """Yield ``run(f, *args)``: a call at once or, from ``_SPLIT_DIM`` on
    two CPUs, one queued for a worker thread that makes the calls in order.
    Leaving waits for the worker and raises the first error of a call."""
    if dim < _SPLIT_DIM or _cpus() < 2:
        yield lambda f, *args: f(*args)
        return
    calls, errors = queue.SimpleQueue(), []

    def work():
        try:
            for f, args in iter(calls.get, None):
                f(*args)
        except Exception as exc:  # raised again by the caller
            errors.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        yield lambda f, *args: calls.put((f, args))
    finally:
        calls.put(None)
        worker.join()
    if errors:
        raise errors[0]


def _reflect(q, k, x, scratch):
    """Householder step ``k``: ``q[:, k:]`` times ``I - 2 x x*``, the outer
    product in the caller's ``scratch`` (a worker's own would stay resident)."""
    n = len(q)
    outer = np.outer(q[:, k:] @ x, x.conj(), scratch[:n * (n - k)].reshape(n, n - k))
    q[:, k:] -= np.multiply(2.0, outer, out=outer)


def seeded_unitary(dim: int, seed: int) -> np.ndarray:
    """Deterministic unitary: seed 0 is the identity, any other seed drives
    the splitmix64 stream of :func:`_splitmix_uniforms` through Box-Muller
    into a complex Gaussian matrix, then Householder QR with the
    R-diagonal phases folded into Q.  Only the uniforms are the same on
    every platform: the loop's matrix-vector products are BLAS calls, whose
    bits depend on the BLAS build and its thread count (with OpenBLAS 0.3.31,
    one and two BLAS threads agree up to dim 64 and differ from 96 on).
    From ``_SPLIT_DIM`` on two CPUs a second thread applies each reflector
    to Q (:func:`_reflect`) while this one reduces the next column; each
    runs the one-thread statements in order on its own array, so the bits
    do not change, and the phases are folded in once both are done.
    """
    if dim < 1:
        raise ShapeMismatchError(f"dimension must be positive, got {dim}")
    if seed == 0:
        return np.eye(dim, dtype=np.complex128)
    u = _splitmix_uniforms(seed, 2 * dim * dim)
    u1 = u[0::2].reshape(dim, dim)
    u2 = u[1::2].reshape(dim, dim)
    work = np.sqrt(-2.0 * np.log(u1)) * np.exp(2j * np.pi * u2)
    q, scratch = np.eye(dim, dtype=np.complex128), np.empty(dim * dim, np.complex128)
    with _second_thread(dim) as run:
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
            run(_reflect, q, k, x, scratch)
    for k in range(dim):
        d = work[k, k]
        if abs(d) > 0:
            q[:, k] *= d / abs(d)
    return q


# ---------------------------------------------------------------------------
# realization


def _realize_slots(sd: StructuredDecomposition, dim: int, slack_identity: bool):
    """Exactly ``dim`` diagonal slots ``(t, k, f, v, label)`` in entry order.

    The layout is one list of ``(count, slot)`` runs: compact blocks,
    clusters, identity blocks, finite-rank blocks, kernel.  A run of count
    ``INF`` is a sink: a cluster, an infinite identity block or an infinite
    kernel.  With no sink, one pad sink is added: the identity at ``alpha``
    after the identity blocks when ``alpha`` is positive or
    ``slack_identity`` holds (a positive triple, whose V is the identity
    everywhere), else the kernel, last.  The sinks share the ``dim - finite``
    leftover dimensions, the first ones in entry order taking one more when
    the share is uneven.  A cluster run takes its first members, and an
    explicit sequence shorter than its share repeats its last member to
    stand in for the unexpressed tail.
    """
    alpha = sd.alpha

    def block_runs(part):
        return [(b.mult, (b.eigenvalue(alpha), b.phase * b.value if part == "k" else 0.0,
                          b.phase * b.value if part == "f" else 0.0, b.phase, part))
                for b in sd.blocks if b.part == part]

    k_runs, f_runs = block_runs("k"), block_runs("f")
    if any(count == INF for count, _ in k_runs + f_runs):
        raise MalformedModelError(
            "compact and finite-rank blocks must have finite multiplicity")
    kernel = (0.0, 0.0, 0.0, 0.0, "kernel")
    runs = k_runs + [(INF, cl) for cl in sd.cluster_blocks] + block_runs("identity")
    tail = f_runs + [(sd.kernel_multiplicity, kernel)]
    if all(count != INF for count, _ in runs + tail):
        if alpha > MERGE_TOL or slack_identity:
            runs.append((INF, (alpha, 0.0, 0.0, 1.0, "identity")))
        else:
            tail.append((INF, kernel))
    runs += tail
    finite = sum(count for count, _ in runs if count != INF)
    if dim < finite:
        raise DimTooSmallError(
            f"dimension {dim} cannot hold {finite} finite directions")
    share, extra = divmod(dim - finite, sum(count == INF for count, _ in runs))
    slots = []
    for count, slot in runs:
        if count == INF:
            count, extra = share + (extra > 0), extra - 1
        if not isinstance(slot, Cluster):
            slots += [slot] * count
            continue
        members = list(slot.members(count))
        for m in members + members[-1:] * (count - len(members)):
            phase = m / abs(m) if abs(m) > 0 else 0.0
            slots.append((m, phase * (abs(m) - alpha), 0.0, phase, "cluster"))
    return slots


def realize_matrix(obj, dim: int, seed: int = 0) -> RealizedOperator:
    """Materialize a triple or structured decomposition at finite dimension.

    A triple is realized as its structure (:meth:`PositiveTriple.as_structure`,
    every phase +1).  The diagonal follows :func:`_realize_slots`: each
    finite block takes its multiplicity, and the leftover dimensions go to
    the sinks.  The sinks are the infinite parts (clusters, infinite
    identity and kernel blocks), or when there is none one pad: the
    identity at ``alpha``, but at ``alpha`` 0 the kernel of a structure
    (V = 0) and still the identity of a triple (V = 1).  A nonzero ``seed``
    conjugates every component by the same deterministic unitary; from
    ``_SPLIT_DIM`` on two CPUs, two of the four products run on a second
    thread.
    """
    if dim < 1:
        raise DimTooSmallError(f"dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise DimTooLargeError(f"dimension {dim} exceeds the cap {MAX_DIM}")
    triple = isinstance(obj, PositiveTriple)
    sd = obj.as_structure() if triple else obj
    if not isinstance(sd, StructuredDecomposition):
        raise MalformedModelError(
            f"cannot realize object of type {type(obj).__name__}")
    slots = _realize_slots(sd, dim, slack_identity=triple)
    diagonals = np.array([s[:4] for s in slots], dtype=np.complex128).T
    u = seeded_unitary(dim, seed)
    uh = u.conj().T
    products = np.empty((4, dim, dim), dtype=np.complex128)
    with _second_thread(dim) as run:
        for i in (2, 3):  # operands formed here: a worker's own arrays stay resident
            run(np.matmul, u * diagonals[i], uh, products[i])
        for i in (0, 1):
            np.matmul(u * diagonals[i], uh, products[i])
    matrix, compact, finite, isometry = products
    return RealizedOperator(matrix, compact, finite, isometry, sd.alpha,
                            diagonals[0], u, tuple(s[4] for s in slots))


# ---------------------------------------------------------------------------
# structural verification


def block_form(a, splitter) -> BlockForm:
    """Compress ``a`` onto range/kernel of a Hermitian splitter.

    The basis puts range eigenvectors first, split at ``CHECK_TOL``.  The
    off-diagonal norm is the larger Frobenius norm of the two coupling
    blocks; it vanishes exactly when the splitting reduces ``a``.
    """
    t, s = _operands(a=a, splitter=splitter)
    return _block_form(t, hermitian_eigen(s))


def _range_first(values, tol: float):
    """Splitter eigenvalue indices, range (``|value| > tol * scale``) first
    in ascending order, then kernel; and the range dimension."""
    scale = max(float(np.max(np.abs(values))), 1.0)
    in_range = np.abs(values) > tol * scale
    order = np.concatenate([np.where(in_range)[0], np.where(~in_range)[0]])
    return order, int(np.count_nonzero(in_range))


def _block_form(t, eig: EigenDecomposition) -> BlockForm:
    """:func:`block_form` of ``t`` given the splitter's eigendecomposition."""
    order, r = _range_first(eig.values, CHECK_TOL)
    basis = eig.vectors[:, order]
    b = basis.conj().T @ t @ basis
    off = max(_fro(b[:r, r:]), _fro(b[r:, :r]))
    return BlockForm(b[:r, :r], b[r:, r:], off, r, t.shape[0] - r)


def inverse_via_blocks(k, f, alpha: float, tol: float = CHECK_TOL) -> np.ndarray:
    """Inverse of ``T = K - F + alpha*I`` assembled blockwise.

    On the kernel of F the inverse is
    ``(1/alpha) * (I - K0 @ (K0 + alpha*I)**-1)`` and on the range of F it is
    ``(1/alpha) * (I + F0 @ (alpha*I - F0)**-1)``.  F is eigensolved once:
    F0 is diagonal on F's range eigenvectors, so its block needs no second
    eigensolve; K0 is eigensolved on the kernel of F.  Requires
    ``alpha > MERGE_TOL``, as :func:`invert_triple` does, and F below alpha
    by ``tol * alpha``, F's range cutoff (``invert-matrix``: ``CHECK_TOL``).
    """
    km, fm = _operands(k=k, f=f)
    if alpha <= MERGE_TOL:
        raise AlphaZeroError("blockwise inversion requires a positive shift")
    f_eig = hermitian_eigen(fm)
    order, r = _range_first(f_eig.values, tol)
    q_range = f_eig.vectors[:, order[:r]]
    q_kernel = f_eig.vectors[:, order[r:]]

    n = km.shape[0]
    inv = np.zeros((n, n), dtype=np.complex128)
    if r:
        f_values = f_eig.values[order[:r]]
        gap = alpha - f_values
        if np.any(gap <= tol * alpha):
            raise NotInjectiveError(
                "finite-rank part reaches alpha: operator has a kernel")
        factor = 1.0 + f_values / gap
        inv += (q_range * (factor / alpha)) @ q_range.conj().T
    if r < n:
        k0 = q_kernel.conj().T @ km @ q_kernel
        eig = hermitian_eigen(k0)
        factor = 1.0 - eig.values / (eig.values + alpha)
        bk = (eig.vectors * (factor / alpha)) @ eig.vectors.conj().T
        inv += q_kernel @ bk @ q_kernel.conj().T
    return inv


def converse_witness(k, f, v, alpha: float, t=None, tol: float = CHECK_TOL,
                     basis=None) -> WitnessReport:
    """Check the witness identity behind the converse direction.

    With ``T = K - F + alpha*V``, expanding ``T*T`` gives
    ``scriptK - scriptF + alpha**2 * V*V`` where
    ``scriptK = K*K + alpha*(V*K + K*V)`` and
    ``scriptF = K*F + F*K + alpha*(V*F + F*V) - F*F``.
    Both script parts are positive semidefinite exactly when the
    decomposition is canonical, which is what ``an_predicted`` reports.
    Both are eigensolved started in ``basis`` (see :func:`hermitian_eigen`).
    A ``T*T`` beyond the solver's range raises MalformedModelError naming T's norm.
    """
    km, fm, vm = _operands(k=k, f=f, v=v)
    alpha = _checked_alpha(alpha)
    tm = km - fm + alpha * vm if t is None else _operands(k=km, t=t)[1]
    gram = _gram(tm, "T")
    kh = km.conj().T
    fh = fm.conj().T
    vh = vm.conj().T
    script_k = kh @ km + alpha * (vh @ km + kh @ vm)
    script_f = kh @ fm + fh @ km + alpha * (vh @ fm + fh @ vm) - fh @ fm
    vv = vh @ vm
    scale = max(_fro(gram), 1.0)
    identity_residual = _fro(gram - (script_k - script_f + alpha * alpha * vv)) / scale
    iso_defect = _fro(vv @ vv - vv) / max(_fro(vv), 1.0)

    script_k = (script_k + script_k.conj().T) / 2.0
    script_f = (script_f + script_f.conj().T) / 2.0
    k_min = float(hermitian_eigen(script_k, basis).values[0])
    f_min = float(hermitian_eigen(script_f, basis).values[0])
    an_predicted = (identity_residual <= 10.0 * tol
                    and iso_defect <= 10.0 * tol
                    and k_min >= -tol * scale
                    and f_min >= -tol * scale)
    return WitnessReport(identity_residual, iso_defect, k_min, f_min,
                         bool(an_predicted))


def verify_structure(t, k, f, v, alpha: float,
                     tol: float = CHECK_TOL) -> VerificationReport:
    """Numerically verify ``T = K - F + alpha*V`` with all side conditions.

    Positive mode (V numerically the identity) checks K, F Hermitian
    positive semidefinite with ``F <= alpha*I``; polar mode checks T normal,
    V a partial isometry and ``F*F <= alpha**2*I`` instead.  Both modes
    check ``KF = 0`` in all adjoint placements, that the range/kernel
    splitting of F reduces T, and the converse witness positivity.

    ``tol`` judges the checks only.  Positive mode
    (``||V - I|| <= CHECK_TOL * sqrt(n)``), the :func:`_splitter` (the rule
    of ``anop blocks``) and its range cutoff are fixed at ``CHECK_TOL``.
    Positive mode bounds K by its Hermitian part and F by the splitter's
    eigenvalues if it is F, else by F's Hermitian part (a sixth solve).
    Only ``T*T`` is eigensolved cold; the rest start in its eigenvectors,
    where a canonical decomposition is diagonal: five solves, four in polar.
    """
    tm, km, fm, vm = _operands(t=t, k=k, f=f, v=v)
    alpha = _checked_alpha(alpha)
    n = tm.shape[0]
    scale = max(_fro(tm), 1.0)
    # refused before any other product of a too-large realization overflows
    gram = _gram(tm, "T")
    k_scale = max(_fro(km), 1.0)
    f_scale = max(_fro(fm), 1.0)

    positive_mode = _fro(vm - np.eye(n)) <= CHECK_TOL * math.sqrt(n)

    recomb = _fro(tm - (km - fm + alpha * vm)) / scale
    kf = max(_fro(km @ fm), _fro(km.conj().T @ fm),
             _fro(km @ fm.conj().T)) / (k_scale * f_scale)
    k_herm = _fro(km - km.conj().T) / k_scale
    normality = _fro(gram - tm @ tm.conj().T) / (scale * scale)
    vv = vm.conj().T @ vm
    iso = _fro(vv @ vv - vv) / max(_fro(vv), 1.0)

    # T*T is the one cold eigensolve; later solves start in its eigenvectors
    # q.  The splitter splits the block form and bounds F (a Hermitian F's
    # F*F = F**2 tops out at lo**2 or hi**2) unless positive mode splits by F*F
    q = hermitian_eigen(gram).vectors
    k_psd = f_psd = 0.0
    if positive_mode:
        k_psd = max(0.0, -float(hermitian_eigen((km + km.conj().T) / 2, q).values[0])) / k_scale
    f_herm, splitter = _splitter(fm)
    f_hermitian = splitter is fm
    split_eig = hermitian_eigen(splitter, q)
    bound_eig = (hermitian_eigen((fm + fm.conj().T) / 2, q)
                 if positive_mode and not f_hermitian else split_eig)
    lo, hi = float(bound_eig.values[0]), float(bound_eig.values[-1])
    if positive_mode:
        f_psd = max(0.0, -lo) / f_scale
        f_bound = max(0.0, hi - alpha) / max(alpha, 1.0)
    else:
        ff_top = max(lo * lo, hi * hi) if f_hermitian else hi
        f_bound = max(0.0, ff_top - alpha * alpha) / max(alpha * alpha, 1.0)
    v_exact = np.eye(n, dtype=np.complex128) if positive_mode else vm
    witness = converse_witness(km, fm, v_exact, alpha, tm, tol, basis=q)
    off = _block_form(tm, split_eig).off_diagonal_norm / scale

    checks = [
        ("recombination", recomb <= tol),
        ("kf_orthogonality", kf <= tol),
        ("reducing_subspaces", off <= tol),
        ("witness_identity", witness.identity_residual <= 10.0 * tol),
        ("witness_positivity", witness.an_predicted),
    ]
    if positive_mode:
        checks += [
            ("k_hermitian", k_herm <= tol),
            ("f_hermitian", f_herm <= tol),
            ("k_positive", k_psd <= tol),
            ("f_positive", f_psd <= tol),
        ]
    else:
        checks += [
            ("normality", normality <= tol),
            ("partial_isometry", iso <= tol),
        ]
    checks.append(("f_below_alpha", f_bound <= tol))
    failures = tuple(name for name, good in checks if not good)
    return VerificationReport(
        ok=not failures,
        mode="positive" if positive_mode else "polar",
        recombination_residual=recomb,
        kf_residual=kf,
        k_hermitian_defect=k_herm,
        f_hermitian_defect=f_herm,
        k_psd_defect=k_psd,
        f_psd_defect=f_psd,
        f_bound_defect=f_bound,
        normality_defect=normality,
        partial_isometry_defect=iso,
        off_diagonal_norm=off,
        witness_min_eig=witness.script_k_min_eig,
        failures=failures,
    )
