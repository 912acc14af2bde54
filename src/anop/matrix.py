"""Finite matrix realizations and numerical verification.

Everything here works on concrete numpy matrices: realizing a spectral
decomposition as a (optionally conjugated) matrix, eigendecomposing it with
an in-house Jacobi solver, and checking the structural identities
``T = K - F + alpha*V``, ``KF = 0``, positivity bounds and the converse
witness ``T*T = scriptK - scriptF + alpha**2 * V*V``.

The Jacobi kernel is the only eigensolver this package trusts for its own
results, for the high relative accuracy of Jacobi methods (Demmel and
Veselic, 1992); numpy's LAPACK routines appear solely in test oracles.  The
kernel is plain numpy: it visits the off-diagonal pairs in the Brent-Luk
(1985) round-robin order, whose rounds of disjoint rotations vectorize.

Verification shares one basis.  ``verify_structure`` eigensolves ``T*T``
once, cold; every later solve (K, F or ``F*F``, the splitter, the two
witness parts) runs Jacobi on ``Q* X Q`` in the eigenvectors ``Q`` of that
solve.  The components of a canonical realization are diagonal in that
basis, so those solves mostly take no sweep.  The stopping test is the
same as for a cold solve, so a basis that fits ``X`` poorly costs sweeps,
not accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decompose import PositiveTriple, StructuredDecomposition
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
from .model import INF, MERGE_TOL

MAX_DIM = 1024
EIGEN_TOL = 1e-13
MAX_SWEEPS = 100
CHECK_TOL = 1e-10
POLAR_TOL = 1e-12

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _parallel_order(n):
    """Brent-Luk round-robin ordering: with ``n`` rounded up to even ``m``,
    ``m - 1`` rounds of disjoint pairs meet every pair once.  The index
    ``n`` of odd ``n`` is a phantom whose pairs are dropped."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(np.arange(1, m), r)))
        p, q = order[:m // 2], order[:m // 2 - 1:-1]
        keep = (p < n) & (q < n)
        rounds.append((p[keep], q[keep]))
    return rounds


def _jacobi_sweeps(a, v, max_sweeps):
    """Parallel-order complex Jacobi on Hermitian ``a``; ``v`` accumulates
    the eigenvector basis.  Returns the sweep count, or -1 on
    non-convergence.

    A round's rotations touch disjoint pairs, so they commute and are
    applied at once: one column gather/scatter on ``a`` and ``v``, then one
    row gather/scatter on ``a``.  The off-diagonal mass is summed directly:
    deriving it from ``norm(a)**2 - norm(diag)**2`` cancels catastrophically
    near convergence and stalls the test on rounding noise.
    """
    n = a.shape[0]
    norm_f = _fro(a)
    if norm_f == 0.0:
        return 0
    thresh = EIGEN_TOL * norm_f
    pivot_tol = thresh / (2.0 * n)
    off_diagonal = ~np.eye(n, dtype=bool)
    rounds = _parallel_order(n)
    for sweep in range(max_sweeps):
        if _fro(a[off_diagonal]) <= thresh:
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


@dataclass(eq=False)
class EigenDecomposition:
    """Eigenvalues ascending (by real part, then imaginary) with matching
    eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int = 0


@dataclass(eq=False)
class PolarPair:
    """``T = isometry @ modulus`` with the isometry vanishing on the kernel."""

    isometry: np.ndarray
    modulus: np.ndarray


@dataclass(eq=False)
class BlockForm:
    """Compression of an operator onto the range/kernel splitting of a
    Hermitian splitter matrix."""

    on_range: np.ndarray
    on_kernel: np.ndarray
    off_diagonal_norm: float
    range_dim: int
    kernel_dim: int


@dataclass(eq=False)
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


@dataclass(frozen=True)
class WitnessReport:
    """Converse-direction witness data for ``T = K - F + alpha*V``."""

    identity_residual: float
    partial_isometry_defect: float
    script_k_min_eig: float
    script_f_min_eig: float
    an_predicted: bool


@dataclass(frozen=True)
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
    failures: tuple[str, ...] = field(default=())


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
    return math.sqrt(float(np.sum(np.abs(a) ** 2)))


def _hermitian_input(a) -> np.ndarray:
    """The eigensolver's input checks: ``a`` square, at most MAX_DIM and
    Hermitian to working precision; returns its Hermitian part."""
    m = _as_square(a, "eigensolver input")
    n = m.shape[0]
    if n > MAX_DIM:
        raise DimTooLargeError(f"dimension {n} exceeds the solver cap {MAX_DIM}")
    scale = max(_fro(m), 1.0)
    if _fro(m - m.conj().T) > 1e-10 * scale:
        raise NotHermitianError("eigensolver input is not Hermitian")
    return (m + m.conj().T) / 2.0


def hermitian_eigen(a, max_sweeps: int = MAX_SWEEPS) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by round-robin
    (parallel-order) Jacobi.

    Raises NotHermitianError when the input is not Hermitian to working
    precision, DimTooLargeError beyond MAX_DIM, and NoConvergenceError if
    the off-diagonal mass survives ``max_sweeps`` sweeps.
    """
    work = np.ascontiguousarray(_hermitian_input(a))
    n = work.shape[0]
    basis = np.eye(n, dtype=np.complex128)
    sweeps = _jacobi_sweeps(work, basis, int(max_sweeps))
    if sweeps < 0:
        raise NoConvergenceError(
            f"Jacobi did not converge within {max_sweeps} sweeps at dimension {n}")
    values = np.real(np.diag(work)).copy()
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values[order], basis[:, order], int(sweeps))


def _eigen(a, basis) -> EigenDecomposition:
    """:func:`hermitian_eigen` of ``a``, started in the orthonormal ``basis``
    unless it is None.

    The input checks run on ``a`` itself.  Jacobi then runs on
    ``basis* a basis``, and its eigenvectors come back through ``basis``,
    which is Jacobi with the accumulated basis started at ``basis``.  The
    solve goes through :func:`hermitian_eigen`, so a trace of that function
    sees every solve and its sweeps.
    """
    if basis is None:
        return hermitian_eigen(a)
    eig = hermitian_eigen(basis.conj().T @ _hermitian_input(a) @ basis)
    return EigenDecomposition(eig.values, basis @ eig.vectors, eig.sweeps)


def polar_decompose(a, tol: float = POLAR_TOL) -> PolarPair:
    """Polar factorization ``T = V|T|`` with V a partial isometry that is
    zero on the kernel of T (so V*V is the range projection of ``|T|``)."""
    t = _as_square(a, "polar input")
    gram = t.conj().T @ t
    eig = hermitian_eigen(gram)
    svals = np.sqrt(np.clip(eig.values, 0.0, None))
    modulus = (eig.vectors * svals) @ eig.vectors.conj().T
    top = float(svals[-1]) if svals.size else 0.0
    cutoff = tol * max(top, 1.0)
    keep = svals > cutoff
    iso = np.zeros_like(t)
    if np.any(keep):
        cols = eig.vectors[:, keep]
        images = (t @ cols) / svals[keep]
        iso = images @ cols.conj().T
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


def seeded_unitary(dim: int, seed: int) -> np.ndarray:
    """Deterministic unitary: seed 0 is the identity, any other seed drives
    the splitmix64 stream of :func:`_splitmix_uniforms` through Box-Muller
    into a complex Gaussian matrix, then Householder QR with the
    R-diagonal phases folded into Q.  The uniforms are the same on every
    platform; the Householder loop runs one column at a time in a fixed
    order."""
    if dim < 1:
        raise ShapeMismatchError(f"dimension must be positive, got {dim}")
    if seed == 0:
        return np.eye(dim, dtype=np.complex128)
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


# ---------------------------------------------------------------------------
# realization


def _round_robin(leftover: int, sinks: int) -> list[int]:
    counts = [0] * sinks
    for i in range(leftover):
        counts[i % sinks] += 1
    return counts


def _cluster_members(cl, take: int):
    """First ``take`` cluster members; an explicit sequence shorter than the
    request repeats its last member to stand in for the unexpressed tail."""
    members = list(cl.members(take))
    if members and len(members) < take:
        members += [members[-1]] * (take - len(members))
    return members


def _realize_slots(sd: StructuredDecomposition, dim: int, slack_identity: bool):
    """Diagonal slot values (t, k, f, v, label) in canonical entry order.

    With no infinite part the slack pads the identity at ``alpha``; when
    ``alpha`` is 0 it pads the kernel unless ``slack_identity`` holds (a
    positive triple, whose V is the identity everywhere).
    """
    alpha = sd.alpha
    k_blocks = [b for b in sd.blocks if b.part == "k"]
    f_blocks = [b for b in sd.blocks if b.part == "f"]
    id_blocks = [b for b in sd.blocks if b.part == "identity"]
    for b in k_blocks + f_blocks:
        if b.mult == INF:
            raise MalformedModelError(
                "compact and finite-rank blocks must have finite multiplicity")
    finite_needed = sum(b.mult for b in k_blocks + f_blocks)
    finite_needed += sum(b.mult for b in id_blocks if b.mult != INF)
    kern = sd.kernel_multiplicity
    if kern != INF:
        finite_needed += kern
    if dim < finite_needed:
        raise DimTooSmallError(
            f"dimension {dim} cannot hold {finite_needed} finite directions")
    leftover = dim - finite_needed
    sinks: list[tuple[str, int]] = [("cluster", i)
                                    for i in range(len(sd.cluster_blocks))]
    sinks += [("identity", i) for i, b in enumerate(id_blocks) if b.mult == INF]
    if kern == INF:
        sinks.append(("kernel", 0))
    share = {}
    pad_identity = pad_kernel = 0
    if sinks:
        share = dict(zip(sinks, _round_robin(leftover, len(sinks))))
    elif alpha > MERGE_TOL or slack_identity:
        pad_identity = leftover
    else:
        pad_kernel = leftover

    slots: list[tuple[complex, complex, complex, complex, str]] = []
    for b in k_blocks:
        for _ in range(b.mult):
            slots.append((b.eigenvalue(alpha), b.phase * b.value, 0.0, b.phase, "k"))
    for i, cl in enumerate(sd.cluster_blocks):
        for m in _cluster_members(cl, share.get(("cluster", i), 0)):
            mag = abs(m)
            phase = m / mag if mag > 0 else 0.0
            slots.append((m, phase * (mag - alpha), 0.0, phase, "cluster"))
    for i, b in enumerate(id_blocks):
        take = b.mult if b.mult != INF else share.get(("identity", i), 0)
        for _ in range(int(take)):
            slots.append((b.eigenvalue(alpha), 0.0, 0.0, b.phase, "identity"))
    for _ in range(pad_identity):
        slots.append((alpha, 0.0, 0.0, 1.0, "identity"))
    for b in f_blocks:
        for _ in range(b.mult):
            slots.append((b.eigenvalue(alpha), 0.0, b.phase * b.value, b.phase, "f"))
    kern_count = (kern if kern != INF else share.get(("kernel", 0), 0))
    for _ in range(int(kern_count) + pad_kernel):
        slots.append((0.0, 0.0, 0.0, 0.0, "kernel"))
    return alpha, slots


def realize_matrix(obj, dim: int, seed: int = 0) -> RealizedOperator:
    """Materialize a triple or structured decomposition at finite dimension.

    A triple is realized as its structure (:meth:`PositiveTriple.as_structure`,
    every phase +1).  Diagonal entry order: compact blocks in block order,
    cluster members, identity directions (including padding), finite-rank
    blocks in block order, kernel.  Leftover dimensions are shared
    round-robin among the infinite parts (clusters, then infinite
    identity/kernel blocks).  With no infinite part the slack pads the
    identity at ``alpha``; at ``alpha`` 0 a structure pads its kernel
    (V = 0) while a triple still pads the identity (V = 1).  A nonzero
    ``seed`` conjugates every component by the same deterministic unitary.
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
    alpha, slots = _realize_slots(sd, dim, slack_identity=triple)
    if len(slots) != dim:
        raise DimTooSmallError(
            f"entry layout used {len(slots)} of {dim} dimensions")
    t_diag = np.array([s[0] for s in slots], dtype=np.complex128)
    k_diag = np.array([s[1] for s in slots], dtype=np.complex128)
    f_diag = np.array([s[2] for s in slots], dtype=np.complex128)
    v_diag = np.array([s[3] for s in slots], dtype=np.complex128)
    labels = tuple(s[4] for s in slots)
    u = seeded_unitary(dim, seed)
    uh = u.conj().T

    def conj(d):
        return (u * d) @ uh

    return RealizedOperator(conj(t_diag), conj(k_diag), conj(f_diag),
                            conj(v_diag), alpha, t_diag, u, labels)


# ---------------------------------------------------------------------------
# structural verification


def block_form(a, splitter, tol: float = CHECK_TOL) -> BlockForm:
    """Compress ``a`` onto range/kernel of a Hermitian splitter.

    The basis puts range eigenvectors first.  The off-diagonal norm is the
    larger Frobenius norm of the two coupling blocks; it vanishes exactly
    when the splitting reduces ``a``.
    """
    t = _as_square(a, "block form input")
    s = _as_square(splitter, "splitter")
    if s.shape != t.shape:
        raise ShapeMismatchError(
            f"splitter shape {s.shape} does not match operator shape {t.shape}")
    return _block_form(t, hermitian_eigen(s), tol)


def _range_first(values, tol: float):
    """Splitter eigenvalue indices, range (``|value| > tol * scale``) first
    in ascending order, then kernel; and the range dimension."""
    scale = max(float(np.max(np.abs(values))), 1.0)
    in_range = np.abs(values) > tol * scale
    order = np.concatenate([np.where(in_range)[0], np.where(~in_range)[0]])
    return order, int(np.count_nonzero(in_range))


def _block_form(t, eig: EigenDecomposition, tol: float) -> BlockForm:
    """:func:`block_form` of ``t`` given the splitter's eigendecomposition."""
    order, r = _range_first(eig.values, tol)
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
    ``alpha > 0`` and F strictly below alpha.
    """
    km = _as_square(k, "compact part")
    fm = _as_square(f, "finite-rank part")
    if km.shape != fm.shape:
        raise ShapeMismatchError(
            f"component shapes {km.shape} and {fm.shape} differ")
    if alpha <= tol:
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


def converse_witness(k, f, v, alpha: float, t=None,
                     tol: float = CHECK_TOL) -> WitnessReport:
    """Check the witness identity behind the converse direction.

    With ``T = K - F + alpha*V``, expanding ``T*T`` gives
    ``scriptK - scriptF + alpha**2 * V*V`` where
    ``scriptK = K*K + alpha*(V*K + K*V)`` and
    ``scriptF = K*F + F*K + alpha*(V*F + F*V) - F*F``.
    Both script parts are positive semidefinite exactly when the
    decomposition is canonical, which is what ``an_predicted`` reports.
    """
    km = _as_square(k, "compact part")
    fm = _as_square(f, "finite-rank part")
    vm = _as_square(v, "isometry part")
    if not (km.shape == fm.shape == vm.shape):
        raise ShapeMismatchError("component shapes differ")
    tm = _as_square(t, "operator") if t is not None else km - fm + alpha * vm
    if tm.shape != km.shape:
        raise ShapeMismatchError("operator shape does not match components")
    return _witness(km, fm, vm, alpha, tm, tol, None)


def _witness(km, fm, vm, alpha: float, tm, tol: float, basis) -> WitnessReport:
    """:func:`converse_witness` of checked square matrices, with both script
    parts eigensolved in ``basis`` (see :func:`_eigen`)."""
    kh = km.conj().T
    fh = fm.conj().T
    vh = vm.conj().T
    script_k = kh @ km + alpha * (vh @ km + kh @ vm)
    script_f = kh @ fm + fh @ km + alpha * (vh @ fm + fh @ vm) - fh @ fm
    gram = tm.conj().T @ tm
    vv = vh @ vm
    scale = max(_fro(gram), 1.0)
    identity_residual = _fro(gram - (script_k - script_f + alpha * alpha * vv)) / scale
    iso_defect = _fro(vv @ vv - vv) / max(_fro(vv), 1.0)

    script_k = (script_k + script_k.conj().T) / 2.0
    script_f = (script_f + script_f.conj().T) / 2.0
    k_min = float(_eigen(script_k, basis).values[0])
    f_min = float(_eigen(script_f, basis).values[0])
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

    Only ``T*T`` is eigensolved cold; K, F or ``F*F``, the splitter and
    the witness parts are eigensolved in its eigenvector basis, in which a
    canonical decomposition is already diagonal.
    """
    tm = _as_square(t, "operator")
    km = _as_square(k, "compact part")
    fm = _as_square(f, "finite-rank part")
    vm = _as_square(v, "isometry part")
    if not (tm.shape == km.shape == fm.shape == vm.shape):
        raise ShapeMismatchError("component shapes differ")
    if alpha < 0:
        raise MalformedModelError(f"alpha must be nonnegative, got {alpha}")
    n = tm.shape[0]
    scale = max(_fro(tm), 1.0)
    k_scale = max(_fro(km), 1.0)
    f_scale = max(_fro(fm), 1.0)

    positive_mode = _fro(vm - np.eye(n)) <= tol * math.sqrt(n)
    mode = "positive" if positive_mode else "polar"

    recomb = _fro(tm - (km - fm + alpha * vm)) / scale
    kf = max(_fro(km @ fm), _fro(km.conj().T @ fm),
             _fro(km @ fm.conj().T)) / (k_scale * f_scale)
    k_herm = _fro(km - km.conj().T) / k_scale
    f_herm = _fro(fm - fm.conj().T) / f_scale
    gram = tm.conj().T @ tm
    normality = _fro(gram - tm @ tm.conj().T) / (scale * scale)
    vv = vm.conj().T @ vm
    iso = _fro(vv @ vv - vv) / max(_fro(vv), 1.0)

    # T*T is the one cold eigensolve; every later solve starts in its
    # eigenvectors q.  The splitter is F when F is Hermitian, else F*F; its
    # one eigendecomposition serves the bounds below and the block form
    q = hermitian_eigen(gram).vectors
    k_psd = f_psd = f_bound = 0.0
    split_eig = None
    if positive_mode:
        if k_herm <= tol:
            k_psd = max(0.0, -float(_eigen((km + km.conj().T) / 2, q).values[0])) / k_scale
        if f_herm <= tol:
            split_eig = _eigen(fm, q)
            f_psd = max(0.0, -float(split_eig.values[0])) / f_scale
            f_bound = max(0.0, float(split_eig.values[-1]) - alpha) / max(alpha, 1.0)
        witness_src = _witness(km, fm, np.eye(n, dtype=np.complex128),
                               alpha, tm, tol, q)
    else:
        ff_eig = _eigen(fm.conj().T @ fm, q)
        f_bound = (max(0.0, float(ff_eig.values[-1]) - alpha * alpha)
                   / max(alpha * alpha, 1.0))
        if f_herm > tol:
            split_eig = ff_eig
        witness_src = _witness(km, fm, vm, alpha, tm, tol, q)

    if split_eig is None:
        split_eig = _eigen(fm if f_herm <= tol else fm.conj().T @ fm, q)
    off = _block_form(tm, split_eig, tol).off_diagonal_norm / scale

    checks = [
        ("recombination", recomb <= tol),
        ("kf_orthogonality", kf <= tol),
        ("reducing_subspaces", off <= tol),
        ("witness_identity", witness_src.identity_residual <= 10.0 * tol),
        ("witness_positivity", witness_src.an_predicted),
    ]
    if positive_mode:
        checks += [
            ("k_hermitian", k_herm <= tol),
            ("f_hermitian", f_herm <= tol),
            ("k_positive", k_psd <= tol),
            ("f_positive", f_psd <= tol),
            ("f_below_alpha", f_bound <= tol),
        ]
    else:
        checks += [
            ("normality", normality <= tol),
            ("partial_isometry", iso <= tol),
            ("f_below_alpha", f_bound <= tol),
        ]
    failures = tuple(name for name, good in checks if not good)
    return VerificationReport(
        ok=not failures,
        mode=mode,
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
        witness_min_eig=witness_src.script_k_min_eig,
        failures=failures,
    )
