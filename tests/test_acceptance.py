"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single summary line so
a verbose run reads as a checklist.  Tolerances are stated inline; every
random input is seeded, so reruns are byte-for-byte repeatable.
"""

import io
import json
import sys
import time

import numpy as np
import pytest

from anop.cli import execute
from anop.decompose import (
    decompose_positive,
    decomposition,
    gram_spectrum,
    invert_triple,
    recompose,
    sqrt_triple,
    square_triple,
    structure_selfadjoint,
)
from anop.errors import DimTooSmallError
from anop.matrix import (
    converse_witness,
    inverse_via_blocks,
    polar_decompose,
    realize_matrix,
    seeded_unitary,
    verify_structure,
)
from anop.model import classify
from anop.oracle import (
    FAMILIES,
    TruncationProfile,
    attainment_oracle,
    generate_model,
    mixed_model,
    rank_perturbation_check,
)
import anop.serialize as sz

from conftest import GOLDEN, SPECS, same_model, same_triple


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _realize(obj, dim: int, seed: int):
    try:
        return realize_matrix(obj, dim, seed)
    except DimTooSmallError:
        return realize_matrix(obj, 64, seed)


def test_01_classifier_oracle_agreement():
    profile = TruncationProfile(depth=12)
    start = time.perf_counter()
    agree = 0
    for seed in range(1000):
        tag, model = mixed_model(seed)
        if classify(model).is_an == attainment_oracle(model, profile).is_an:
            agree += 1
    elapsed = time.perf_counter() - start
    _report(1, agree == 1000 and elapsed < 5.0,
            f"{agree}/1000 agreements in {elapsed:.2f}s (budget 5s)")


def test_02_triple_round_trip():
    bad = 0
    for seed in range(500):
        m = generate_model(seed, "positive")
        t = decompose_positive(m)
        if not same_triple(decompose_positive(recompose(t)), t, tol=1e-12):
            bad += 1
        elif not same_model(recompose(t), m, tol=1e-12):
            bad += 1
    _report(2, bad == 0, f"500 models, both directions at 1e-12, {bad} failures")


def test_03_uniqueness_case_coverage():
    buckets = {"alpha_zero": 0, "no_f": 0, "no_k": 0, "both": 0}
    bad = 0
    for seed in range(400):
        t = decompose_positive(generate_model(seed, "positive"))
        has_k = bool(t.k_entries.points) or bool(t.k_entries.clusters)
        if t.alpha <= 1e-9:
            key = "alpha_zero"
        elif not t.f_entries:
            key = "no_f"
        elif not has_k:
            key = "no_k"
        else:
            key = "both"
        buckets[key] += 1
        if not same_triple(decompose_positive(recompose(t)), t, tol=1e-12):
            bad += 1
    counts = ", ".join(f"{k}={v}" for k, v in buckets.items())
    _report(3, bad == 0 and all(v >= 25 for v in buckets.values()),
            f"{counts} (each needs 25+), {bad} re-canonicalization failures")


def test_04_square_sqrt_closure():
    bad = 0
    for seed in range(500):
        t = decompose_positive(generate_model(seed, "positive"))
        if not same_triple(sqrt_triple(square_triple(t)), t, tol=1e-12):
            bad += 1
            continue
        squared = decompose_positive(gram_spectrum(recompose(t)))
        if not same_triple(square_triple(t), squared, tol=1e-12):
            bad += 1
    _report(4, bad == 0,
            f"500 triples: sqrt(square(t)) = t and spectral cross-check, {bad} failures")


def test_05_inverse_reciprocity():
    checked = 0
    bad = 0
    seed = 0
    while checked < 200 and seed < 2000:
        t = decompose_positive(generate_model(seed, "positive"))
        seed += 1
        if t.alpha <= 1e-9 or not t.is_injective():
            continue
        checked += 1
        form = invert_triple(t)
        model = recompose(t)
        original = [p.value.real for p in model.points]
        for cl in model.clusters:
            original.extend(m.real for m in cl.members(10))
        inverse = [v for v, _ in form.eigenvalues(10)]
        ok = True
        for w in inverse:
            if min(abs(1.0 / w - lam) / max(1.0, abs(lam)) for lam in original) > 1e-12:
                ok = False
        for lam in original:
            if min(abs(1.0 / lam - w) / max(1.0, abs(w)) for w in inverse) > 1e-12:
                ok = False
        bound = [p.value.real for p in form.k1_entries]
        for cl in form.k1_clusters:
            bound.extend(cl.deltas.terms(48))
        if any(v > form.beta + 1e-12 for v in bound):
            ok = False
        if not ok:
            bad += 1
    _report(5, checked == 200 and bad == 0,
            f"{checked} injective triples, reciprocals and k1<=beta at 1e-12, {bad} failures")


def test_06_matrix_verification():
    bad = 0
    for i in range(100):
        family = FAMILIES[i % len(FAMILIES)]
        obj = decomposition(generate_model(i, family))
        ro = _realize(obj, 8 + (i * 7) % 57, seed=i + 1)
        rep = verify_structure(ro.matrix, ro.compact, ro.finite,
                               ro.isometry, ro.alpha, tol=1e-10)
        if not rep.ok:
            bad += 1

    # forced violation: finite part exceeding the shift
    n = 4
    k = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    f = np.diag([0.0, 0.0, 3.0, 0.0]).astype(complex)
    v = np.eye(n, dtype=complex)
    t = k - f + 2.0 * v
    oversized = verify_structure(t, k, f, v, 2.0, tol=1e-10)
    flag_oversized = (not oversized.ok) and "f_below_alpha" in oversized.failures

    # forced violation: K and F sharing support
    k = np.diag([2.0, 0.0]).astype(complex)
    f = np.diag([1.0, 0.0]).astype(complex)
    v = np.eye(2, dtype=complex)
    t = k - f + 1.0 * v
    overlap = verify_structure(t, k, f, v, 1.0, tol=1e-10)
    flag_overlap = (not overlap.ok) and "kf_orthogonality" in overlap.failures

    _report(6, bad == 0 and flag_oversized and flag_overlap,
            f"100 realizations pass at 1e-10 ({bad} failures); "
            f"oversized-F flagged={flag_oversized}, overlap flagged={flag_overlap}")


def test_07_block_inverse():
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 50 and seed < 1000:
        t = decompose_positive(generate_model(seed, "positive"))
        seed += 1
        if t.alpha <= 1e-9 or not t.is_injective():
            continue
        ro = _realize(t, 8 + (checked * 5) % 57, seed=checked + 1)
        inv = inverse_via_blocks(ro.compact, ro.finite, ro.alpha)
        dim = ro.matrix.shape[0]
        resid = float(np.linalg.norm(ro.matrix @ inv - np.eye(dim)))
        worst = max(worst, resid)
        checked += 1
    _report(7, checked == 50 and worst <= 1e-8,
            f"{checked} block inverses, worst Frobenius residual {worst:.2e} (limit 1e-8)")


def test_08_polar_and_norm_attainment():
    worst_polar = 0.0
    for i in range(100):
        rng = np.random.default_rng(900 + i)
        n = 2 + i % 15
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pair = polar_decompose(m)
        nt = float(np.linalg.norm(m))
        worst_polar = max(worst_polar,
                          float(np.linalg.norm(pair.isometry @ pair.modulus - m)) / nt)

    worst_attain = 0.0
    worst_product = 0.0
    invertible = 0
    for i in range(100):
        sd = structure_selfadjoint(generate_model(i, "selfadjoint"))
        ro = _realize(sd, 8 + (i * 3) % 29, seed=i + 1)
        t = ro.matrix
        op = float(np.linalg.norm(t, 2))
        ev = np.linalg.eigvalsh(t)
        worst_attain = max(worst_attain,
                           min(abs(op - ev[-1]), abs(op + ev[0])))
        low = float(np.min(np.abs(ev)))
        if low > 1e-9:
            invertible += 1
            prod = low * float(np.linalg.norm(np.linalg.inv(t), 2))
            worst_product = max(worst_product, abs(prod - 1.0))
    _report(8, worst_polar <= 1e-10 and worst_attain <= 1e-10
            and invertible >= 50 and worst_product <= 1e-8,
            f"polar {worst_polar:.2e} (1e-10), attainment {worst_attain:.2e} (1e-10), "
            f"m(T)*norm(inv) off by {worst_product:.2e} on {invertible} invertible (1e-8)")


def test_09_rank_perturbation_bound():
    bad = 0
    for i in range(200):
        rng = np.random.default_rng(1700 + i)
        dim = 4 + i % 45
        rank = 1 + i % 5
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        base = (a + a.conj().T) / 2.0
        b = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        u, _ = np.linalg.qr(b)
        p = u @ np.diag(rng.normal(size=rank)) @ u.conj().T
        if not rank_perturbation_check(base, base + p, rank).within_bound:
            bad += 1
    _report(9, bad == 0, f"200 trials (dims<=48, rank<=5), {bad} bound violations")


def test_10_converse_witness():
    bad = 0
    worst_identity = 0.0
    for i in range(100):
        family = FAMILIES[i % len(FAMILIES)]
        obj = decomposition(generate_model(i, family))
        ro = _realize(obj, 8 + (i * 5) % 57, seed=i + 1)
        rep = converse_witness(ro.compact, ro.finite, ro.isometry, ro.alpha)
        worst_identity = max(worst_identity, rep.identity_residual)
        if not (rep.an_predicted and rep.identity_residual <= 1e-10
                and rep.script_k_min_eig >= -1e-8):
            bad += 1

    accepted_violators = 0
    for j in range(20):
        dim = 4 + j % 8
        u = seeded_unitary(dim, seed=j + 1)
        v = u @ np.eye(dim, dtype=complex) @ u.conj().T
        if j % 2 == 0:
            k = np.zeros((dim, dim), dtype=complex)
            f = u @ np.diag([5.0] + [0.0] * (dim - 1)).astype(complex) @ u.conj().T
            alpha = 2.0
        else:
            k = u @ np.diag([-1.0] + [0.0] * (dim - 1)).astype(complex) @ u.conj().T
            f = np.zeros((dim, dim), dtype=complex)
            alpha = 1.0
        t = k - f + alpha * v
        if converse_witness(k, f, v, alpha, t=t).an_predicted:
            accepted_violators += 1
    _report(10, bad == 0 and accepted_violators == 0,
            f"100 witnesses pass (worst identity residual {worst_identity:.2e}); "
            f"{accepted_violators}/20 violators wrongly accepted")


def test_11_cli_stability(monkeypatch):
    unstable = []
    for path in sorted(SPECS.glob("*.json")):
        first, second = io.StringIO(), io.StringIO()
        c1 = execute(["classify", str(path)], out=first, err=io.StringIO())
        c2 = execute(["classify", str(path)], out=second, err=io.StringIO())
        if c1 != 0 or c2 != 0 or first.getvalue() != second.getvalue():
            unstable.append(path.name)

    drifted = []
    for argv, golden in (
            (["classify", "violator_from_below.json"], "classify_from_below.json"),
            (["classify", "positive_tail.json"], "classify_positive_tail.json"),
            (["classify", "selfadjoint_signed.json"], "classify_selfadjoint.json"),
            (["decompose", "uniqueness_full.json"], "decompose_full.json"),
            (["structure", "selfadjoint_signed.json"], "structure_selfadjoint.json")):
        buf = io.StringIO()
        execute([argv[0], str(SPECS / argv[1])], out=buf, err=io.StringIO())
        if buf.getvalue() != (GOLDEN / golden).read_text():
            drifted.append(golden)

    src = SPECS / "uniqueness_full.json"
    piped = io.StringIO()
    execute(["decompose", str(src)], out=piped, err=io.StringIO())
    monkeypatch.setattr(sys, "stdin", io.StringIO(piped.getvalue()))
    final = io.StringIO()
    code = execute(["recompose"], out=final, err=io.StringIO())
    got = sz.parse_model(json.loads(final.getvalue())["result"])
    want = sz.parse_model(json.loads(src.read_text()))
    round_trip = code == 0 and same_model(got, want, tol=1e-12)

    _report(11, not unstable and not drifted and round_trip,
            f"{len(list(SPECS.glob('*.json')))} spec files stable "
            f"(unstable={unstable}, drifted={drifted}), pipe round trip={round_trip}")
