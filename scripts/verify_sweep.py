#!/usr/bin/env python3
"""Realize seeded decompositions and check the structural identities.

For each trial the model is decomposed by kind, realized as a dense matrix
under a seeded change of basis, and pushed through verify_structure plus
the converse witness.  Prints worst-case residuals per family and exits
nonzero if any trial fails either check.
"""

import sys

from anop.decompose import decomposition
from anop.errors import DimTooSmallError
from anop.matrix import CHECK_TOL, converse_witness, realize_matrix, verify_structure
from anop.oracle import FAMILIES, generate_model

#: trials per family
COUNT = 60
#: largest realization dimension
MAX_DIM = 64


def main():
    failures = []
    print(f"{'family':<12} {'trials':>6} {'worst recombination':>20} "
          f"{'worst witness':>15}")
    for family in FAMILIES:
        worst_recomb = 0.0
        worst_witness = 0.0
        for seed in range(COUNT):
            obj = decomposition(generate_model(seed, family))
            dim = 8 + (seed * 7) % max(1, MAX_DIM - 7)
            try:
                ro = realize_matrix(obj, dim, seed=seed + 1)
            except DimTooSmallError:
                ro = realize_matrix(obj, MAX_DIM, seed=seed + 1)
            rep = verify_structure(ro.matrix, ro.compact, ro.finite,
                                   ro.isometry, ro.alpha, tol=CHECK_TOL)
            wit = converse_witness(ro.compact, ro.finite, ro.isometry,
                                   ro.alpha, tol=CHECK_TOL)
            worst_recomb = max(worst_recomb, rep.recombination_residual)
            worst_witness = max(worst_witness, wit.identity_residual)
            if not rep.ok:
                failures.append((family, seed, "verify", rep.failures))
            if not wit.an_predicted:
                failures.append((family, seed, "witness", ()))
        print(f"{family:<12} {COUNT:>6} {worst_recomb:>20.3e} "
              f"{worst_witness:>15.3e}")

    if failures:
        print(f"\n{len(failures)} failing trials:")
        for family, seed, stage, names in failures:
            extra = f" checks={','.join(names)}" if names else ""
            print(f"  family={family} seed={seed} stage={stage}{extra}")
        return 1
    print("\nall trials pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
