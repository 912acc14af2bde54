"""Spectral toolkit for absolutely norm-attaining operators.

Decide AN membership of finitely presented operator spectra, compute the
canonical ``K - F + alpha*I`` (and phase-carrying ``K - F + alpha*V``)
decompositions with their square, square-root and inverse transforms, and
verify everything numerically on finite matrix realizations.
"""

import types as _types

from .errors import (
    AlphaZeroError,
    AnopError,
    DimTooLargeError,
    DimTooSmallError,
    MalformedModelError,
    NegativeValueError,
    NoConvergenceError,
    NotANError,
    NotHermitianError,
    NotInjectiveError,
    ParseError,
    ShapeMismatchError,
    WrongKindError,
)
from .sequences import DecaySequence, MATERIALIZE_DEPTH, MERGE_TOL, merge_sequences
from .model import (
    ABOVE,
    BELOW,
    ANVerdict,
    Cluster,
    EigenvalueEntry,
    INF,
    KINDS,
    ModuliReport,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    SpectrumModel,
    VIOLATION_ORDER,
    classify,
    is_finite_dimensional,
    materialize,
    moduli_report,
    modulus_spectrum,
    normalize_model,
    total_multiplicity,
)
from .decompose import (
    AMForm,
    Block,
    FredholmReport,
    PositiveTriple,
    StructuredDecomposition,
    adjoint_spectrum,
    decompose_positive,
    fredholm_report,
    gram_spectrum,
    imaginary_shift,
    invert_triple,
    recompose,
    square_triple,
    sqrt_triple,
    structure_normal,
    structure_selfadjoint,
)
from .matrix import (
    BlockForm,
    EigenDecomposition,
    MAX_DIM,
    PolarPair,
    RealizedOperator,
    VerificationReport,
    WitnessReport,
    block_form,
    converse_witness,
    hermitian_eigen,
    inverse_via_blocks,
    polar_decompose,
    realize_matrix,
    seeded_unitary,
    verify_structure,
)
from .oracle import (
    FAMILIES,
    OracleFailure,
    OracleReport,
    PerturbationReport,
    TruncationProfile,
    VIOLATION_CODES,
    attainment_oracle,
    generate_model,
    generate_violator,
    mixed_model,
    rank_perturbation_check,
)

__version__ = "0.1.0"

# public names only: the submodules bound by the imports above stay out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
