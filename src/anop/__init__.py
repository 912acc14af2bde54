"""Spectral toolkit for absolutely norm-attaining operators.

Decide AN membership of finitely presented operator spectra, compute the
canonical ``K - F + alpha*I`` (and phase-carrying ``K - F + alpha*V``)
decompositions with their square, square-root and inverse transforms, and
verify everything numerically on finite matrix realizations.

``import anop`` loads no submodule: each public name resolves on first use
(``anop.classify``, ``from anop import classify``), importing only the
submodule that defines it, so numpy is loaded only with ``anop.matrix``
or a call into numpy-backed code.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: every public name, listed under the submodule that defines it
_NAMES = {
    "errors": (
        "AlphaZeroError", "AnopError", "DimTooLargeError", "DimTooSmallError",
        "MalformedModelError", "NegativeValueError", "NoConvergenceError",
        "NotANError", "NotHermitianError", "NotInjectiveError", "ParseError",
        "ShapeMismatchError", "WrongKindError",
    ),
    "sequences": ("DecaySequence", "MATERIALIZE_DEPTH", "MERGE_TOL", "merge_sequences"),
    "model": (
        "ABOVE", "BELOW", "ANVerdict", "Cluster", "EigenvalueEntry", "INF", "KINDS",
        "ModuliReport", "NORMAL", "POSITIVE", "SELF_ADJOINT", "SpectrumModel",
        "VIOLATION_ORDER", "classify", "is_finite_dimensional", "moduli_report",
        "modulus_spectrum", "normalize_model",
    ),
    "decompose": (
        "AMForm", "Block", "FredholmReport", "PositiveTriple", "StructuredDecomposition",
        "adjoint_spectrum", "decompose_positive", "fredholm_report", "gram_spectrum",
        "imaginary_shift", "invert_triple", "recompose", "square_triple", "sqrt_triple",
        "structure_normal", "structure_selfadjoint",
    ),
    "matrix": (
        "BlockForm", "EigenDecomposition", "MAX_DIM", "PolarPair", "RealizedOperator",
        "VerificationReport", "WitnessReport", "block_form", "converse_witness",
        "hermitian_eigen", "inverse_via_blocks", "polar_decompose", "realize_matrix",
        "seeded_unitary", "verify_structure",
    ),
    "oracle": (
        "FAMILIES", "OracleFailure", "OracleReport", "TruncationProfile",
        "attainment_oracle", "generate_model", "generate_violator", "mixed_model",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # only public names resolve here; a submodule is an attribute once imported
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
