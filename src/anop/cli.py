"""Command line front end.

Each command reads one JSON document (a file path argument, or "-" for
stdin), runs the corresponding library operation, and prints exactly one
JSON report line::

    {"schema_version":"1","command":...,"result":...,"diagnostics":[]}

Reports from one command can be piped into the next; the loader unwraps the
envelope automatically.  Exit codes: 0 success, 1 unreadable or structurally
invalid input, 2 domain failure (diagnostics carry the code), 64 usage.
The ANOP_TOL environment variable overrides the default tolerance of these
commands (library calls are unaffected); a --tol flag beats the environment.
A tolerance must be a finite number in (0, 1): a bad --tol is a usage error
(64), a bad ANOP_TOL a PARSE failure (1).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import serialize as sz
from .decompose import (
    PositiveTriple,
    decompose_positive,
    fredholm_report,
    gram_spectrum,
    imaginary_shift,
    invert_triple,
    recompose,
    square_triple,
    sqrt_triple,
    structure_normal,
)
from .errors import AnopError, ParseError
from .matrix import (
    CHECK_TOL,
    POLAR_TOL,
    _fro,
    block_form,
    inverse_via_blocks,
    polar_decompose,
    realize_matrix,
    verify_structure,
)
from .model import MERGE_TOL, POSITIVE, classify, moduli_report
from .oracle import (
    FAMILIES,
    TruncationProfile,
    attainment_oracle,
    generate_model,
    generate_violator,
    mixed_model,
    VIOLATION_CODES,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(convert, ok, what: str):
    """Argument type that converts with ``convert`` and accepts only values
    passing ``ok``; the message names the accepted range."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value
    return parse


#: the one tolerance check, for --tol and ANOP_TOL alike: the range that
#: :class:`~anop.oracle.TruncationProfile` enforces (NaN and inf fail it)
_tolerance = _checked(float, lambda t: 0.0 < t < 1.0,
                      "tolerance must be a number in (0, 1)")
_depth = _checked(int, lambda d: d >= 2, "depth must be an integer of at least 2")
_count = _checked(int, lambda c: c >= 0, "count must be a non-negative integer")


def _build_parser() -> _Parser:
    parser = _Parser(prog="anop",
                     description="absolutely norm-attaining spectrum toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    def add(name, help_, *, takes_input=True):
        sp = sub.add_parser(name, help=help_, description=help_)
        if takes_input:
            sp.add_argument("input", nargs="?", default="-",
                            help="JSON document path, or - for stdin")
        return sp

    add("classify", "decide AN membership of a spectrum model")
    add("decompose", "canonical positive triple of an AN positive model")
    add("recompose", "rebuild the spectrum model of a positive triple")
    add("square", "triple of the squared operator")
    add("sqrt", "triple of the positive square root")
    add("invert", "arithmetic-mean form of the inverse triple")
    add("structure", "phase-carrying decomposition of a self-adjoint or normal model")
    add("gram", "positive model of T*T")
    sp = add("shift", "normal model of T + i*lambda*I")
    sp.add_argument("--shift", type=float, required=True, metavar="LAMBDA",
                    help="imaginary shift coefficient")
    add("fredholm", "Fredholm-type properties of a triple (or AN positive model)")

    for name, help_ in (
            ("realize", "materialize a decomposition as a finite matrix"),
            ("verify", "realize and check the structural identities"),
            ("blocks", "compress the realized operator onto range/kernel of F"),
            ("invert-matrix", "blockwise inverse of a realized positive triple")):
        sp = add(name, help_)
        sp.add_argument("--dim", type=int, required=True, help="matrix dimension")
        sp.add_argument("--seed", type=int, default=0,
                        help="conjugating unitary seed (0 keeps the diagonal)")
        sp.add_argument("--tol", type=_tolerance, default=None,
                        help="check tolerance")
    sub.choices["realize"].add_argument(
        "--verify", action="store_true",
        help="attach a structural verification report")
    sub.choices["blocks"].add_argument(
        "--splitter", choices=("f", "gram"), default="f",
        help="split by F itself or by F*F")

    sp = add("polar", "polar decomposition of a matrix document")
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help="rank cutoff tolerance")

    sp = add("oracle", "independent attainment probe of a spectrum model")
    sp.add_argument("--depth", type=_depth, default=12,
                    help="cluster materialization depth for probing")
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help="comparison tolerance")

    sp = add("fuzz", "cross-check classifier and oracle on seeded models",
             takes_input=False)
    sp.add_argument("--count", type=_count, default=100, help="models to generate")
    sp.add_argument("--family", default="all",
                    choices=("all", "violators") + FAMILIES,
                    help="generator family")
    sp.add_argument("--seed", type=int, default=0, help="base seed")
    sp.add_argument("--depth", type=_depth, default=12, help="oracle depth")
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help="comparison tolerance")
    return parser


def _tol(args, default: float) -> float:
    flag = getattr(args, "tol", None)
    if flag is not None:
        return flag
    env = os.environ.get("ANOP_TOL")
    if env:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"ANOP_TOL: {exc}") from None
    return default


def _load(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = sz.load(text)
    if isinstance(data, dict) and "schema_version" in data and "result" in data:
        data = data["result"]
    if data is None:
        raise ParseError("input document carries no result payload")
    return data


def _model_in(args):
    return sz.parse_model(_load(args))


def _triple_in(args) -> PositiveTriple:
    return sz.parse_triple(_load(args))


def _positive_triple_in(args) -> PositiveTriple:
    """Triple; a bare model is decomposed as positive (WRONG_KIND otherwise)."""
    data = _load(args)
    if isinstance(data, dict) and "kind" in data:
        return decompose_positive(sz.parse_model(data))
    return sz.parse_triple(data)


def _decomposition_in(args):
    """Triple or structure; a bare model is decomposed by kind first."""
    data = _load(args)
    if isinstance(data, dict) and "kind" in data:
        model = sz.parse_model(data)
        if model.kind == POSITIVE:
            return decompose_positive(model)
        return structure_normal(model)
    if isinstance(data, dict) and "blocks" in data:
        return sz.parse_structure(data)
    if isinstance(data, dict) and "alpha" in data:
        return sz.parse_triple(data)
    raise ParseError("input must be a model, triple, or structure document")


# ---------------------------------------------------------------------------
# command bodies


def _cmd_classify(args):
    model = _model_in(args)
    return sz.verdict_payload(classify(model), moduli_report(model))


def _cmd_decompose(args):
    return sz.triple_payload(decompose_positive(_model_in(args)))


def _cmd_recompose(args):
    return sz.model_payload(recompose(_triple_in(args)))


def _cmd_square(args):
    return sz.triple_payload(square_triple(_triple_in(args)))


def _cmd_sqrt(args):
    return sz.triple_payload(sqrt_triple(_triple_in(args)))


def _cmd_invert(args):
    return sz.amform_payload(invert_triple(_triple_in(args)))


def _cmd_structure(args):
    return sz.structure_payload(structure_normal(_model_in(args)))


def _cmd_gram(args):
    return sz.model_payload(gram_spectrum(_model_in(args)))


def _cmd_shift(args):
    return sz.model_payload(imaginary_shift(_model_in(args), args.shift))


def _cmd_fredholm(args):
    return sz.fredholm_payload(fredholm_report(_positive_triple_in(args)))


def _cmd_realize(args):
    ro = realize_matrix(_decomposition_in(args), args.dim, args.seed)
    result = {
        "dim": args.dim,
        "seed": args.seed,
        "alpha": sz._scrub(ro.alpha),
        "labels": list(ro.labels),
        "diagonal": [sz._value_out(d, None) for d in ro.diagonal],
        "matrix": sz.matrix_payload(ro.matrix),
    }
    if args.verify:
        report = verify_structure(ro.matrix, ro.compact, ro.finite,
                                  ro.isometry, ro.alpha, _tol(args, CHECK_TOL))
        result["verification"] = sz.verification_payload(report)
    return result


def _cmd_verify(args):
    ro = realize_matrix(_decomposition_in(args), args.dim, args.seed)
    report = verify_structure(ro.matrix, ro.compact, ro.finite,
                              ro.isometry, ro.alpha, _tol(args, CHECK_TOL))
    out = sz.verification_payload(report)
    out["dim"] = args.dim
    out["seed"] = args.seed
    return out


def _cmd_blocks(args):
    ro = realize_matrix(_decomposition_in(args), args.dim, args.seed)
    splitter = ro.finite
    if args.splitter == "gram":
        splitter = ro.finite.conj().T @ ro.finite
    bf = block_form(ro.matrix, splitter, _tol(args, CHECK_TOL))
    return {
        "splitter": args.splitter,
        "range_dim": bf.range_dim,
        "kernel_dim": bf.kernel_dim,
        "off_diagonal_norm": sz._scrub(bf.off_diagonal_norm),
        "on_range": sz.matrix_payload(bf.on_range),
        "on_kernel": sz.matrix_payload(bf.on_kernel),
    }


def _cmd_invert_matrix(args):
    ro = realize_matrix(_positive_triple_in(args), args.dim, args.seed)
    inv = inverse_via_blocks(ro.compact, ro.finite, ro.alpha, _tol(args, CHECK_TOL))
    residual = _fro(ro.matrix @ inv - np.eye(args.dim)) / math.sqrt(args.dim)
    return {
        "dim": args.dim,
        "seed": args.seed,
        "residual": sz._scrub(residual),
        "inverse": sz.matrix_payload(inv),
    }


def _cmd_polar(args):
    data = _load(args)
    raw = data.get("matrix") if isinstance(data, dict) else data
    m = sz.parse_matrix(raw)
    pair = polar_decompose(m, _tol(args, POLAR_TOL))
    residual = _fro(m - pair.isometry @ pair.modulus) / max(_fro(m), 1.0)
    return {
        "residual": sz._scrub(residual),
        "isometry": sz.matrix_payload(pair.isometry),
        "modulus": sz.matrix_payload(pair.modulus),
    }


def _cmd_oracle(args):
    profile = TruncationProfile(depth=args.depth, tol=_tol(args, MERGE_TOL))
    return sz.oracle_payload(attainment_oracle(_model_in(args), profile))


def _cmd_fuzz(args):
    profile = TruncationProfile(depth=args.depth, tol=_tol(args, MERGE_TOL))
    disagreements = []
    for i in range(args.count):
        seed = args.seed + i
        if args.family == "all":
            tag, model = mixed_model(seed)
        elif args.family == "violators":
            code = VIOLATION_CODES[seed % len(VIOLATION_CODES)]
            tag, model = f"violator:{code}", generate_violator(seed, code)
        else:
            tag, model = args.family, generate_model(seed, args.family)
        verdict = classify(model)
        probed = attainment_oracle(model, profile)
        if verdict.is_an != probed.is_an:
            disagreements.append({
                "seed": seed,
                "family": tag,
                "classifier": verdict.is_an,
                "oracle": probed.is_an,
            })
    return {
        "count": args.count,
        "family": args.family,
        "agreements": args.count - len(disagreements),
        "disagreements": disagreements,
    }


_DISPATCH = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "recompose": _cmd_recompose,
    "square": _cmd_square,
    "sqrt": _cmd_sqrt,
    "invert": _cmd_invert,
    "structure": _cmd_structure,
    "gram": _cmd_gram,
    "shift": _cmd_shift,
    "fredholm": _cmd_fredholm,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "blocks": _cmd_blocks,
    "invert-matrix": _cmd_invert_matrix,
    "polar": _cmd_polar,
    "oracle": _cmd_oracle,
    "fuzz": _cmd_fuzz,
}


def execute(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write(f"anop: {exc}\n")
        return 64
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        err.write("anop: a command is required (see anop --help)\n")
        return 64
    try:
        result = _DISPATCH[args.command](args)
    except ParseError as exc:
        out.write(sz.emit(sz.report(
            args.command, None, [{"code": "PARSE", "message": exc.message}])))
        return 1
    except OSError as exc:
        out.write(sz.emit(sz.report(
            args.command, None, [{"code": "IO", "message": str(exc)}])))
        return 1
    except AnopError as exc:
        out.write(sz.emit(sz.report(
            args.command, None, [{"code": exc.code, "message": exc.message}])))
        return 2
    out.write(sz.emit(sz.report(args.command, result)))
    return 0


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
