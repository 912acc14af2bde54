"""Command line front end.

Each command reads one JSON document (a file path argument, or "-" for
stdin), runs the corresponding library operation, and prints exactly one
JSON report line::

    {"schema_version":"1","command":...,"result":...,"diagnostics":[]}

Reports from one command can be piped into the next; the loader unwraps the
envelope automatically.  Exit codes: 0 success, 1 unreadable or structurally
invalid input, 2 domain failure (diagnostics carry the code), 64 usage.
--tol bounds the checks of verify and realize --verify, and only judges:
what is checked is fixed at ``CHECK_TOL``.  ANOP_TOL overrides its default
there (library calls are unaffected); a --tol flag beats the environment.
blocks, invert-matrix and polar judge nothing: blocks and invert-matrix
split F at ``CHECK_TOL``, and polar's rank cutoff is ``POLAR_TOL``.
A tolerance must be a finite number in (0, 1): a bad --tol is a usage error
(64), a bad ANOP_TOL a PARSE failure (1).  Spectral verdicts, oracle and fuzz
included, are decided at ``MERGE_TOL``, which neither reaches.

Each command is declared once, as its row of ``_COMMANDS`` (name, help, body
and arguments); the parser is built from that table, once per process.  The
bodies of the matrix commands (realize, verify, blocks, invert-matrix, polar)
and of oracle and fuzz import ``anop.matrix`` or ``anop.oracle`` when they
run, so the other twelve commands never load numpy.  Likewise every body
that decomposes (a row names its ``anop.decompose`` function) imports that
module when it runs, so classify, oracle and fuzz never load it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys

from . import serialize as sz
from .errors import AnopError, ParseError
from .model import KINDS, classify, moduli_report


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative float in any form float() reads (-1e-3, -.5E+2, -inf)
        # is a value, not an option; argparse's own pattern has no exponent
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

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


#: the one tolerance check, for --tol and ANOP_TOL alike: the open unit
#: interval (NaN and inf fail it)
_tolerance = _checked(float, lambda t: 0.0 < t < 1.0,
                      "tolerance must be a number in (0, 1)")
_depth = _checked(int, lambda d: d >= 2, "depth must be an integer of at least 2")
_count = _checked(int, lambda c: c >= 0, "count must be a non-negative integer")
_shift = _checked(float, math.isfinite, "shift must be a finite number")


def _tol(args, default: float) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("ANOP_TOL")
    if env:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"ANOP_TOL: {exc}") from None
    return default


def _load(args):
    # UTF-8 with surrogate escapes from a file or stdin's bytes, whatever the
    # interpreter's stdio error handler, so bytes that are not UTF-8 fail as
    # PARSE; a text stream with no byte buffer (io.StringIO) is read as text
    if args.input != "-":
        with open(args.input, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    elif hasattr(sys.stdin, "buffer"):
        text = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
    else:
        text = sys.stdin.read()
    data = sz.load(text)
    if isinstance(data, dict) and "schema_version" in data and "result" in data:
        data = data["result"]
    if data is None:
        raise ParseError("input document carries no result payload")
    return data


def _positive_triple(data) -> PositiveTriple:
    """Triple; a bare model is decomposed as positive (WRONG_KIND otherwise)."""
    if isinstance(data, dict) and "kind" in data:
        from .decompose import decompose_positive
        return decompose_positive(sz.parse_model(data))
    return sz.parse_triple(data)


def _realizable(data):
    """Triple or structure; a bare model is decomposed by kind first."""
    if isinstance(data, dict) and "kind" in data:
        from .decompose import decomposition
        return decomposition(sz.parse_model(data))
    if isinstance(data, dict) and "blocks" in data:
        return sz.parse_structure(data)
    if isinstance(data, dict) and "alpha" in data:
        return sz.parse_triple(data)
    raise ParseError("input must be a model, triple, or structure document")


# ---------------------------------------------------------------------------
# command bodies


def _chain(parse, op: str, payload):
    """Command body that reports ``payload(op(parse(document)))``, ``op``
    named in :mod:`anop.decompose` and imported when the command runs."""
    def run(args):
        from . import decompose
        return payload(getattr(decompose, op)(parse(_load(args))))
    return run


def _cmd_classify(args):
    model = sz.parse_model(_load(args))
    return sz.verdict_payload(classify(model), moduli_report(model))


def _cmd_shift(args):
    from .decompose import imaginary_shift
    return sz.model_payload(imaginary_shift(sz.parse_model(_load(args)), args.shift))


def _realized(args, parse=_realizable):
    """The realize step of the four matrix commands."""
    from .matrix import realize_matrix
    return realize_matrix(parse(_load(args)), args.dim, args.seed)


def _verification(args, ro):
    """The check shared by ``verify`` and ``realize --verify``."""
    from .matrix import CHECK_TOL, verify_structure
    return verify_structure(ro.matrix, ro.compact, ro.finite,
                            ro.isometry, ro.alpha, _tol(args, CHECK_TOL))


def _cmd_realize(args):
    ro = _realized(args)
    result = sz.encoded({"dim": args.dim, "seed": args.seed, "alpha": ro.alpha,
                         "labels": ro.labels, "diagonal": ro.diagonal,
                         "matrix": ro.matrix})
    if args.verify:  # checked once encoded: a non-finite entry fails as PARSE first
        result["verification"] = sz.encoded(_verification(args, ro))
    return result


def _cmd_verify(args):
    report = _verification(args, _realized(args))
    return sz.encoded({"dim": args.dim, "seed": args.seed, **vars(report)})


def _cmd_blocks(args):
    from .matrix import _splitter, block_form
    ro = _realized(args)
    _, splitter = _splitter(ro.finite)
    bf = block_form(ro.matrix, splitter)
    return sz.encoded({"splitter": "f" if splitter is ro.finite else "gram", **vars(bf)})


def _cmd_invert_matrix(args):
    import numpy as np
    from .matrix import _fro, inverse_via_blocks
    ro = _realized(args, _positive_triple)
    inv = inverse_via_blocks(ro.compact, ro.finite, ro.alpha)
    residual = _fro(ro.matrix @ inv - np.eye(args.dim)) / math.sqrt(args.dim)
    return sz.encoded({"dim": args.dim, "seed": args.seed, "residual": residual,
                       "inverse": inv})


def _cmd_polar(args):
    from .matrix import _fro, polar_decompose
    data = _load(args)
    raw = data.get("matrix") if isinstance(data, dict) else data
    m = sz.parse_matrix(raw)
    pair = polar_decompose(m)
    residual = _fro(m - pair.isometry @ pair.modulus) / max(_fro(m), 1.0)
    return sz.encoded({"residual": residual, **vars(pair)})


def _cmd_oracle(args):
    from .oracle import TruncationProfile, attainment_oracle
    profile = TruncationProfile(depth=args.depth)
    return sz.encoded(attainment_oracle(sz.parse_model(_load(args)), profile))


def _cmd_fuzz(args):
    from .oracle import TruncationProfile, attainment_oracle, seeded_models
    profile = TruncationProfile(depth=args.depth)
    disagreements = []
    for seed, tag, model in seeded_models(args.family, args.count, args.seed):
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


def _arg(*flags, **options):
    """One argument of a command row: ``add_argument``'s flags and options."""
    return flags, options


_INPUT = (_arg("input", nargs="?", default="-",
               help="JSON document path, or - for stdin"),)

_MATRIX = _INPUT + (
    _arg("--dim", type=int, required=True, help="matrix dimension"),
    _arg("--seed", type=int, default=0,
         help="conjugating unitary seed (0 keeps the diagonal)"),
)
#: the matrix commands that judge checks, whose bound --tol sets
_CHECKED = _MATRIX + (_arg("--tol", type=_tolerance, default=None, help="check tolerance"),)

#: every command in ``anop --help`` order: (name, help, body, arguments)
_COMMANDS = (
    ("classify", "decide AN membership of a spectrum model", _cmd_classify, _INPUT),
    ("decompose", "canonical positive triple of an AN positive model",
     _chain(sz.parse_model, "decompose_positive", sz.triple_payload), _INPUT),
    ("recompose", "rebuild the spectrum model of a positive triple",
     _chain(sz.parse_triple, "recompose", sz.model_payload), _INPUT),
    ("square", "triple of the squared operator",
     _chain(sz.parse_triple, "square_triple", sz.triple_payload), _INPUT),
    ("sqrt", "triple of the positive square root",
     _chain(sz.parse_triple, "sqrt_triple", sz.triple_payload), _INPUT),
    ("invert", "inverse triple in absolutely minimum-attaining form beta*I - K + F",
     _chain(sz.parse_triple, "invert_triple", sz.amform_payload), _INPUT),
    ("structure", "phase-carrying decomposition of a self-adjoint or normal model",
     _chain(sz.parse_model, "structure_normal", sz.structure_payload), _INPUT),
    ("gram", "positive model of T*T",
     _chain(sz.parse_model, "gram_spectrum", sz.model_payload), _INPUT),
    ("shift", "normal model of T + i*lambda*I", _cmd_shift, _INPUT + (
        _arg("--shift", type=_shift, required=True, metavar="LAMBDA",
             help="imaginary shift coefficient"),)),
    ("fredholm", "Fredholm-type properties of a triple (or AN positive model)",
     _chain(_positive_triple, "fredholm_report", sz.fredholm_payload), _INPUT),
    ("realize", "materialize a decomposition as a finite matrix", _cmd_realize,
     _CHECKED + (_arg("--verify", action="store_true",
                      help="attach a structural verification report"),)),
    ("verify", "realize and check the structural identities", _cmd_verify, _CHECKED),
    ("blocks", "compress the realized operator onto range/kernel of F", _cmd_blocks,
     _MATRIX),
    ("invert-matrix", "blockwise inverse of a realized positive triple",
     _cmd_invert_matrix, _MATRIX),
    ("polar", "polar decomposition of a matrix document", _cmd_polar, _INPUT),
    ("oracle", "independent attainment probe of a spectrum model", _cmd_oracle,
     _INPUT + (_arg("--depth", type=_depth, default=12,
                    help="cluster materialization depth for probing"),)),
    ("fuzz", "cross-check classifier and oracle on seeded models", _cmd_fuzz, (
        _arg("--count", type=_count, default=100, help="models to generate"),
        _arg("--family", default="all", choices=("all", "violators") + KINDS,
             help="generator family"),
        _arg("--seed", type=int, default=0, help="base seed"),
        _arg("--depth", type=_depth, default=12, help="oracle depth"))),
)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="anop",
                     description="absolutely norm-attaining spectrum toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    for name, help_, run, arguments in _COMMANDS:
        sp = sub.add_parser(name, help=help_, description=help_)
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
        sp.set_defaults(run=run)
    return parser


def execute(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out):  # --help prints to sys.stdout
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
        result = args.run(args)
    except (ParseError, OSError, AnopError) as exc:
        code = "IO" if isinstance(exc, OSError) else exc.code
        out.write(sz.emit(sz.report(
            args.command, None, [{"code": code, "message": str(exc)}])))
        return 2 if isinstance(exc, AnopError) else 1
    out.write(sz.emit(sz.report(args.command, result)))
    return 0


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
