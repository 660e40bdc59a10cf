"""Command-line interface.

Every invocation runs one job: read the seed from --B (a JSON file or -
for standard input), compute, print a single JSON document on standard
output. ``main`` returns the exit code: 0 success, 1 malformed input, 2
domain errors (the document then describes the error), 3 when a walk or
a knitting window passes the node cap, with --exhaustive at a seed of
infinite type (reason "infinite_type"), or when a job runs out of memory
(reason "out_of_memory"). Exit 1 writes one line, cut by ``_shorten``.
Directions in --seq and all row/column indices in reports are 1-based.
Enumeration is single-threaded.
"""

import argparse
import json
import re
import sys
from functools import cache

from .cones import seed_classifier
from .errors import ExhaustionCapExceeded, NotRepresentationFinite, XfanError
from .fan import assemble_fan, theta
from .intmat import primitive_vector
from .jsonio import (
    bounded_int,
    decode_job_input,
    decode_vector,
    dumps,
    encode_cone,
    encode_matrix,
    encode_polynomial,
    encode_vector,
    parse_decimal,
)
from .pattern import DEFAULT_DEPTH, NODE_CAP, _walk, enumerate_pattern
from .reptheory import kernel_certificates, knit, normal_vector, path_algebra_data
from .seed import mutate, validate


# a quoted text as repr writes it, or a run of non-blanks other than quotes, over 40 characters;
# a quote after a backslash opens no text, which keeps the scan linear in the message. The two
# patterns are strings, which re compiles on the first exit-1 line rather than in every process
_LONG_RUN = r"""(?<!\\)(['"])((?:\\.|(?!\1)[^\\\n]){41,})\1|[^\s'"]{41,}"""
_ESCAPE = r"\\(?:x..|u.{4}|U.{8}|.)"  # one character of a text as repr writes it
_ROOM = 199 - len("xfan: error: \n")  # the bytes of a message on an exit-1 line under 200 bytes


def _shorten(message):
    """The message as one exit-1 line under 200 bytes in UTF-8, a newline written \\n.

    Each long run keeps its first 40 characters and its length, for a
    quoted text the length of the text it quotes; a message still too long
    then keeps what fits and the length of the whole.
    """
    short = re.sub(_LONG_RUN, _cut_run, message.replace("\n", "\\n"))
    if len(short.encode()) <= _ROOM:
        return short
    tail = f"... (message of {len(message)} characters)"
    return short.encode()[: _ROOM - len(tail)].decode(errors="ignore") + tail


def _cut_run(match):
    quote, run = match[1] or "", match[2] or match[0]
    length = len(re.sub(_ESCAPE, "_", run)) if quote else len(run)
    return f"{quote}{run[:40]}{quote}... ({length} characters)"


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on bad flags, so that ``_main`` writes the exit-1 line.

    ``parse_args`` quotes each unrecognized argument, so that ``_shorten``
    cuts it as one text, blanks included.
    """

    def error(self, message):
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(map(repr, extras))}")
        return args


def _parse_int(text):
    try:
        return parse_decimal(text)
    except ValueError as exc:  # argparse would echo the whole argument
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_seq(text):
    if not text.strip(" "):
        return ()
    try:
        return tuple(parse_decimal(tok.strip(" ")) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated 1-based directions: {exc}"
        ) from None


def _parse_json_vector(text, flag):
    try:
        value = json.loads(text, parse_int=bounded_int)
    except (json.JSONDecodeError, RecursionError):
        raise ValueError(f"{flag} expects a JSON array like [1,0,-1], got {text!r}") from None
    return decode_vector(value)


def _load_exchange(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path!r}: {exc.strerror}") from None
    b_rows, d_vec = decode_job_input(text)
    return validate(b_rows, d_vec)


def _enumerate(em, args):
    return enumerate_pattern(
        em,
        max_depth=None if args.exhaustive else args.depth,
        with_polynomials=False,
        node_cap=NODE_CAP,
    )


def _cmd_validate(em, args):
    return {
        "ok": True,
        "n": em.n,
        "d": encode_vector(em.d),
        "skew_symmetric": em.is_skew_symmetric(),
    }


def _cmd_mutate(em, args):
    current = em
    for k in args.seq:
        current = mutate(current, k)
    return {
        "history": args.seq,
        "B": encode_matrix(current.B),
        "d": encode_vector(current.d),
    }


def _cmd_cmatrix(em, args):
    node = _walk(em, args.seq, with_polynomials=False)
    return {
        "history": node.history,
        "B_t": encode_matrix(node.B_t.B),
        "C_t": encode_matrix(node.C_t),
    }


def _cmd_gmatrix(em, args):
    node = _walk(em, args.seq, with_polynomials=False)
    return {
        "history": node.history,
        "G_t": encode_matrix(node.G_t),
        "C_t": encode_matrix(node.C_t),
    }


def _cmd_fpoly(em, args):
    node = _walk(em, args.seq)
    return {
        "history": node.history,
        "F_t": [encode_polynomial(f) for f in node.F_t],
    }


def _cmd_cone(em, args):
    node = _walk(em, args.seq, with_polynomials=False)
    description = seed_classifier(em)(node)
    doc = encode_cone(description)
    doc["history"] = node.history
    return doc


def _cmd_fan(em, args):
    catalog = _enumerate(em, args)
    report = assemble_fan(catalog)
    cones = []
    for cone in report.cones:
        entry = encode_cone(cone.description)
        entry["witnesses"] = cone.witnesses
        if args.emit_rays:
            entry["rays"] = [encode_vector(r) for r in cone.description.rays]
        cones.append(entry)
    return {
        "complete": report.complete,
        "depth": catalog.depth,
        "nodes": len(catalog.nodes),
        "seed_classes": catalog.seed_class_count(),
        "dims": {str(dim): count for dim, count in report.histogram.items()},
        "cones": cones,
    }


def _cmd_theta(em, args):
    beta = _parse_json_vector(args.beta, "--beta")
    catalog = _enumerate(em, args)
    result = theta(beta, catalog)
    return {
        "beta": encode_vector(result.beta),
        "witness": result.witness,
        "alpha": encode_vector(result.alpha),
        "value": encode_polynomial(result.value),
    }


def _cmd_ar(em, args):
    data = path_algebra_data(em)
    slice_data = knit(data, window=args.window)
    positions = [
        {
            "slice": m,
            "vertex": v + 1,
            "dim": encode_vector(slice_data.objects[(m, v)]),
        }
        for (m, v) in sorted(slice_data.objects)
    ]
    meshes = [
        {
            "source": [mesh.source[0], mesh.source[1] + 1],
            "middles": [[m, v + 1] for (m, v) in mesh.middles],
            "target": [mesh.target[0], mesh.target[1] + 1],
        }
        for mesh in slice_data.meshes
    ]
    return {
        "exhaustive": slice_data.exhaustive,
        "positions": positions,
        "meshes": meshes,
        "modules": [encode_vector(d) for d in slice_data.module_dimension_vectors()],
    }


def _cmd_normals(em, args):
    cvec = _parse_json_vector(args.cvec, "--cvec")
    data = path_algebra_data(em)
    try:
        slice_data = knit(data, window=args.window)
    except NotRepresentationFinite:  # raised only without a window
        slice_data = None
    normal = normal_vector(data, cvec, slice_data)
    checked = slice_data is not None and slice_data.mesh_at(cvec) is not None
    return {
        "cvec": encode_vector(cvec),
        "normal": encode_vector(normal),
        "primitive": encode_vector(primitive_vector(normal)),
        "mesh_checked": checked,
    }


def _cmd_certify(em, args):
    data = path_algebra_data(em)
    node = _walk(em, args.seq, with_polynomials=False)
    cvectors = node.c_vectors
    certificates = kernel_certificates(data, cvectors)
    return {
        "history": node.history,
        "cvectors": [encode_vector(c) for c in cvectors],
        "certificates": [
            {"columns": [i + 1 for i in subset], "lambda": encode_vector(lam)}
            for subset, lam in certificates
        ],
    }


_SEQ = ("--seq", {"type": _parse_seq, "default": (), "metavar": "K1,K2,..", "help": "1-based mutation directions applied left to right"})
_DEPTH = (
    ("--depth", {"type": _parse_int, "default": DEFAULT_DEPTH, "help": f"BFS depth bound; exit 3 past {NODE_CAP} labelled nodes"}),
    ("--exhaustive", {"action": "store_true", "help": f"ignore --depth; exit 3 past {NODE_CAP} labelled nodes or on infinite type"}),
)
# one definition per command: its handler, its line in the top-level help, and its flags after --B, each a flag and the
# keywords of add_argument
_COMMANDS = {
    "validate": (_cmd_validate, "check skew-symmetrizability, report d"),
    "mutate": (_cmd_mutate, "mutate the exchange matrix", _SEQ),
    "cmatrix": (_cmd_cmatrix, "c-matrix of the seed at --seq", _SEQ),
    "gmatrix": (_cmd_gmatrix, "g-matrix of the seed at --seq", _SEQ),
    "fpoly": (_cmd_fpoly, "F-polynomials of the seed at --seq", _SEQ),
    "cone": (_cmd_cone, "inequality system and cone of the seed at --seq", _SEQ),
    "fan": (
        _cmd_fan,
        "enumerate seeds, merge equal cones",
        *_DEPTH,
        ("--emit-rays", {"action": "store_true", "help": "include primitive extreme rays per cone for external plotting"}),
    ),
    "theta": (
        _cmd_theta,
        "theta function at an integral point",
        ("--beta", {"required": True, "metavar": "[..]", "help": "integral point, JSON array"}),
        *_DEPTH,
    ),
    "ar": (
        _cmd_ar,
        "knit the AR quiver of an acyclic skew-symmetric seed",
        ("--window", {"type": _parse_int, "default": None, "help": "number of translation steps; omit for exhaustive Dynkin knitting"}),
    ),
    "normals": (
        _cmd_normals,
        "hyperplane normal of a positive c-vector",
        ("--cvec", {"required": True, "metavar": "[..]", "help": "positive c-vector, JSON array"}),
        (
            "--window",
            {"type": _parse_int, "default": None, "help": "knitting window for the root and mesh check on non-Dynkin quivers"},
        ),
    ),
    "certify": (_cmd_certify, "kernel certificates among the c-matrix columns at --seq", _SEQ),
}


def _define(parser, name):
    """The parser with the flags of command ``name``: a subparser of the full parser, or standalone."""
    handler, _, *flags = _COMMANDS[name]
    parser.set_defaults(handler=handler)
    parser.add_argument(
        "--B", required=True, metavar="FILE", help='seed input {"B": [[..]], "d": [..]?}; - reads standard input'
    )
    for flag, options in flags:
        parser.add_argument(flag, **options)
    return parser


@cache  # per process, one parser per command name its jobs name, built by the first of them
def _parser(name):
    """The parser of command ``name``, or for None the full parser, which names every command.

    A command's parser reads what follows its name, as the full parser's
    subparser of that name would, and prints the same help and errors.
    """
    if name is not None:
        return _define(_Parser(prog=f"xfan {name}"), name)
    parser = _Parser(prog="xfan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True, metavar="command")
    for command, (_, help_text, *_) in _COMMANDS.items():
        _define(sub.add_parser(command, help=help_text), command)
    return parser


def main(argv=None):
    """Run one job; integers of any size parse and print for its duration."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before CPython 3.11
        return _main(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _main(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv and argv[0] in _COMMANDS else None  # else the full parser reads every argument
    try:
        args = _parser(name).parse_args(argv[1:] if name else argv)
        em = _load_exchange(args.B)
        text = dumps(args.handler(em, args))
    except XfanError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if exc.reason is not None:
            doc["reason"] = exc.reason
        print(dumps(doc))
        return 3 if isinstance(exc, ExhaustionCapExceeded) else 2
    except ValueError as exc:
        print(f"xfan: error: {_shorten(str(exc))}", file=sys.stderr)
        return 1
    except MemoryError:  # the backstop behind the caps, reported once the job's objects are freed
        text = None
    if text is None:
        doc = {"error": "ExhaustionCapExceeded", "message": "the job ran out of memory", "reason": "out_of_memory"}
        print(dumps(doc))
        return 3
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
