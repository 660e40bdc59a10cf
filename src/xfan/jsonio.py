"""JSON encoding and decoding shared by the CLI and the tests.

Integers travel as plain JSON numbers while they fit in the 53-bit range
that survives an IEEE double round-trip, and as decimal strings beyond
it; decoding accepts either form everywhere an integer is expected, so
emitted reports re-parse to equal values. A decimal string is an optional
"-" and ASCII digits, nothing else. An input integer, decimal string or
JSON number, has at most MAX_DIGITS digits, which keeps parsing linear
in the input size (CPython's str-to-int conversion is quadratic); output
integers are unbounded. ``dumps`` pins key order and separators to make
identical jobs print identical bytes.
"""

import json
import re

from .intmat import primitive_vector

SAFE_MAX = (1 << 53) - 1
MAX_DIGITS = 100_000
_DECIMAL = re.compile(r"-?[0-9]+")


def encode_int(x):
    x = int(x)
    if -SAFE_MAX <= x <= SAFE_MAX:
        return x
    return str(x)


def bounded_int(token):
    """int(token) for a decimal token of at most MAX_DIGITS digits; else ValueError."""
    digits = len(token) - token.startswith("-")
    if digits > MAX_DIGITS:
        raise ValueError(f"integer of {digits} digits exceeds the {MAX_DIGITS}-digit input bound")
    return int(token)


def parse_decimal(text):
    """The integer an optional "-" and ASCII digits spell; else ValueError."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return bounded_int(text)


def decode_int(value):
    """Accept a JSON number or a decimal string; reject everything else."""
    if isinstance(value, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return parse_decimal(value)
    raise ValueError(f"expected an integer, got {type(value).__name__}")


def encode_vector(vec):
    return [encode_int(x) for x in vec]


def decode_vector(value):
    if not isinstance(value, list):
        raise ValueError("expected a JSON array of integers")
    return tuple(decode_int(x) for x in value)


def encode_matrix(mat):
    rows = mat.entries if hasattr(mat, "entries") else mat
    return [encode_vector(row) for row in rows]


def decode_matrix(value):
    if not isinstance(value, list) or not value:
        raise ValueError("expected a nonempty JSON array of rows")
    rows = tuple(decode_vector(row) for row in value)
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    return rows


def encode_polynomial(poly):
    """Ascending-lex term list [{"exponents": [...], "coeff": ...}, ...]."""
    return [
        {"exponents": encode_vector(exps), "coeff": encode_int(coeff)}
        for exps, coeff in poly.sorted_terms()
    ]


def encode_cone(desc):
    """The {rows, implicit, strict, facets, dim, lineality} report.

    Row indices are 1-based on the wire; each facet carries its primitive
    outward functional and every supporting row index.
    """
    rows = desc.A.entries
    facets = []
    for facet in desc.facets:
        facets.append(
            {
                "normal": encode_vector(primitive_vector(rows[facet.representative])),
                "representative": facet.representative + 1,
                "supporting": [i + 1 for i in facet.supporting],
            }
        )
    return {
        "rows": encode_matrix(rows),
        "implicit": [i + 1 for i in desc.implicit],
        "strict": [i + 1 for i in desc.strict],
        "facets": facets,
        "dim": desc.dim,
        "lineality": [encode_vector(v) for v in desc.lineality_basis],
    }


def decode_job_input(text):
    """Parse the {"B": [[..]], "d": [..]?} input document."""
    try:
        doc = json.loads(text, parse_int=bounded_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "B" not in doc:
        raise ValueError('input must be a JSON object with a "B" key')
    unknown = set(doc) - {"B", "d"}
    if unknown:
        raise ValueError(f"unknown input keys: {sorted(unknown)}")
    b_rows = decode_matrix(doc["B"])
    d_vec = decode_vector(doc["d"]) if "d" in doc else None
    return b_rows, d_vec


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
