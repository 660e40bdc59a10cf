"""JSON layer: exact integer transport and strict input decoding."""

from __future__ import annotations

import json

import pytest

from xfan import LaurentPolynomial
from xfan.jsonio import (
    MAX_DIGITS,
    SAFE_MAX,
    decode_int,
    decode_job_input,
    decode_matrix,
    decode_vector,
    dumps,
    encode_int,
    encode_matrix,
    encode_polynomial,
    encode_vector,
    parse_decimal,
)


def test_int_boundary_encoding():
    assert encode_int(0) == 0
    assert encode_int(SAFE_MAX) == SAFE_MAX
    assert encode_int(-SAFE_MAX) == -SAFE_MAX
    assert encode_int(SAFE_MAX + 1) == str(SAFE_MAX + 1)
    assert encode_int(-(SAFE_MAX + 1)) == str(-(SAFE_MAX + 1))


def test_int_decoding_accepts_both_forms():
    assert decode_int(7) == 7
    assert decode_int("7") == 7
    assert decode_int(str(2 ** 80)) == 2 ** 80
    assert decode_int("-12") == -12
    with pytest.raises(ValueError):
        decode_int(True)
    with pytest.raises(ValueError):
        decode_int(1.5)
    # a decimal string is an optional "-" and ASCII digits
    for text in ("1.5", "", "-", "1_000", " 7 ", "7\n", "+7", "\u0663", "-\u0661\u0660"):
        with pytest.raises(ValueError, match="not a decimal integer"):
            decode_int(text)


def test_int_round_trip_through_json():
    for x in (0, 1, -1, SAFE_MAX, SAFE_MAX + 1, -(2 ** 70), 2 ** 100):
        wire = json.loads(json.dumps(encode_int(x)))
        assert decode_int(wire) == x


def test_vector_and_matrix_round_trip():
    vec = (1, -(2 ** 60), 0)
    assert decode_vector(encode_vector(vec)) == vec
    rows = ((0, 2 ** 60), (-(2 ** 60), 0))
    assert decode_matrix(encode_matrix([list(r) for r in rows])) == rows


def test_decode_matrix_rejects_ragged_or_empty():
    with pytest.raises(ValueError):
        decode_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        decode_matrix([])
    with pytest.raises(ValueError):
        decode_matrix("nope")


def test_encode_polynomial_orders_terms():
    p = LaurentPolynomial(2, {(1, 0): 2, (-1, 1): 3, (0, 0): 1})
    doc = encode_polynomial(p)
    assert doc == [
        {"exponents": [-1, 1], "coeff": 3},
        {"exponents": [0, 0], "coeff": 1},
        {"exponents": [1, 0], "coeff": 2},
    ]


def test_decode_job_input_strict():
    b_rows, d_vec = decode_job_input('{"B": [[0, 1], [-1, 0]]}')
    assert b_rows == ((0, 1), (-1, 0))
    assert d_vec is None
    b2, d2 = decode_job_input('{"B": [[0, 1], [-2, 0]], "d": [2, 1]}')
    assert b2 == ((0, 1), (-2, 0))
    assert d2 == (2, 1)
    with pytest.raises(ValueError):
        decode_job_input('{"B": [[0, 1], [-1, 0]], "extra": 1}')
    with pytest.raises(ValueError):
        decode_job_input('{"d": [1, 1]}')
    with pytest.raises(ValueError):
        decode_job_input("[[0, 1], [-1, 0]]")
    with pytest.raises(ValueError):
        decode_job_input("{bad")


def test_dumps_is_compact_and_sorted():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_input_integers_past_the_digit_bound_raise():
    over = "9" * (MAX_DIGITS + 1)
    for text in (over, "-" + over):
        with pytest.raises(ValueError, match=f"integer of {MAX_DIGITS + 1} digits exceeds"):
            parse_decimal(text)
        with pytest.raises(ValueError, match=f"integer of {MAX_DIGITS + 1} digits exceeds"):
            decode_int(text)
    # a bare JSON number meets the bound in the parser, before any int is built
    for number in (over, "-" + over):
        with pytest.raises(ValueError, match="-digit input bound"):
            decode_job_input('{"B": [[0, %s], [1, 0]]}' % number)
    # a minus sign is not a digit
    assert parse_decimal("-" + "1" * 4000) == -int("1" * 4000)


def test_decode_vector_wants_an_array():
    for value in ({"a": 1}, 1, "[1, 0]", None):
        with pytest.raises(ValueError, match="^expected a JSON array of integers$"):
            decode_vector(value)
