"""Whole-int GF(2) kernels against per-bit reference implementations.

Each reference below is the straightforward bit-at-a-time version of a
kernel: one shift per bit or per index.  The kernels must agree with them
exactly, including the error type and message on bad input.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soembed.constructions import juxtapose_simplex
from soembed.errors import BadCharacterError, MatrixParseError, RaggedRowsError
from soembed.gf2 import (
    BinaryMatrix,
    _index_counts,
    horizontal_join,
    parse_matrix,
    random_matrix,
    simplex_matrix,
)
from soembed.profiles import ColumnProfile, column_profile

KERNEL_SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# per-bit references


def ref_parse(text):
    rows = []
    width = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        bits = []
        for ch in line:
            if ch in "01":
                bits.append(ord(ch) - ord("0"))
            elif ch in " \t\r":
                continue
            else:
                raise BadCharacterError(f"unexpected character {ch!r} in matrix text")
        if not bits:
            continue
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise RaggedRowsError(
                f"row {len(rows) + 1} has {len(bits)} bits, expected {width}"
            )
        acc = 0
        for j, b in enumerate(bits):
            acc |= b << j
        rows.append(acc)
    return width, tuple(rows)


def ref_to_text(m):
    return "\n".join("".join(str((r >> j) & 1) for j in range(m.n)) for r in m.rows)


def ref_column_profile(m):
    counts = [0] * (1 << m.k)
    for j in range(m.n):
        idx = 0
        for pos in range(m.k):
            idx |= ((m.rows[pos] >> j) & 1) << (m.k - 1 - pos)
        counts[idx] += 1
    return tuple(counts[1:]), counts[0]


def ref_horizontal_join(m, cols):
    rows = list(m.rows)
    for offset, c in enumerate(cols):
        for pos in range(m.k):
            if (c >> (m.k - 1 - pos)) & 1:
                rows[pos] |= 1 << (m.n + offset)
    return tuple(rows)


def ref_simplex_rows(k):
    rows = []
    for pos in range(k):
        acc = 0
        for i in range(1, 1 << k):
            acc |= ((i >> (k - 1 - pos)) & 1) << (i - 1)
        rows.append(acc)
    return tuple(rows)


def ref_juxtapose(seed, s):
    w = (1 << seed.k) - 1
    rows = []
    for i, block_row in enumerate(ref_simplex_rows(seed.k)):
        acc = 0
        for copy in range(s):
            acc |= block_row << (copy * w)
        rows.append(acc | seed.rows[i] << (s * w))
    return tuple(rows)


def ref_parity_mask(ell):
    acc = 0
    for i, c in enumerate(ell, start=1):
        if c & 1:
            acc |= 1 << i
    return acc


# ---------------------------------------------------------------------------
# strategies


@st.composite
def matrices(draw, max_k=16, max_n=300):
    """k in 1..max_k, n in 0..max_n, often with some all-zero columns."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(0, max_n))
    top = (1 << n) - 1
    keep = draw(st.sampled_from([top, 0, draw(st.integers(0, top))]))
    rows = tuple(draw(st.integers(0, top)) & keep for _ in range(k))
    return BinaryMatrix(k, n, rows)


@st.composite
def repetitive_matrices(draw, max_k=12, max_n=200):
    """Columns drawn from a few indices, the zero column among them, so
    that most repeat; n = 0 included."""
    k = draw(st.integers(1, max_k))
    pool = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=6))
    cols = draw(st.lists(st.sampled_from(pool), max_size=max_n))
    return horizontal_join(BinaryMatrix(k, 0, (0,) * k), cols)


@st.composite
def matrix_texts(draw):
    """Matrix text with comments, blank lines, CRLF and blanks between bits."""
    m = draw(matrices(max_n=60).filter(lambda m: m.n > 0))
    lines = []
    if draw(st.booleans()):
        lines.append("# header comment")
    for r in m.rows:
        parts = []
        for j in range(m.n):
            parts.append(str((r >> j) & 1))
            parts.append(draw(st.sampled_from(["", "", " ", "\t", " \t"])))
        line = "".join(parts)
        if draw(st.booleans()):
            line += draw(st.sampled_from(["  # note", "#", "\t# 1x"]))
        lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# blank", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return m, newline.join(lines) + draw(st.sampled_from(["", newline]))


def outcome(fn, *args):
    """fn's result, or the type and message of the parse error it raised."""
    try:
        return fn(*args)
    except MatrixParseError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# text I/O


@KERNEL_SETTINGS
@given(matrices())
def test_to_text_matches_reference_and_round_trips(m):
    text = m.to_text()
    assert text == ref_to_text(m)
    if m.n:
        assert parse_matrix(text) == m


@KERNEL_SETTINGS
@given(matrix_texts())
def test_parse_decorated_text(case):
    m, text = case
    assert parse_matrix(text) == m
    assert ref_parse(text) == (m.n, m.rows)


@KERNEL_SETTINGS
@given(st.text(alphabet="0011 \t\r\n#x2١ \x0b", max_size=40))
def test_parse_agrees_with_reference_on_any_text(text):
    def parsed(t):
        m = parse_matrix(t)
        return m.n, m.rows

    expected = outcome(ref_parse, text)
    if expected == (None, ()):
        with pytest.raises(MatrixParseError, match="no matrix rows"):
            parse_matrix(text)
    else:
        assert outcome(parsed, text) == expected


def test_parse_error_messages():
    with pytest.raises(BadCharacterError, match=r"unexpected character 'x'"):
        parse_matrix("0 1\n1 x 0 y\n")
    with pytest.raises(BadCharacterError, match=r"unexpected character '2'"):
        parse_matrix("012")
    with pytest.raises(RaggedRowsError, match=r"^row 3 has 2 bits, expected 3$"):
        parse_matrix("011\n\n# c\n101\n10 # short\n")


# ---------------------------------------------------------------------------
# column profile and masks


@KERNEL_SETTINGS
@given(matrices())
def test_column_profile_matches_reference(m):
    prof = column_profile(m)
    assert (prof.ell, prof.zero_count) == ref_column_profile(m)
    assert prof.parity_mask() == ref_parity_mask(prof.ell)


@KERNEL_SETTINGS
@given(st.one_of(matrices(max_k=12), repetitive_matrices()))
def test_sparse_profile_matches_dense_reference(m):
    prof = column_profile(m)
    ell, zeros = ref_column_profile(m)
    assert prof.ell == ell
    assert [prof.count(i) for i in range(1 << m.k)] == [zeros, *ell]
    assert prof.n == m.n
    assert prof.parity_mask() == ref_parity_mask(ell)
    # ascending, zeros left out, whatever order the constructor is given
    assert list(prof.counts.items()) == [(i, c) for i, c in enumerate(ell, 1) if c]
    assert ColumnProfile(m.k, dict(reversed(prof.counts.items())), zeros) == prof
    for counts, zero_count in [
        ({}, -1),
        ({0: 1}, zeros),
        ({1 << m.k: 1}, zeros),
        ({**prof.counts, 1: 0}, zeros),
        ({**prof.counts, 1: -1}, zeros),
    ]:
        with pytest.raises(ValueError):
            ColumnProfile(m.k, counts, zero_count)


def index_count_profile(m):
    """The (ell, zero_count) that _index_counts gives, each index once."""
    counts = [0] * (1 << m.k)
    for idx, s in _index_counts(m.rows, m.n):
        assert counts[idx] == 0 < s
        counts[idx] = s
    return tuple(counts[1:]), counts[0]


@KERNEL_SETTINGS
@given(matrices())
def test_index_counts_matches_reference(m):
    assert index_count_profile(m) == ref_column_profile(m)


# the bit strings are read from k = 8 rows where n < 2**k, and the columns
# split otherwise; n = 0 must not read format(0, "00b") as one column
@pytest.mark.parametrize("k, n", [(7, 100), (8, 100), (8, 256), (12, 4096), (12, 0)])
def test_index_counts_on_each_side_of_the_choice(k, n):
    m = random_matrix(random.Random(1000 * k + n), k, n)
    assert index_count_profile(m) == ref_column_profile(m)
    if not n:
        assert _index_counts(m.rows, n) == []


@KERNEL_SETTINGS
@given(st.integers(1, 12).flatmap(
    lambda k: st.lists(st.integers(0, 9), min_size=(1 << k) - 1, max_size=(1 << k) - 1)
))
def test_parity_mask_matches_reference(ell):
    k = (len(ell) + 1).bit_length() - 1
    counts = {i: c for i, c in enumerate(ell, start=1) if c}
    assert ColumnProfile(k, counts, 0).parity_mask() == ref_parity_mask(ell)


# ---------------------------------------------------------------------------
# joins and simplex blocks


@KERNEL_SETTINGS
@given(matrices(), st.data())
def test_horizontal_join_matches_reference(m, data):
    cols = data.draw(st.lists(st.integers(0, (1 << m.k) - 1), max_size=70))
    joined = horizontal_join(m, cols)
    assert joined.n == m.n + len(cols)
    assert joined.rows == ref_horizontal_join(m, cols)


def test_simplex_matches_reference():
    for k in range(1, 13):
        assert simplex_matrix(k).rows == ref_simplex_rows(k), k


@KERNEL_SETTINGS
@given(matrices(max_k=8, max_n=40), st.integers(0, 40))
def test_juxtapose_matches_reference(seed, s):
    built = juxtapose_simplex(seed, s)
    assert built.n == s * ((1 << seed.k) - 1) + seed.n
    assert built.rows == ref_juxtapose(seed, s)
