"""Core GF(2) matrix operations against hand-checked and brute-force values."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from functools import reduce
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soembed.errors import (
    BadCharacterError,
    CapExceededError,
    EmptyInputError,
    IndexOutOfRangeError,
    LengthMismatchError,
    RaggedRowsError,
    ZeroCodeError,
)
from soembed.gf2 import (
    BinaryMatrix,
    _bz_min_weight,
    _lane_bits,
    _level_min_weight,
    _sliced_min_weight,
    _systematic_form,
    _table_min_weight,
    gram,
    h_column,
    horizontal_join,
    min_distance,
    parse_matrix,
    random_full_rank_matrix,
    random_matrix,
    rank,
    row_basis,
    simplex_matrix,
    weight_distribution,
)

G_10_3 = parse_matrix("0000111111\n0111001111\n1011010001")
G_7_4 = parse_matrix("0000111\n0011001\n0101010\n1001011")
TG_8_4 = parse_matrix("00001111\n00110011\n01010101\n10010110")
TG_10_2 = parse_matrix("0001111011\n1110001101")


def naive_min_distance(m: BinaryMatrix) -> int:
    """Reference minimum distance: all nonzero row combinations, dedup'd.

    Exists as an independent check for the min_distance searches.  It XORs
    up to k rows for each of the 2**k row combinations, k * 2**k XORs in
    all, so it is only for small matrices.
    """
    seen = set()
    for picks in itertools.product((0, 1), repeat=m.k):
        cw = 0
        for b, r in zip(picks, m.rows):
            if b:
                cw ^= r
        seen.add(cw)
    seen.discard(0)
    if not seen:
        raise ZeroCodeError("the zero code has no minimum distance")
    return min(c.bit_count() for c in seen)


def test_parse_basic():
    m = parse_matrix("011\n101")
    assert (m.k, m.n) == (2, 3)
    assert m.row_bits(0) == (0, 1, 1)
    assert m.row_bits(1) == (1, 0, 1)


def test_parse_smallest():
    m = parse_matrix("0")
    assert (m.k, m.n) == (1, 1)
    assert m.rows == (0,)


def test_parse_whitespace_and_comments():
    assert parse_matrix("01 1\n1 01") == parse_matrix("011\n101")
    assert parse_matrix("# header\n011  # trailing\n\n101\r\n") == parse_matrix(
        "011\n101"
    )


def test_parse_errors():
    with pytest.raises(EmptyInputError):
        parse_matrix("# only a comment\n\n")
    with pytest.raises(RaggedRowsError):
        parse_matrix("01\n011")
    with pytest.raises(BadCharacterError):
        parse_matrix("012")


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 20))
        assert parse_matrix(m.to_text()) == m


def test_rank_examples():
    assert rank(simplex_matrix(3)) == 3
    assert rank(parse_matrix("011\n011")) == 1
    # by-hand Gaussian elimination gives four pivots
    assert rank(G_7_4) == 4


def test_gram_examples():
    tg = horizontal_join(G_10_3, [h_column(3, 3)])
    assert gram(tg).is_zero()
    eye = parse_matrix("10\n01")
    assert gram(eye) == eye
    g = gram(G_10_3)
    assert g.entry(2, 2) == 1  # bottom row has odd weight


def test_gram_symmetric_random():
    rng = random.Random(5)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 30))
        g = gram(m)
        for i in range(m.k):
            for j in range(m.k):
                assert g.entry(i, j) == g.entry(j, i)


def test_min_distance_examples():
    assert min_distance(G_7_4) == 3
    assert min_distance(TG_8_4) == 4
    assert min_distance(TG_10_2) == 6


def test_min_distance_matches_naive():
    rng = random.Random(7)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 16))
        if all(r == 0 for r in m.rows):
            continue
        assert min_distance(m) == naive_min_distance(m)


def test_min_distance_rank_deficient_visits_row_space():
    m = parse_matrix("011\n011")
    # the row space has one nonzero codeword, of weight 2
    assert min_distance(m) == 2


def test_min_distance_zero_code():
    with pytest.raises(ZeroCodeError):
        min_distance(parse_matrix("000\n000"))


def test_min_distance_cap():
    eye41 = BinaryMatrix(41, 41, tuple(1 << i for i in range(41)))
    message = r"^rank 41 > RANK_CAP = 40: 2\^41 codewords$"
    with pytest.raises(CapExceededError, match=message):
        min_distance(eye41)
    with pytest.raises(CapExceededError, match=message):
        weight_distribution(eye41)


def test_weight_distribution():
    assert weight_distribution(TG_8_4) == {0: 1, 4: 14, 8: 1}
    assert weight_distribution(parse_matrix("11")) == {0: 1, 2: 1}
    assert weight_distribution(simplex_matrix(3)) == {0: 1, 4: 7}


def test_weight_distribution_sums():
    rng = random.Random(13)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 20))
        wd = weight_distribution(m)
        assert sum(wd.values()) == 1 << rank(m)
        nonzero = [w for w in wd if w > 0]
        if nonzero:
            assert min(nonzero) == min_distance(m)


def test_h_column():
    assert h_column(3, 1) == (0, 0, 1)
    assert h_column(3, 6) == (1, 1, 0)
    assert h_column(4, 14) == (1, 1, 1, 0)
    with pytest.raises(IndexOutOfRangeError):
        h_column(3, 8)
    with pytest.raises(IndexOutOfRangeError):
        h_column(3, 0)


def test_simplex_matrix():
    s2 = simplex_matrix(2)
    assert [s2.column(j) for j in range(3)] == [(0, 1), (1, 0), (1, 1)]
    assert min_distance(simplex_matrix(3)) == 4
    assert min_distance(simplex_matrix(4)) == 8
    for k in range(1, 7):
        sk = simplex_matrix(k)
        cols = {sk.column(j) for j in range(sk.n)}
        assert len(cols) == (1 << k) - 1 and (0,) * k not in cols
        assert set(weight_distribution(sk)) == {0, 1 << (k - 1)}


def test_horizontal_join():
    tg = horizontal_join(G_10_3, [h_column(3, 3)])
    assert tg == parse_matrix("00001111110\n01110011111\n10110100011")
    assert horizontal_join(G_10_3, []) == G_10_3
    h2 = simplex_matrix(2)
    doubled = horizontal_join(h2, [h2.column(j) for j in range(3)])
    from soembed.profiles import column_profile

    assert column_profile(doubled).ell == (2, 2, 2)
    with pytest.raises(LengthMismatchError):
        horizontal_join(G_10_3, [(1, 0)])


def test_join_preserves_rank_and_distance():
    # appending columns never loses rank, and cannot add any once the rows
    # are already independent
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 16))
        if all(r == 0 for r in m.rows):
            continue
        cols = [
            tuple(rng.randint(0, 1) for _ in range(m.k))
            for _ in range(rng.randint(1, 4))
        ]
        joined = horizontal_join(m, cols)
        assert rank(joined) >= rank(m)
        if rank(m) == m.k:
            # no new codewords appear, and puncturing the joined code back
            # to the original coordinates never gains weight
            assert rank(joined) == m.k
            assert min_distance(joined) >= min_distance(m)
        assert joined.rows[0] & ((1 << m.n) - 1) == m.rows[0]


# ---------------------------------------------------------------------------
# The three minimum-weight paths, each checked on its own so that the choice
# between them cannot hide a broken one.

SEARCH_SETTINGS = settings(max_examples=80, deadline=None)
# Rank 12: the split-table walk has high rows to walk beyond its table.
RANK_12 = random_full_rank_matrix(random.Random(1230), 12, 30)


@st.composite
def codes(draw, max_k=12, max_n=60):
    """Nonzero matrices, with zero columns, duplicate and dependent rows.

    Some repeat one block of columns, so that a codeword can weigh exactly
    the bound of the information sets that the search has not yet seen.
    """
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    copies = draw(st.integers(1, 4))
    if copies > 1:
        n = max(n // copies, 1)
        rows = [sum((r % (1 << n)) << (n * c) for c in range(copies)) for r in rows]
        n *= copies
    if draw(st.booleans()):
        zero_cols = draw(st.integers(0, (1 << n) - 1))
        rows = [r & ~zero_cols for r in rows]
    index = st.integers(0, k - 1)
    for i, j, j2 in draw(st.lists(st.tuples(index, index, index), max_size=3)):
        rows[i] = rows[j] if j == j2 else rows[j] ^ rows[j2]
    rows[draw(index)] |= 1 << draw(st.integers(0, n - 1))
    return BinaryMatrix(k, n, tuple(rows))


@st.composite
def narrow_codes(draw):
    """Full-rank r x n matrices with n < 2r: one information set at most."""
    r = draw(st.integers(1, 12))
    n = draw(st.integers(r, 2 * r - 1))
    tail = st.integers(0, (1 << (n - r)) - 1)
    rows = [1 << i | draw(tail) << r for i in range(r)]
    index = st.integers(0, r - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2 * r)):
        if i != j:
            rows[i] ^= rows[j]
    return BinaryMatrix(r, n, tuple(rows))


def naive_weight_distribution(m):
    span = {
        reduce(xor, (r for b, r in zip(picks, m.rows) if b), 0)
        for picks in itertools.product((0, 1), repeat=m.k)
    }
    return dict(Counter(c.bit_count() for c in span))


@SEARCH_SETTINGS
@given(codes())
@example(RANK_12)
def test_table_walk_matches_naive(m):
    assert _table_min_weight(row_basis(m)) == naive_min_distance(m)


@SEARCH_SETTINGS
@given(codes())
@example(RANK_12)
def test_sliced_walk_matches_naive(m):
    assert _sliced_min_weight(row_basis(m), m.n) == naive_min_distance(m)


def _repeated_columns(rng, r, n, copies):
    """A random r x (copies * n) matrix made of copies of one r x n block."""
    block = random_full_rank_matrix(rng, r, n)
    return BinaryMatrix(
        r,
        copies * n,
        tuple(sum(row << (n * c) for c in range(copies)) for row in block.rows),
    )


def _lightest_on_flat_columns():
    """11 random rows on columns 400..1199, and a row one lighter than
    anything in their span, on columns 0..399 where they all vanish.

    The light row comes last in the basis, so it is walked, not a lane.
    """
    rng = random.Random(1200)
    low = [rng.getrandbits(800) << 400 for _ in range(11)]
    w = _table_min_weight(row_basis(BinaryMatrix(11, 1200, tuple(low)))) - 1
    return BinaryMatrix(12, 1200, tuple(low + [(1 << w) - 1]))


@pytest.mark.parametrize(
    "m",
    [
        random_full_rank_matrix(random.Random(121100), 12, 1100),
        random_full_rank_matrix(random.Random(142100), 14, 2100),
        # every low-row pattern on many columns: multiplicities past 1
        _repeated_columns(random.Random(13700), 13, 700, 3),
        # the lightest word is met where its weight on those columns alone
        # is one below the lightest weight seen before
        _lightest_on_flat_columns(),
    ],
    ids=["12x1100", "14x2100", "13x700x3", "flat-columns"],
)
def test_sliced_walk_with_several_lane_blocks(m):
    # wide enough that the lane vectors are capped below the rank, so the
    # walk steps through the span of the rows left over
    basis = row_basis(m)
    assert _lane_bits(len(basis), m.n) < len(basis)
    assert _sliced_min_weight(basis, m.n) == _table_min_weight(basis)


@pytest.mark.parametrize(
    "r, n", [(12, 2000), (16, 128), (16, 256), (16, 1000), (20, 64)]
)
def test_min_distance_at_crossover_shapes(r, n):
    # near the points where the cheapest search changes, every path agrees
    m = random_full_rank_matrix(random.Random(1000 * r + n), r, n)
    basis = row_basis(m)
    expect = _table_min_weight(basis)
    assert min_distance(m) == expect
    assert _sliced_min_weight(basis, n) == expect


@pytest.mark.parametrize(
    "r, n, seed, dmin", [(20, 256, 20256, 88), (16, 2000, 162000, 894)]
)
def test_min_distance_memory(r, n, seed, dmin):
    # the bit-sliced walk holds at most 1 MiB of lane vectors
    m = random_full_rank_matrix(random.Random(seed), r, n)
    tracemalloc.start()
    try:
        d = min_distance(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
    # 88 is also what the CI step's `so-embed dmin` must print for 20 x 256
    assert d == dmin


@SEARCH_SETTINGS
@given(codes())
# The bound here is met exactly by a codeword not yet seen: stopping one
# step early returns 3 instead of 2.
@example(parse_matrix("00111\n11111\n01011\n11111"))
def test_bz_search_matches_naive(m):
    assert _bz_min_weight(row_basis(m), m.n, math.inf) == naive_min_distance(m)


@SEARCH_SETTINGS
@given(narrow_codes())
def test_bz_search_with_one_information_set(m):
    basis = row_basis(m)
    form, pivots = _systematic_form(basis, (1 << m.n) - 1)
    assert _systematic_form(basis, ((1 << m.n) - 1) & ~pivots) is None
    assert _bz_min_weight(basis, m.n, math.inf) == naive_min_distance(m)


@SEARCH_SETTINGS
@given(codes())
def test_systematic_form_is_identity_on_its_information_set(m):
    basis = row_basis(m)
    form, pivots = _systematic_form(basis, (1 << m.n) - 1)
    assert len(form) == len(basis) and pivots.bit_count() == len(basis)
    assert sorted(row & pivots for row in form) == sorted(
        1 << j for j in range(m.n) if pivots >> j & 1
    )
    assert rank(BinaryMatrix(2 * len(basis), m.n, tuple(form + basis))) == len(basis)


@SEARCH_SETTINGS
@given(codes(max_k=9))
def test_level_min_weight_matches_combinations(m):
    basis = row_basis(m)
    for w in range(1, len(basis) + 1):
        expect = min(reduce(xor, c).bit_count() for c in itertools.combinations(basis, w))
        assert _level_min_weight(basis, w) == expect, w


@SEARCH_SETTINGS
@given(codes())
@example(RANK_12)
def test_weight_distribution_matches_naive(m):
    assert weight_distribution(m) == naive_weight_distribution(m)


def test_min_distance_deep_sized_case():
    # 18 x 64 is one of the benchmark's dmin shapes; 14 is the value of the
    # plain Gray-code walk over all 2**18 codewords.
    m = random_full_rank_matrix(random.Random(18064), 18, 64)
    basis = row_basis(m)
    assert min_distance(m) == 14
    assert _bz_min_weight(basis, m.n, math.inf) == 14
    assert _table_min_weight(basis) == 14
    assert _sliced_min_weight(basis, m.n) == 14
