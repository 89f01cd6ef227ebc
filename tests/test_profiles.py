"""Column-profile characterizations against the matrix-level ground truth."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soembed.errors import WrongDimensionError
from soembed.gf2 import (
    gram,
    horizontal_join,
    parse_matrix,
    random_matrix,
    simplex_matrix,
)
from soembed.profiles import (
    ColumnProfile,
    _gram_mask,
    _is_so_odd_mask,
    _profile_weights,
    _so_parity_masks,
    _sym_masks,
    column_profile,
    is_so_dim2,
    is_so_dim3,
    is_so_dim4,
    is_so_dim_check,
    is_so_profile,
    matrix_from_profile,
)
from soembed.tables import (
    CLASS7_MASKS,
    CLASS8_MASKS,
    _class_flips,
    _pair_families,
    validate_tables,
    verify_sigma_symmetry,
)

G_10_3 = parse_matrix("0000111111\n0111001111\n1011010001")
TG_10_3 = parse_matrix("00001111110\n01110011111\n10110100011")
G_5_4 = parse_matrix("00011\n00101\n01001\n10001")


def test_column_profile_examples():
    prof = column_profile(G_10_3)
    assert prof.ell == (1, 1, 2, 1, 1, 3, 1)
    assert prof.zero_count == 0
    assert prof.n == 10

    h4 = simplex_matrix(4)
    assert column_profile(h4).ell == (1,) * 15

    prof54 = column_profile(G_5_4)
    assert {i for i in range(1, 16) if prof54.count(i)} == {1, 2, 4, 8, 15}


def test_is_so_profile_examples():
    assert not is_so_profile(G_10_3)
    assert is_so_profile(TG_10_3)
    for k in range(2, 9):
        hk = simplex_matrix(k)
        doubled = horizontal_join(hk, [hk.column(j) for j in range(hk.n)])
        assert is_so_profile(doubled)


def test_is_so_dim2():
    assert not is_so_dim2(ColumnProfile(2, (3, 3, 1), 0))
    assert is_so_dim2(ColumnProfile(2, (0, 0, 0), 5))
    assert is_so_dim2(ColumnProfile(2, (4, 4, 2), 0))
    with pytest.raises(WrongDimensionError):
        is_so_dim2(column_profile(G_10_3))


def test_is_so_dim3():
    assert is_so_dim3(ColumnProfile(3, (1, 1, 3, 1, 1, 3, 1), 0))
    assert not is_so_dim3(ColumnProfile(3, (1, 1, 2, 1, 1, 3, 1), 0))
    assert is_so_dim3(ColumnProfile(3, (2,) * 7, 0))


def test_is_so_dim4():
    ext_hamming = [1 if i in {1, 2, 4, 7, 8, 11, 13, 14} else 0 for i in range(1, 16)]
    assert is_so_dim4(ColumnProfile(4, tuple(ext_hamming), 0))
    assert not is_so_dim4(column_profile(G_5_4))
    assert is_so_dim4(ColumnProfile(4, (2, 0, 4) + (0,) * 12, 0))


def test_tables_structure():
    for c7, c8 in zip(CLASS7_MASKS, CLASS8_MASKS):
        assert c7.bit_count() == 7 and c8.bit_count() == 8
        assert c7 | c8 == 0xFFFE and not c7 & c8  # a partition of 1..15
    for s in range(1, 8):
        small, _ = _pair_families(s)
        appearing = {x for p in small for x in p}
        assert appearing == frozenset(range(1, 8)) - {s}


def test_pair_coverage_of_large_indices():
    import itertools

    covered = {
        frozenset(p)
        for s in range(1, 8)
        for p in _pair_families(s)[1]
    }
    for pair in itertools.combinations(range(8, 16), 2):
        assert frozenset(pair) in covered


def test_sigma_symmetry_witness():
    witness = verify_sigma_symmetry()
    assert witness is not None
    assert all(witness[(1, i)] == i for i in range(1, 16))
    assert all(witness[(s, s)] == 1 for s in range(1, 16))


def test_sigma_symmetry_rejects_corruption():
    class7 = list(CLASS7_MASKS)
    class7[0], class7[1] = class7[1], class7[0]
    broken = (tuple(class7), CLASS8_MASKS)
    assert verify_sigma_symmetry(*broken) is None
    with pytest.raises(AssertionError):
        validate_tables(*broken)


def test_class_flips_dim3_matches_inline_rule():
    full = 0b11111110  # indices 1..7; bit 0 (zero columns) never counts
    for mask in range(1 << 8):
        odd = mask & full
        expected = odd if odd.bit_count() < 4 else full ^ odd
        assert _class_flips(mask, full) == expected
        assert (not _class_flips(mask, full)) == (odd in (0, full))


def test_class_flips_dim4_matches_inline_rule():
    for mask7, mask8 in zip(CLASS7_MASKS, CLASS8_MASKS):
        for odd in range(0, 1 << 16, 2):
            odd7 = odd & mask7
            odd8 = odd & mask8
            flip7 = odd7 if odd7.bit_count() < 4 else mask7 ^ odd7
            assert _class_flips(odd, mask7) == flip7
            for intersect in (True, False):
                c8 = odd8.bit_count()
                if c8 < 4 or c8 == 4 and intersect:
                    flip8 = odd8
                else:
                    flip8 = mask8 ^ odd8
                assert _class_flips(odd, mask8, intersect) == flip8


def test_profile_vs_gram_random():
    rng = random.Random(42)
    for _ in range(800):
        k = rng.randint(2, 8)
        n = rng.randint(1, 40)
        m = random_matrix(rng, k, n)
        assert is_so_profile(m) == gram(m).is_zero()
        if k <= 4:
            assert is_so_dim_check(column_profile(m)) == is_so_profile(m)


def test_profile_invariance():
    from soembed.gf2 import BinaryMatrix

    rng = random.Random(9)
    for _ in range(100):
        k = rng.randint(2, 4)
        n = rng.randint(2, 20)
        m = random_matrix(rng, k, n)
        perm = list(range(n))
        rng.shuffle(perm)
        empty = BinaryMatrix(k, 0, (0,) * k)
        shuffled = horizontal_join(empty, [m.column(j) for j in perm])
        assert column_profile(shuffled).ell == column_profile(m).ell
        padded = horizontal_join(m, [(0,) * k])
        before = is_so_dim_check(column_profile(m))
        assert is_so_dim_check(column_profile(padded)) == before
        assert column_profile(padded).zero_count == column_profile(m).zero_count + 1


# ---------------------------------------------------------------------------
# the column-multiset algebra against the matrix it describes


@st.composite
def small_profiles(draw):
    k = draw(st.integers(1, 5))
    ncols = (1 << k) - 1
    ell = draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
    if draw(st.booleans()):
        # move the parities onto a self-orthogonal pattern
        odd = draw(st.sampled_from(_so_parity_masks(k)))
        ell = [c & ~1 | odd >> i & 1 for i, c in enumerate(ell, start=1)]
    return ColumnProfile(k, tuple(ell), draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(small_profiles())
def test_multiset_algebra_agrees_with_matrix(p):
    k = p.k
    m = matrix_from_profile(p)
    assert column_profile(m) == p
    t = _profile_weights(k, (p.zero_count, *p.ell))
    assert t[0] == 0
    for x in range(1, 1 << k):
        word = 0
        for r in range(k):  # message bit k - 1 - r selects row r
            if x >> (k - 1 - r) & 1:
                word ^= m.rows[r]
        assert t[x] == word.bit_count()
    odd = p.parity_mask()
    syndrome = 0
    for i in range(1, 1 << k):
        if odd >> i & 1:
            syndrome ^= _sym_masks(k)[i]
    assert _gram_mask(m) == syndrome
    # codewords x, y meet in (t[x] + t[y] - t[x ^ y]) / 2 positions
    meets_evenly = all(
        (t[x] + t[y] - t[x ^ y]) % 4 == 0 for x in range(1 << k) for y in range(1 << k)
    )
    assert _is_so_odd_mask(k, odd) == (syndrome == 0) == meets_evenly
    assert meets_evenly == gram(m).is_zero()
