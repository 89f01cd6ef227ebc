"""Column-profile characterizations against the matrix-level ground truth."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soembed.embedding import embed
from soembed.errors import InvalidPolicyError, WrongDimensionError
from soembed.gf2 import (
    _bits,
    _column_rows,
    _hit_masks,
    gram,
    horizontal_join,
    parse_matrix,
    random_full_rank_matrix,
    random_matrix,
    simplex_matrix,
)
from soembed.profiles import (
    CLASS7_MASKS,
    CLASS8_MASKS,
    ColumnProfile,
    _class_flips,
    _dim4_projected_counts,
    _gram_mask,
    _is_so_columns,
    _pair_families,
    _parity_flips,
    _profile_weights,
    _parity_kernel_basis,
    _so_parity_masks,
    _split_count,
    _sym_masks,
    column_profile,
    is_so_dim_check,
    is_so_profile,
    matrix_from_profile,
    so_verdicts,
)

G_10_3 = parse_matrix("0000111111\n0111001111\n1011010001")
TG_10_3 = parse_matrix("00001111110\n01110011111\n10110100011")
G_5_4 = parse_matrix("00011\n00101\n01001\n10001")


def test_column_profile_examples():
    prof = column_profile(G_10_3)
    assert prof.counts == {1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 3, 7: 1}
    assert prof.ell == (1, 1, 2, 1, 1, 3, 1)
    assert prof.zero_count == 0
    assert prof.n == 10

    h4 = simplex_matrix(4)
    assert column_profile(h4).ell == (1,) * 15

    prof54 = column_profile(G_5_4)
    assert {i for i in range(1, 16) if prof54.count(i)} == {1, 2, 4, 8, 15}


# Peak traced memory of column_profile.  At 11 x 40,000 the columns are
# split with at most k + 1 masks alive; at 20 x 256 and 20 x 40,000 they
# are read off the rows' bit strings, and the profile keeps one entry per
# column that occurs: 0.04 and 7.6 MiB at peak.  A dense table of 2**20
# counts alone takes 8 MiB, and a counter holding every column pattern's
# n-bit mask at once peaks at 10.3 and 114 MiB at 11 and 20 x 40,000.
@pytest.mark.parametrize(
    "k, n, cap_mib", [(11, 40_000, 1), (20, 256, 1), (20, 40_000, 16)]
)
def test_column_profile_peak_memory(k, n, cap_mib):
    m = random_matrix(random.Random(k), k, n)
    tracemalloc.start()
    try:
        prof = column_profile(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.n == n
    assert peak <= cap_mib << 20, f"{peak / 2**20:.1f} MiB"


def test_is_so_profile_examples():
    assert not is_so_profile(G_10_3)
    assert is_so_profile(TG_10_3)
    for k in range(2, 9):
        doubled = horizontal_join(simplex_matrix(k), range(1, 1 << k))
        assert is_so_profile(doubled)


@pytest.mark.parametrize("k", [12, 16, 20, 24])
def test_column_test_agrees_with_gram_at_large_k(k):
    # an embedding's columns mostly occur once, so the column test reads
    # the pairwise parities of nearly all of them; one more nonzero column
    # adds its nonzero outer product to the Gram matrix
    rng = random.Random(k)
    so = embed(random_full_rank_matrix(rng, k, 4 * k)).output
    broken = horizontal_join(so, [rng.randrange(1, 1 << k)])
    for m, expected in ((so, True), (broken, False)):
        p = column_profile(m)
        assert 2 * len(p.odd_indices()) > m.n
        assert is_so_profile(m) == gram(m).is_zero() == expected
        assert so_verdicts(m, p) == {"gram_zero": expected, "column_test": expected}


def test_is_so_dim_check_k2():
    assert not is_so_dim_check(ColumnProfile(2, {1: 3, 2: 3, 3: 1}, 0))
    assert is_so_dim_check(ColumnProfile(2, {}, 5))
    assert is_so_dim_check(ColumnProfile(2, {1: 4, 2: 4, 3: 2}, 0))


def test_is_so_dim_check_k3():
    all_odd = {1: 1, 2: 1, 3: 3, 4: 1, 5: 1, 6: 3, 7: 1}
    assert is_so_dim_check(ColumnProfile(3, all_odd, 0))
    assert not is_so_dim_check(ColumnProfile(3, {**all_odd, 3: 2}, 0))
    assert is_so_dim_check(ColumnProfile(3, dict.fromkeys(range(1, 8), 2), 0))


def test_is_so_dim_check_k4():
    ext_hamming = dict.fromkeys([1, 2, 4, 7, 8, 11, 13, 14], 1)
    assert is_so_dim_check(ColumnProfile(4, ext_hamming, 0))
    assert not is_so_dim_check(column_profile(G_5_4))
    assert is_so_dim_check(ColumnProfile(4, {1: 2, 3: 4}, 0))


def test_is_so_dim_check_refuses_other_dimensions():
    for k in (1, 5):
        with pytest.raises(WrongDimensionError):
            is_so_dim_check(ColumnProfile(k, dict.fromkeys(range(1, 1 << k), 1), 0))


def test_parity_flips_exhaustive_against_parity_kernel():
    """For k <= 4 and every parity pattern, the rule's flips reach a
    self-orthogonal pattern with the fewest flips, and flip nothing exactly
    on self-orthogonal patterns: the shortest embedding, by exhaustion.
    At k = 4 every minimizing split is checked, with both tie rules."""
    for k in range(1, 5):
        so_masks = _so_parity_masks(k)
        for odd in range(0, 1 << (1 << k), 2):  # bit 0, the zero column, clear
            fewest = min((odd ^ so).bit_count() for so in so_masks)
            rules = [_parity_flips(odd, k)]
            if k == 4:
                totals = _dim4_projected_counts(odd)
                rules += [
                    _parity_flips(odd, k, s, tie)
                    for s in range(1, 16)
                    if totals[s - 1] == fewest
                    for tie in (True, False)
                ]
            for flips in rules:
                union = 0
                for mask in flips:
                    assert not union & mask  # one mask per class, disjoint
                    union |= mask
                assert odd ^ union in so_masks
                assert union.bit_count() == fewest
            one_copy = ColumnProfile(k, dict.fromkeys(_bits(odd), 1), 0)
            assert (not any(rules[0])) == _is_so_columns(one_copy)


def test_tables_structure():
    for c7, c8 in zip(CLASS7_MASKS, CLASS8_MASKS):
        assert c7.bit_count() == 7 and c8.bit_count() == 8
        assert c7 | c8 == 0xFFFE and not c7 & c8  # a partition of 1..15
    for s in range(1, 16):
        small, large = _pair_families(s)
        assert len(small) == 3 and len(large) == 4
        if s <= 7:
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


def sigma_symmetry(
    class7: tuple[int, ...], class8: tuple[int, ...]
) -> dict[tuple[int, int], int] | None:
    """Check that relabeling by any split's sorted classes permutes the family.

    For each s, the permutation sending (sorted 7-class, sorted 8-class)
    onto (1..15) must map every class pair (s', t) onto some class pair
    (j, t) of the same family.  Returns the witness map (s, i) -> j, or
    None if the family is not closed.
    """
    witness: dict[tuple[int, int], int] = {}
    pair_lookup = {pair: j for j, pair in enumerate(zip(class7, class8), start=1)}
    for s in range(1, 16):
        order = _bits(class7[s - 1]) + _bits(class8[s - 1])
        if sorted(order) != list(range(1, 16)):
            return None
        sigma = {v: pos + 1 for pos, v in enumerate(order)}

        def image(mask: int) -> int:
            return sum(1 << sigma[x] for x in _bits(mask))

        for i in range(1, 16):
            j = pair_lookup.get((image(class7[i - 1]), image(class8[i - 1])))
            if j is None:
                return None
            witness[(s, i)] = j
    return witness


def test_sigma_symmetry_witness():
    witness = sigma_symmetry(CLASS7_MASKS, CLASS8_MASKS)
    assert witness is not None
    assert all(witness[(1, i)] == i for i in range(1, 16))
    assert all(witness[(s, s)] == 1 for s in range(1, 16))


def test_sigma_symmetry_rejects_corruption():
    class7 = list(CLASS7_MASKS)
    class7[0], class7[1] = class7[1], class7[0]
    assert sigma_symmetry(tuple(class7), CLASS8_MASKS) is None


def test_parity_flips_refuses_non_minimizing_split():
    # seven of the 8-class of split 15 odd: that split alone flips just one
    odd = sum(1 << i for i in (1, 2, 4, 7, 8, 11, 13))
    assert _dim4_projected_counts(odd) == [6, 6, 7, 6, 7, 7, 6, 7, 6, 6, 7, 6, 7, 7, 1]
    with pytest.raises(InvalidPolicyError, match="^s0=1 appends 6 columns, minimum is 1$"):
        _parity_flips(odd, 4, 1)
    assert _parity_flips(odd, 4, 15) == _parity_flips(odd, 4)


def test_split_count_matches_projected_counts():
    # the per-split rule the claims414 sweep refutes with, on every odd mask
    for odd in range(0, 1 << 16, 2):
        assert _dim4_projected_counts(odd) == [
            _split_count((odd & m7).bit_count(), (odd & m8).bit_count())
            for m7, m8 in zip(CLASS7_MASKS, CLASS8_MASKS)
        ]


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
        shuffled = BinaryMatrix(k, n, tuple(
            sum((r >> j & 1) << t for t, j in enumerate(perm)) for r in m.rows
        ))
        assert column_profile(shuffled).ell == column_profile(m).ell
        padded = horizontal_join(m, [0])
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
    counts = {i: c for i, c in enumerate(ell, start=1) if c}
    return ColumnProfile(k, counts, draw(st.integers(0, 2)))


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
    assert odd == sum(1 << i for i, c in enumerate(p.ell, start=1) if c & 1)
    syndrome = 0
    for i in range(1, 1 << k):
        if odd >> i & 1:
            syndrome ^= _sym_masks(k)[i]
    assert _gram_mask(m.rows) == syndrome
    assert _gram_mask(_column_rows(k, p.odd_indices())) == syndrome
    # codewords x, y meet in (t[x] + t[y] - t[x ^ y]) / 2 positions
    meets_evenly = all(
        (t[x] + t[y] - t[x ^ y]) % 4 == 0 for x in range(1 << k) for y in range(1 << k)
    )
    assert (syndrome == 0) == meets_evenly
    assert _is_so_columns(p) == meets_evenly
    assert meets_evenly == gram(m).is_zero()


# ---------------------------------------------------------------------------
# the incidence tables, derived from the GF(2) primitives, against the
# loops that wrote their rules out by hand, and against the tuples those
# loops built (sha256 of their repr)


def ref_sym_mask(col_bits, k):
    """The outer product of a column with itself, bit k - 1 - i being row
    i's entry, packed pair (i, j), i <= j, by pair, row-major."""
    acc = 0
    pos = 0
    for i in range(k):
        bi = (col_bits >> (k - 1 - i)) & 1
        for j in range(i, k):
            bj = (col_bits >> (k - 1 - j)) & 1
            acc |= (bi & bj) << pos
            pos += 1
    return acc


def test_hit_masks_match_popcount_definition():
    for k in range(1, 9):
        assert _hit_masks(k) == tuple(
            sum(1 << x for x in range(1 << k) if (x & i).bit_count() & 1)
            for i in range(1 << k)
        )


def test_sym_mask_matches_double_loop():
    for k in range(1, 9):
        for c in range(1 << k):
            assert _sym_masks(k)[c] == ref_sym_mask(c, k)


PARITY_KERNEL_SHA256 = {
    1: "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    2: "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    3: "16293d8cad58a78eb7fe6204e96552ea66ad268939af9c03ed8975a8c065a488",
    4: "e2c89ba6968032cbb604c8314ef0578e67376f0000743bfc609f051fa1d1c4ef",
    5: "d3178fead5e39fa87cc905a87a188c5599485750c56027f9c79516bf1346aa2b",
    6: "e6d31c6c3aff597f0d862f69e204436d9fd64be8ae5d2f068b40c83295982afe",
    7: "b36e21b1d7bfa7bbf8657eab3731562c9407d4510f56f60f62351e18969f7a3d",
    8: "1dedd86d0a69ce8ea6597660a8995bcca25b0e7bc66248d5e18f46acc567d5e4",
}
SO_PARITY_SHA256 = {
    1: "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    2: "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    3: "962530b4fb960318b533f14a156ce901fb240c644aabdcb6d4956a7c825653e0",
    4: "0a20e9c107dd948cf6196fa77b260ec63045dda2beb754bec41142b556e1f67d",
    5: "8d559cd204eb84619c32d795010ad028679c086b31c912e9b4276cfff670a83f",
}


def _sha256(table):
    return hashlib.sha256(repr(table).encode()).hexdigest()


@pytest.mark.parametrize("k", sorted(PARITY_KERNEL_SHA256))
def test_parity_kernel_basis_pinned(k):
    assert _sha256(_parity_kernel_basis(k)) == PARITY_KERNEL_SHA256[k]


@pytest.mark.parametrize("k", sorted(SO_PARITY_SHA256))
def test_so_parity_masks_pinned(k):
    assert _sha256(_so_parity_masks(k)) == SO_PARITY_SHA256[k]
