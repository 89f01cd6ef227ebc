"""Brute-force oracles: worked values, cross-checks, determinism."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soembed.cli import main
from soembed.errors import CapExceededError, DomainError, NoSOCodeError
from soembed.gf2 import (
    BinaryMatrix,
    gram,
    horizontal_join,
    min_distance,
    parse_matrix,
    random_full_rank_matrix,
    rank,
    simplex_matrix,
)
from soembed.distances import d_opt, dso_opt
from soembed.oracle import (
    EnumerationResult,
    _coset_leaders,
    enumerate_codes_by_profile,
    min_embedding_oracle,
    random_so_search,
    verify_claims_prop414,
)
from soembed.embedding import _dim4_projected_counts
from soembed.profiles import (
    ColumnProfile,
    _gram_mask,
    _is_so_odd_mask,
    _profile_weights,
    _so_parity_masks,
    _sym_mask,
    matrix_from_profile,
)


def test_min_embedding_examples():
    g103 = parse_matrix("0000111111\n0111001111\n1011010001")
    assert min_embedding_oracle(g103) == 1
    assert min_embedding_oracle(parse_matrix("011\n101")) == 3
    assert min_embedding_oracle(simplex_matrix(3)) == 0


def test_min_embedding_caps():
    with pytest.raises(CapExceededError):
        min_embedding_oracle(simplex_matrix(7))
    with pytest.raises(CapExceededError):
        min_embedding_oracle(simplex_matrix(3), max_add=9)
    # refused even where the answer would be 0 columns
    with pytest.raises(DomainError):
        min_embedding_oracle(simplex_matrix(3), max_add=-1)


def test_min_embedding_negative_max_add_cli(tmp_path, capsys):
    p = tmp_path / "so.txt"
    p.write_text(simplex_matrix(3).to_text())
    assert main(["oracle", "min-embed", str(p), "--max-add", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_add >= 0" in captured.err


# ---------------------------------------------------------------------------
# the syndrome search against independent answers

ORACLE_SETTINGS = settings(max_examples=60, deadline=None)
# Six rows of even weight whose Gram matrix is alternating of rank 6:
# Lempel's count is 6 + 1, the most any k = 6 input needs.
NEEDS_SEVEN = parse_matrix(
    "110000000\n011000000\n000110000\n000011000\n000000110\n000000011"
)


@st.composite
def small_matrices(draw, max_k):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    return BinaryMatrix(k, n, tuple(rows))


def ref_min_embedding(m, max_add):
    """The multiset loop the syndrome search replaced, one multiset at a time."""
    target = _gram_mask(m)
    if target == 0:
        return 0
    ncols = (1 << m.k) - 1
    masks = [0] + [_sym_mask(i, m.k) for i in range(1, ncols + 1)]
    for size in range(1, max_add + 1):
        for combo in itertools.combinations_with_replacement(
            range(1, ncols + 1), size
        ):
            acc = 0
            for i in combo:
                acc ^= masks[i]
            if acc == target:
                return size
    return None


def lempel_count(m):
    """rank(S) for the Gram matrix S, plus 1 when S != 0 has a zero diagonal."""
    s = gram(m)
    zero_diagonal = all(r.bit_count() % 2 == 0 for r in m.rows)
    return rank(s) + (zero_diagonal and not s.is_zero())


@ORACLE_SETTINGS
@given(small_matrices(max_k=4), st.integers(0, 4))
def test_min_embedding_matches_multiset_loop(m, max_add):
    assert min_embedding_oracle(m, max_add) == ref_min_embedding(m, max_add)


@ORACLE_SETTINGS
@given(small_matrices(max_k=5), st.integers(0, 8))
def test_min_embedding_matches_coset_leaders(m, max_add):
    need = _coset_leaders(m.k)[_gram_mask(m)].bit_count()
    expected = need if need <= max_add else None
    assert min_embedding_oracle(m, max_add) == expected


@ORACLE_SETTINGS
@given(small_matrices(max_k=6))
def test_min_embedding_matches_lempel(m):
    assert min_embedding_oracle(m) == lempel_count(m)


def test_min_embedding_needs_seven_at_k6():
    assert lempel_count(NEEDS_SEVEN) == 7
    assert min_embedding_oracle(NEEDS_SEVEN) == 7
    assert min_embedding_oracle(NEEDS_SEVEN, max_add=6) is None


def test_min_embedding_not_found():
    # an odd-weight row needs one column; capping at zero forces None
    m = parse_matrix("111")
    assert min_embedding_oracle(m, max_add=0) is None


def test_min_embedding_column_permutation_invariant():
    rng = random.Random(19)
    for _ in range(40):
        k = rng.randint(2, 4)
        n = rng.randint(k, 10)
        m = random_full_rank_matrix(rng, k, n)
        perm = list(range(n))
        rng.shuffle(perm)
        empty = BinaryMatrix(k, 0, (0,) * k)
        shuffled = horizontal_join(empty, [m.column(j) for j in perm])
        assert min_embedding_oracle(m) == min_embedding_oracle(shuffled)


def test_enumerate_examples():
    assert enumerate_codes_by_profile(10, 2, True).distance == 6
    assert enumerate_codes_by_profile(12, 3, True).distance == 6
    with pytest.raises(NoSOCodeError):
        enumerate_codes_by_profile(7, 4, True)


def test_enumerate_witness_realizes_distance():
    for n, k, so in [(10, 2, True), (12, 3, True), (9, 3, False), (11, 4, True)]:
        result = enumerate_codes_by_profile(n, k, so)
        m = matrix_from_profile(result.witness)
        assert m.n == n and rank(m) == k
        assert min_distance(m) == result.distance
        if so:
            assert gram(m).is_zero()


def test_enumerate_matches_naive():
    for k in (1, 2, 3):
        for n in range(k, 8):
            for so in (False, True):
                try:
                    fast = enumerate_codes_by_profile(n, k, so)
                except NoSOCodeError:
                    with pytest.raises(NoSOCodeError):
                        enumerate_codes_naive(n, k, so)
                    continue
                naive = enumerate_codes_naive(n, k, so)
                assert fast.distance == naive.distance, (n, k, so)
    fast = enumerate_codes_by_profile(8, 4, True)
    naive = enumerate_codes_naive(8, 4, True)
    assert fast.distance == naive.distance


def enumerate_codes_naive(n, k, so_only=False):
    """Reference implementation: literally iterate every composition.

    Only usable for small spaces; cross-checks the pruned search.  The
    parity test comes before the weights, which it is much cheaper than.
    """
    best = None
    for ell in _compositions_at_most(n, (1 << k) - 1):
        if so_only and not _is_so_odd_mask(k, ColumnProfile(k, ell, 0).parity_mask()):
            continue
        dmin = min(_profile_weights(k, (0, *ell))[1:])
        if dmin == 0:
            continue
        if best is None or dmin > best[0]:
            best = (dmin, ColumnProfile(k, ell, n - sum(ell)))
    if best is None:
        kind = "self-orthogonal " if so_only else ""
        raise NoSOCodeError(f"no rank-{k} {kind}code of length {n} exists")
    return EnumerationResult(best[0], best[1])


def _compositions_at_most(total, parts):
    """All nonnegative integer vectors of given length with sum <= total."""
    if parts == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _compositions_at_most(total - head, parts - 1):
            yield (head,) + tail


@pytest.mark.parametrize("n", [384, 401])
@pytest.mark.parametrize("so", [False, True])
def test_enumerate_k2_past_distance_256(n, so):
    # distances of 256 and more: the memo key must hold each weight, capped
    # at d, in full
    result = enumerate_codes_by_profile(n, 2, so)
    assert result.distance == (dso_opt if so else d_opt)(n, 2).value
    assert result.distance >= 256


@pytest.mark.parametrize("k, count", [(1, 1), (2, 1), (3, 2), (4, 32)])
def test_so_parity_masks_match_scan(k, count):
    # every parity mask over indices 1 .. 2**k - 1 (bit 0 stays clear)
    scan = [m for m in range(0, 1 << (1 << k), 2) if _is_so_odd_mask(k, m)]
    assert list(_so_parity_masks(k)) == scan
    assert len(scan) == count


def test_enumerate_caps():
    with pytest.raises(CapExceededError):
        enumerate_codes_by_profile(40, 4, False)
    with pytest.raises(DomainError):
        enumerate_codes_by_profile(10, 5, False)


def test_claims_sweep():
    result = verify_claims_prop414()
    assert result.count1 == 2450
    assert result.count2 == 3430
    assert result.max1 <= 5
    assert result.max2 <= 5


def test_claims_all_odd_pattern():
    # every index of the 7-class odd: flipping the even side costs nothing
    j1 = sum(1 << i for i in range(1, 8))
    totals = _dim4_projected_counts(j1)
    assert min(totals) == 0
    assert totals[0] == 0


def test_random_search_deterministic():
    a = random_so_search(12, 3, 50, rng_seed=5)
    b = random_so_search(12, 3, 50, rng_seed=5)
    assert a == b


@pytest.mark.parametrize("trials", [0, -4])
def test_random_search_needs_trials(trials):
    with pytest.raises(DomainError):
        random_so_search(5, 3, trials, rng_seed=1)


def test_random_search_finds_small():
    assert random_so_search(6, 3, 1000, target_d=2, rng_seed=2) >= 2


def test_random_search_nonexistent():
    assert random_so_search(7, 4, 2000, rng_seed=1) == 0


def test_random_search_reaches_known_optimum():
    # the best [16,5] self-orthogonal distance is 8
    assert random_so_search(16, 5, 4096, target_d=8, rng_seed=1) == 8


def test_some_optimal_codes_embed_suboptimally():
    # experimental observation: this optimal [6,4,2] code needs three
    # appended columns, and no three-column completion reaches the best
    # [9,4] self-orthogonal distance of 4
    import itertools

    from soembed.gf2 import h_column

    m = parse_matrix("000011\n001100\n110000\n010100")
    assert min_distance(m) == 2
    assert min_embedding_oracle(m) == 3
    best = 0
    for combo in itertools.combinations_with_replacement(range(1, 16), 3):
        ext = horizontal_join(m, [h_column(4, i) for i in combo])
        if gram(ext).is_zero():
            best = max(best, min_distance(ext))
    assert best == 2 < dso_opt(9, 4).value
