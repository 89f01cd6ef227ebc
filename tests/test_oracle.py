"""Brute-force oracles: worked values, cross-checks, determinism."""

import ast
import functools
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soembed.cli import main
from soembed.errors import CapExceededError, DomainError, NoSOCodeError
from soembed.gf2 import (
    BinaryMatrix,
    _bits,
    _column_rows,
    _hit_masks,
    gram,
    horizontal_join,
    min_distance,
    parse_matrix,
    random_full_rank_matrix,
    rank,
    simplex_matrix,
)
from soembed import oracle
from soembed.distances import d_opt, dso_opt, griesmer_g
from soembed.oracle import (
    ORACLE_ADD_CAP,
    PROFILE_SPACE_CAP,
    Claims414,
    EnumerationResult,
    _coset_leaders,
    _feasible,
    _griesmer_length,
    _improving_move,
    _parity_orbit_leaders,
    _search_profile,
    enumerate_codes_by_profile,
    min_embedding_oracle,
    random_so_profile_search,
    random_so_search,
    verify_claims_prop414,
)
from soembed.profiles import (
    CLASS7_MASKS,
    CLASS8_MASKS,
    ColumnProfile,
    _add_column,
    _dim4_projected_counts,
    _gram_mask,
    _hit_vectors,
    _profile_weights,
    _so_parity_masks,
    _sym_masks,
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
    target = _gram_mask(m.rows)
    if target == 0:
        return 0
    ncols = (1 << m.k) - 1
    masks = _sym_masks(m.k)
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
    need = _coset_leaders(m.k)[_gram_mask(m.rows)].bit_count()
    expected = need if need <= max_add else None
    assert min_embedding_oracle(m, max_add) == expected


# sha256 of repr(_coset_leaders(k)), the table greedy starts decode with
COSET_LEADERS_SHA256 = {
    1: "1f64673779413bef9a029dc55b8d5d14cb3039370b90148a649a5baa4584a2b2",
    2: "9195a84e3093844f5a983bd030019f20bb0c4924ee450d3a522177987be5da05",
    3: "8a78f130ef3be996bc77003ce543631e54bd509176ce0698c069cc11340856c8",
    4: "3e69dcf476c1255454cd5f6107e4d87257d4ec265951c45e7db7befd7e47dbfa",
    5: "7be1eea6fe70284f7e875e84884edb94d3f84241a2c723c196842c1467a221a3",
}


@pytest.mark.parametrize("k", sorted(COSET_LEADERS_SHA256))
def test_coset_leaders_pinned(k):
    digest = hashlib.sha256(repr(_coset_leaders(k)).encode()).hexdigest()
    assert digest == COSET_LEADERS_SHA256[k]


@ORACLE_SETTINGS
@given(small_matrices(max_k=6))
def test_min_embedding_matches_lempel(m):
    assert min_embedding_oracle(m) == lempel_count(m)


def test_min_embedding_needs_seven_at_k6():
    assert lempel_count(NEEDS_SEVEN) == 7
    assert min_embedding_oracle(NEEDS_SEVEN) == 7
    assert min_embedding_oracle(NEEDS_SEVEN, max_add=6) is None


def leader_matrix(k, syn):
    """The matrix whose columns are the indices of syndrome syn's coset
    leader, a least set found by the full breadth-first search."""
    cols = [i for i in range(1, 1 << k) if _coset_leaders(k)[syn] >> i & 1]
    m = BinaryMatrix(k, len(cols), tuple(_column_rows(k, cols)))
    assert _gram_mask(m.rows) == syn
    return m, len(cols)


def assert_min_embedding_every_cap(k, syndromes):
    # caps 0..8 sit on both sides of every odd/even boundary and of rank(S)
    for syn in syndromes:
        m, need = leader_matrix(k, syn)
        for max_add in range(ORACLE_ADD_CAP + 1):
            expected = need if need <= max_add else None
            assert min_embedding_oracle(m, max_add) == expected, (syn, max_add)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_min_embedding_every_syndrome(k):
    assert_min_embedding_every_cap(k, range(1 << (k * (k + 1) // 2)))


def test_min_embedding_k5_syndromes():
    leaders = _coset_leaders(5)
    near = [syn for syn, lead in enumerate(leaders) if lead.bit_count() <= 2]
    assert len(near) == 1 + 31 + 465
    sample = random.Random(29).sample(range(len(leaders)), 320)
    assert {leaders[syn].bit_count() for syn in sample} >= {3, 4, 5}
    assert_min_embedding_every_cap(5, near + sample)


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
        shuffled = BinaryMatrix(k, n, tuple(
            sum((r >> j & 1) << t for t, j in enumerate(perm)) for r in m.rows
        ))
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


@functools.cache
def ref_outer_products(k):
    """Per column index c, bit by bit: bit (i, j) of the pairs i <= j,
    row-major, is set when c has a 1 on rows i and j (bit k - 1 - i of c
    is its entry in row i)."""
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    return tuple(
        sum(
            1 << pos
            for pos, (i, j) in enumerate(pairs)
            if c >> (k - 1 - i) & c >> (k - 1 - j) & 1
        )
        for c in range(1 << k)
    )


def ref_is_so_parity(k, ell):
    """Whether ell[i - 1] columns of each index i give a zero Gram matrix:
    the outer products of the odd-multiplicity columns XOR to zero."""
    outer = ref_outer_products(k)
    syndrome = 0
    for i, c in enumerate(ell, start=1):
        if c & 1:
            syndrome ^= outer[i]
    return syndrome == 0


def enumerate_codes_naive(n, k, so_only=False):
    """Reference implementation: literally iterate every composition.

    Only usable for small spaces; cross-checks the pruned search.  The
    parity test comes before the weights, which it is much cheaper than.
    """
    best = None
    for ell in _compositions_at_most(n, (1 << k) - 1):
        if so_only and not ref_is_so_parity(k, ell):
            continue
        dmin = min(_profile_weights(k, (0, *ell))[1:])
        if dmin == 0:
            continue
        if best is None or dmin > best[0]:
            best = (dmin, dense_profile(k, ell, n - sum(ell)))
    if best is None:
        kind = "self-orthogonal " if so_only else ""
        raise NoSOCodeError(f"no rank-{k} {kind}code of length {n} exists")
    return EnumerationResult(best[0], best[1])


def dense_profile(k, ell, zero_count):
    """The profile whose index i has ell[i - 1] columns."""
    return ColumnProfile(k, {i: c for i, c in enumerate(ell, 1) if c}, zero_count)


def _compositions_at_most(total, parts):
    """All nonnegative integer vectors of given length with sum <= total."""
    if parts == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _compositions_at_most(total - head, parts - 1):
            yield (head,) + tail


def ref_feasible(d, budget, step, base_t, k):
    """The loop _feasible bounds, unbounded: every v in 0 .. rem, each
    child rejecting itself with its own coverage and worst-gap tests."""
    hits = _hit_masks(k)
    vecs = _hit_vectors(k)
    half = 1 << (k - 1)
    ncols = len(hits) - 1
    coverage = [0] * (ncols + 2)
    for i in range(1, ncols + 1):
        coverage[i] = coverage[i - 1] | hits[i]
    failed = set()

    def walk(i, rem, t):
        deficit = worst = needed_mask = 0
        for x in range(1, ncols + 1):
            gap = d - t[x]
            if gap > 0:
                deficit += gap
                needed_mask |= 1 << x
                worst = max(worst, gap)
        if deficit == 0:
            return [0] * i
        if needed_mask & ~coverage[i]:
            return None
        if worst > step * rem or deficit > step * rem * half:
            return None
        key = (i, rem, tuple(min(v, d) for v in t))
        if key in failed:
            return None
        for v in range(rem + 1):
            if v:
                t = _add_column(t, vecs[i], step)
            sub = walk(i - 1, rem - v, t)
            if sub is not None:
                return sub + [v]
        failed.add(key)
        return None

    return walk(ncols, budget, base_t)


def feasible_queries(k, lengths, linear, so):
    """(d, budget, step, base_t) for every d in 1 .. d_hi + 1 at each n, on
    the linear base and on every self-orthogonal parity base that fits."""
    ncols = (1 << k) - 1
    for n in lengths:
        bases = [(n, 1, [0] * (ncols + 1))] if linear else []
        for bmask in _so_parity_masks(k) if so else ():
            if bmask.bit_count() <= n:
                bits = [bmask >> i & 1 for i in range(ncols + 1)]
                bases.append(((n - sum(bits)) // 2, 2, _profile_weights(k, bits)))
        d_hi = min(n, (n << (k - 1)) // ncols)
        for d in range(1, d_hi + 2):
            for budget, step, base_t in bases:
                yield d, budget, step, base_t


@pytest.mark.parametrize(
    "k, lengths, linear, so",
    [
        (1, range(1, 13), True, True),
        (2, range(1, 13), True, True),
        (3, range(1, 13), True, True),
        (4, range(1, 14), True, True),
        (5, range(1, 5), True, False),
        (5, range(1, 9), False, True),
    ],
)
def test_feasible_bounds_keep_the_first_witness(k, lengths, linear, so):
    # the bounded loop skips only children that fail, so it returns the very
    # unit vector the unbounded loop does, not just one of the same distance
    for d, budget, step, base_t in feasible_queries(k, lengths, linear, so):
        expected = ref_feasible(d, budget, step, base_t, k)
        assert _feasible(d, budget, step, base_t, k) == expected, (k, d, budget, step)


def test_griesmer_skips_only_failing_levels():
    # every level enumerate skips by the Griesmer bound, searched anyway;
    # n stops at 400 where the cap is larger (k <= 2, where nothing is skipped)
    skipped = 0
    for k in (1, 2, 3, 4):
        ncols = (1 << k) - 1
        parities = {False: None, True: _so_parity_masks(k)}
        for n in range(1, 401):
            if math.comb(n + ncols, ncols) > PROFILE_SPACE_CAP:
                break
            d_hi = min(n, (n << (k - 1)) // ncols)
            for d in range(1, d_hi + 1):
                assert _griesmer_length(k, d) == griesmer_g(k, d)
                if _griesmer_length(k, d) <= n:
                    continue
                assert k >= 3  # the average-weight bound is Griesmer's at k <= 2
                skipped += 1
                for so in (False, True):
                    assert _search_profile(n, k, d, parities[so]) is None, (n, k, d, so)
    assert skipped == 11


def test_oracle_imports_nothing_from_distances():
    # the level skip computes its bound locally: the search stays
    # independent of the closed forms it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "distances" not in (node.module or "")
            assert all("distances" not in a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert all("distances" not in a.name for a in node.names)


def gl2_image(k, a_cols, mask):
    """The image of a parity mask under the invertible map A whose column
    j is a_cols[j]: bit c of the mask moves to bit A c."""
    out = 0
    for c in range(1, 1 << k):
        if mask >> c & 1:
            img = 0
            for j in range(k):
                if c >> j & 1:
                    img ^= a_cols[j]
            out |= 1 << img
    return out


@pytest.mark.parametrize("k, orbits", [(1, 1), (2, 1), (3, 2), (4, 4)])
def test_parity_orbits_are_the_gl2_orbits(k, orbits):
    leaders = _parity_orbit_leaders(k)
    assert sorted(leaders) == list(_so_parity_masks(k))
    assert len(set(leaders.values())) == orbits
    for m, lead in leaders.items():
        assert lead <= m and leaders[lead] == lead
    # every invertible A keeps each mask in its orbit, so the flood fill's
    # two generators reach all of GL(k, 2), not a subgroup of it; at k = 4
    # a sample of 200 of its 20,160 elements
    group = [
        a_cols
        for a_cols in itertools.product(range(1, 1 << k), repeat=k)
        if rank(BinaryMatrix(k, k, a_cols)) == k
    ]
    if k == 4:
        group = random.Random(4).sample(group, 200)
    for a_cols in group:
        for m, lead in leaders.items():
            assert leaders[gl2_image(k, a_cols, m)] == lead


@pytest.mark.parametrize("k, lengths", [(3, range(1, 21)), (4, range(1, 14))])
def test_orbit_masks_share_their_verdict(k, lengths):
    # the search skips a mask whose orbit failed at this level: sound only
    # because every mask of an orbit is feasible or none is
    ncols = (1 << k) - 1
    leaders = _parity_orbit_leaders(k)
    for n in lengths:
        d_hi = min(n, (n << (k - 1)) // ncols)
        for d in range(1, d_hi + 2):
            verdicts = {}
            for bmask in _so_parity_masks(k):
                nbase = bmask.bit_count()
                if nbase > n:
                    continue
                bits = [bmask >> i & 1 for i in range(ncols + 1)]
                units = _feasible(d, (n - nbase) // 2, 2, _profile_weights(k, bits), k)
                verdicts.setdefault(leaders[bmask], set()).add(units is not None)
            assert all(len(v) == 1 for v in verdicts.values()), (k, n, d)


@pytest.mark.parametrize("n", [384, 401])
@pytest.mark.parametrize("so", [False, True])
def test_enumerate_k2_past_distance_256(n, so):
    # distances of 256 and more: no weight or gap may be capped at a byte
    result = enumerate_codes_by_profile(n, 2, so)
    assert result.distance == (dso_opt if so else d_opt)(n, 2).value
    assert result.distance >= 256


@pytest.mark.parametrize("k, count", [(1, 1), (2, 1), (3, 2), (4, 32)])
def test_so_parity_masks_match_scan(k, count):
    # every parity mask over indices 1 .. 2**k - 1 (bit 0 stays clear)
    scan = [
        m
        for m in range(0, 1 << (1 << k), 2)
        if ref_is_so_parity(k, [m >> i & 1 for i in range(1, 1 << k)])
    ]
    assert list(_so_parity_masks(k)) == scan
    assert len(scan) == count


def test_enumerate_caps():
    # the refusal names the size of the profile space and the cap
    with pytest.raises(CapExceededError, match=(
        r"^C\(n \+ 2\^k - 1, 2\^k - 1\) = C\(55, 15\) = 11899700525790 "
        r"profiles > PROFILE_SPACE_CAP = 100000000$"
    )):
        enumerate_codes_by_profile(40, 4, False)
    with pytest.raises(DomainError):
        enumerate_codes_by_profile(10, 5, False)


def test_claims_sweep():
    result = verify_claims_prop414()
    assert result.count1 == 2450
    assert result.count2 == 3430
    assert result.max1 == 4
    assert result.max2 == 5


def test_claims_sweep_matches_naive_sweep():
    # every pattern scored on all 15 splits, nothing refuted
    bits7, bits8 = _bits(CLASS7_MASKS[0]), _bits(CLASS8_MASKS[0])

    def naive(size7, size8):
        mins = [
            min(_dim4_projected_counts(sum(1 << i for i in sub7 + sub8)))
            for sub7 in itertools.combinations(bits7, size7)
            for sub8 in itertools.combinations(bits8, size8)
        ]
        return max(mins), len(mins)

    (max1, count1), (w33, c33), (w24, c24) = naive(3, 4), naive(3, 3), naive(2, 4)
    assert verify_claims_prop414() == Claims414(max1, max(w33, w24), count1, c33 + c24)


def test_claims_all_odd_pattern():
    # every index of the 7-class odd: flipping the even side costs nothing
    j1 = sum(1 << i for i in range(1, 8))
    totals = _dim4_projected_counts(j1)
    assert min(totals) == 0
    assert totals[0] == 0


def test_random_search_deterministic():
    a = random_so_profile_search(12, 3, 50, rng_seed=5)
    b = random_so_profile_search(12, 3, 50, rng_seed=5)
    assert a == b
    assert a[1] is not None and a[1].n == 12


# (n, k, trials, seed, target, best, sha256(dense_repr(profile))[:16]): the
# benchmark's verify (k = 5, target dso_opt) and deep (k = 8) searches,
# k = 2, 3, 4, 6, 7 with and without a target, and the benchmark's wide
# (k = 3, target dso_opt) searches; "dc937b59892604f5" is None
RANDOM_SEARCH_PINS = [
    (16, 5, 100, 5016, 8, 6, "942ca819657d7099"),
    (20, 5, 100, 5020, 8, 8, "860dc5392f2278e8"),
    (24, 5, 100, 5024, 12, 10, "9e4f2b86ad9d6103"),
    (28, 5, 100, 5028, 12, 12, "04b67c525d1cc77e"),
    (32, 5, 100, 5032, 16, 16, "90480253adc191a5"),
    (36, 5, 100, 5036, 16, 16, "52b724a221b91e36"),
    (40, 5, 100, 5040, 20, 20, "1a05d947e9aeca6a"),
    (44, 5, 100, 5044, 20, 20, "181d1191785fb962"),
    (48, 5, 100, 5048, 24, 24, "fe136914b8bacaee"),
    (16, 8, 10, 8016, None, 4, "8935a88b6ea2cd36"),
    (18, 8, 10, 8018, None, 4, "ebb7dfb567d14c10"),
    (20, 8, 10, 8020, None, 4, "35f60e7ae5b8d65c"),
    (22, 8, 10, 8022, None, 6, "445099c2a2ce9ba0"),
    (24, 8, 10, 8024, None, 0, "dc937b59892604f5"),
    (26, 8, 10, 8026, None, 8, "b159735c846f2173"),
    (28, 8, 10, 8028, None, 8, "9aeeabf91765c2a1"),
    (30, 8, 10, 8030, None, 0, "dc937b59892604f5"),
    (32, 8, 10, 8032, None, 10, "ef334d63de2df9a9"),
    (10, 2, 50, 1, None, 6, "300e75f4fdc2bd6a"),
    (10, 2, 50, 1, 6, 6, "300e75f4fdc2bd6a"),
    (17, 2, 50, 2, None, 10, "85975b7b5a28af73"),
    (17, 2, 50, 2, 10, 10, "85975b7b5a28af73"),
    (12, 3, 100, 3, None, 6, "f29e15294435a4bb"),
    (12, 3, 100, 3, 6, 6, "f29e15294435a4bb"),
    (21, 3, 100, 4, None, 12, "596e263f2b3d6163"),
    (21, 3, 100, 4, 10, 10, "644d9c1761e09ff6"),
    (12, 4, 100, 5, None, 4, "85d33e7ab89a9b3f"),
    (12, 4, 100, 5, 6, 4, "85d33e7ab89a9b3f"),
    (19, 4, 100, 6, None, 8, "e9190de343c52e17"),
    (19, 4, 100, 6, 8, 8, "99b41197e7e7da99"),
    (24, 6, 30, 7, None, 8, "d03b7be690a5b338"),
    (24, 6, 30, 7, 10, 8, "d03b7be690a5b338"),
    (40, 6, 20, 8, None, 16, "56aafb0513915717"),
    (40, 6, 20, 8, 16, 16, "a9e3d771f2d203cd"),
    (28, 7, 20, 9, None, 10, "1d3b2a5d36adb91f"),
    (28, 7, 20, 9, 12, 10, "1d3b2a5d36adb91f"),
    (48, 7, 10, 10, None, 20, "b60ebfb5d4468e32"),
    (48, 7, 10, 10, 20, 20, "b60ebfb5d4468e32"),
    (100, 3, 100, 3100, 56, 56, "98fa359dc277bf7a"),
    (150, 3, 100, 3150, 84, 84, "9c3ad39b115f081f"),
    (200, 3, 100, 3200, 112, 112, "8917fb60e17b47e1"),
    (250, 3, 100, 3250, 142, 142, "f976d44808fac9bc"),
    (300, 3, 100, 3300, 170, 170, "61510cdc2a30e98f"),
]


def dense_repr(p):
    """The repr the pins were taken from, when a profile held all 2**k - 1
    multiplicities as its field ell."""
    if p is None:
        return repr(p)
    return f"ColumnProfile(k={p.k}, ell={p.ell!r}, zero_count={p.zero_count!r})"


@pytest.mark.parametrize("n, k, trials, seed, target, best, digest", RANDOM_SEARCH_PINS)
def test_random_search_pinned(n, k, trials, seed, target, best, digest):
    # every rng call, its order and every accepted move are fixed, so the
    # witness profile is too, not just its distance
    found, profile = random_so_profile_search(n, k, trials, target, seed)
    assert found == best
    assert hashlib.sha256(dense_repr(profile).encode()).hexdigest()[:16] == digest


def ref_score(t):
    dmin = min(t[1:])
    return dmin, -t[1:].count(dmin)


def ref_weight_levels(t, m):
    """lev[j], j < 3: the mask of the messages x >= 1 of weight m + j, m the
    least weight in t[1:], read off the weight list as the climb did before
    it held the weights as bit planes."""
    lev = [0, 0, 0]
    for x in range(1, len(t)):
        j = t[x] - m
        if j < 3:
            lev[j] |= 1 << x
    return lev


def ref_move_improves(t, cur, a, b):
    """The climb's scoring before level masks: rebuild the weights t, of
    score cur, after moving two columns from index a to index b."""
    vecs = _hit_vectors((len(t) - 1).bit_length())
    return ref_score(_add_column(_add_column(t, vecs[b], 2), vecs[a], -2)) > cur


def plane_weights(k, planes):
    """The weight list that bit planes hold: bit j of t[x] is bit x of planes[j]."""
    return [sum((p >> x & 1) << j for j, p in enumerate(planes)) for x in range(1 << k)]


def all_messages(k):
    return (1 << (1 << k)) - 2


@pytest.mark.parametrize("big", [3, 600])
@pytest.mark.parametrize("k", range(1, 9))
def test_planes_match_profile_weights(k, big):
    # weights past 256 carry into new planes, and removing every copy
    # drops the emptied top planes down to none
    rng = random.Random(1000 * k + big)
    hits = _hit_masks(k)
    full = all_messages(k)
    counts = [rng.choice((0, 0, rng.randint(1, big))) for _ in range(1 << k)]
    counts[0] = rng.randint(1, big)  # the zero column weighs nothing
    counts[-1] = rng.randint(big // 2, big)  # past 256 when big is

    def check(planes):
        t = _profile_weights(k, counts)
        assert plane_weights(k, planes) == t
        assert not planes or planes[-1], "an empty top plane"
        m, lev = oracle._planes_levels(planes, full)
        assert m == min(t[1:])
        assert lev == ref_weight_levels(t, m)
        assert oracle._planes_min(planes, full) == (m, lev[0])

    planes = oracle._profile_planes(k, counts)
    check(planes)
    assert big < 256 or len(planes) > 8
    # the same weights from power-of-two chunks, in a random column order
    grown = []
    for i in rng.sample(range(1 << k), 1 << k):
        c = counts[i]
        while c:
            j = rng.randrange(c.bit_length())
            oracle._planes_add(grown, hits[i], j)
            c -= 1 << j
    assert grown == planes
    # pair removals column by column, checked after about 16 columns, then
    # the last single copies
    every = max(1, 1 << k >> 4)
    for step, i in enumerate(rng.sample(range(1, 1 << k), (1 << k) - 1)):
        while counts[i] >= 2:
            oracle._planes_sub(planes, hits[i], 1)
            counts[i] -= 2
        if step % every == 0:
            check(planes)
    for i in range(1, 1 << k):
        if counts[i]:
            oracle._planes_sub(planes, hits[i], 0)
            counts[i] = 0
    check(planes)
    assert planes == []


@st.composite
def random_profiles(draw):
    k = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32))
    sparse = draw(st.sampled_from([0.5, 0.8, 0.95]))
    rng = random.Random(seed)
    counts = [0 if rng.random() < sparse else rng.randint(1, 5) for _ in range(1 << k)]
    return k, counts


@settings(max_examples=50, deadline=None)
@given(random_profiles())
def test_level_masks_match_weight_rebuild(profile):
    # the climb's donors (two or more copies, zero column included) and
    # receivers (the columns that hit the first message of least weight)
    k, counts = profile
    hits = _hit_masks(k)
    t = _profile_weights(k, counts)
    cur = ref_score(t)
    m, lev = oracle._planes_levels(oracle._profile_planes(k, counts), all_messages(k))
    assert (m, lev) == (cur[0], ref_weight_levels(t, cur[0]))
    ncols = (1 << k) - 1
    worst = t[1:].index(cur[0]) + 1
    donors = [a for a in range(ncols + 1) if counts[a] >= 2]
    receivers = [b for b in range(1, ncols + 1) if hits[b] >> worst & 1]
    assert receivers == _bits(hits[worst])  # <x, i> is symmetric
    moves = [(a, b) for a in donors for b in receivers]
    improving = [(a, b) for a, b in moves if ref_move_improves(t, cur, a, b)]
    expected = set(improving)
    for a, b in moves:
        found = _improving_move(lev, hits, [a], [b])
        assert (found is not None) == ((a, b) in expected), (k, a, b)
    assert _improving_move(lev, hits, donors, receivers) == next(iter(improving), None)
    # greedy's worst weight after one more copy of column i, and the
    # columns greedy reads as covering the least weight
    vecs = _hit_vectors(k)
    cover = functools.reduce(int.__and__, (hits[x] for x in _bits(lev[0])))
    for i in range(1, ncols + 1):
        after = min(t[x] + vecs[i][x] for x in range(1, ncols + 1))
        assert cur[0] + (not lev[0] & ~hits[i]) == after, (k, i)
        assert (cover >> i & 1) == (not lev[0] & ~hits[i]), (k, i)


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

    m = parse_matrix("000011\n001100\n110000\n010100")
    assert min_distance(m) == 2
    assert min_embedding_oracle(m) == 3
    best = 0
    for combo in itertools.combinations_with_replacement(range(1, 16), 3):
        ext = horizontal_join(m, combo)
        if gram(ext).is_zero():
            best = max(best, min_distance(ext))
    assert best == 2 < dso_opt(9, 4).value
