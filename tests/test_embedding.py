"""Embedding algorithms: worked examples, bounds, and structural invariants."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soembed.embedding import TIE4_INTERSECT, EmbedPolicy, embed
from soembed.errors import InvalidPolicyError, RankDeficientError
from soembed.gf2 import (
    BinaryMatrix,
    gram,
    horizontal_join,
    min_distance,
    parse_matrix,
    random_full_rank_matrix,
    random_matrix,
    rank,
    simplex_matrix,
    weight_distribution,
)
from soembed import golden
from soembed.oracle import _coset_leaders
from soembed.profiles import (
    CLASS7_MASKS,
    CLASS8_MASKS,
    ColumnProfile,
    _dim4_projected_counts,
    _gram_mask,
    column_profile,
    matrix_from_profile,
)

MAX_ADDED = {1: 1, 2: 3, 3: 3, 4: 5, 5: 6}


def test_golden_examples_all_pass():
    for name, ok in golden.run_examples():
        assert ok, name


def test_dim2_already_so():
    doubled = horizontal_join(simplex_matrix(2), range(1, 4))
    rep = embed(doubled, allow_rank_deficient=True)
    assert rep.added_count == 0 and rep.output == doubled


def test_dim3_second_demo():
    # profile (1,1,2,1,1,3,1): only ell_3 is even, so one column suffices
    g = parse_matrix("0000111111\n0111001111\n1011010001")
    rep = embed(g, allow_rank_deficient=True)
    assert rep.added == ((3, 3),)
    assert gram(rep.output).is_zero()


def test_dim3_simplex_untouched():
    rep = embed(simplex_matrix(3), allow_rank_deficient=True)
    assert rep.added_count == 0


def test_dim4_policy_must_minimize():
    g54 = parse_matrix("00011\n00101\n01001\n10001")
    for s0 in range(1, 16):
        rep = embed(g54, EmbedPolicy(s0=s0), allow_rank_deficient=True)
        assert rep.added_count == 5
        assert gram(rep.output).is_zero()


def test_dim4_invalid_policy():
    g74 = parse_matrix("0000111\n0011001\n0101010\n1001011")
    with pytest.raises(InvalidPolicyError):  # only s0=15 minimizes here
        embed(g74, EmbedPolicy(s0=1), allow_rank_deficient=True)
    with pytest.raises(InvalidPolicyError):
        EmbedPolicy(tie4="sideways")
    with pytest.raises(InvalidPolicyError):
        EmbedPolicy(s0=16)


def test_dim5_already_so():
    doubled = horizontal_join(simplex_matrix(5), range(1, 32))
    rep = embed(doubled, allow_rank_deficient=True)
    assert rep.added_count == 0
    assert rep.output == doubled


def test_dim6_random_bound():
    rng = random.Random(17)
    for _ in range(25):
        m = random_full_rank_matrix(rng, 6, 12)
        rep = embed(m, allow_rank_deficient=True)
        assert gram(rep.output).is_zero()
        assert rep.added_count <= 9  # two peels at 2 columns, then 5
        assert rank(rep.output) == 6


def test_dispatcher_k1():
    rep = embed(parse_matrix("111"))
    assert rep.added == ((1, 1),)
    assert weight_distribution(rep.output) == {0: 1, 4: 1}
    rep_even = embed(parse_matrix("1111"))
    assert rep_even.added_count == 0


def test_dispatcher_rank_deficient():
    m = parse_matrix("011\n011")
    with pytest.raises(RankDeficientError):
        embed(m)
    rep = embed(m, allow_rank_deficient=True)
    assert rep.rank_deficient
    assert gram(rep.output).is_zero()


def test_prefix_preservation_and_evenness():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(1, 6)
        n = rng.randint(k, 24)
        m = random_full_rank_matrix(rng, k, n)
        rep = embed(m)
        out = rep.output
        mask = (1 << n) - 1
        assert all(out.rows[i] & mask == m.rows[i] for i in range(k))
        assert gram(out).is_zero()
        d_out = min_distance(out)
        assert d_out % 2 == 0
        assert d_out >= min_distance(m)
        if k <= 5:
            assert rep.added_count <= MAX_ADDED[k]


def test_dim4_tie_rule_same_count():
    rng = random.Random(31)
    for _ in range(200):
        m = random_full_rank_matrix(rng, 4, rng.randint(4, 20))
        default = embed(m, allow_rank_deficient=True)
        alt = embed(m, EmbedPolicy(tie4="difference"), allow_rank_deficient=True)
        assert alt.added_count == default.added_count
        assert gram(alt.output).is_zero()


def test_dim4_any_valid_split_same_count():
    rng = random.Random(33)
    for _ in range(80):
        m = random_full_rank_matrix(rng, 4, rng.randint(4, 16))
        totals = _dim4_projected_counts(column_profile(m).parity_mask())
        best = min(totals)
        default = embed(m, allow_rank_deficient=True)
        for s0 in (s + 1 for s, tot in enumerate(totals) if tot == best):
            for tie4 in ("intersect", "difference"):
                rep = embed(m, EmbedPolicy(s0=s0, tie4=tie4), allow_rank_deficient=True)
                assert rep.added_count == default.added_count
                assert gram(rep.output).is_zero()


def test_policy_refused_below_dimension_4():
    # k <= 3 has no dimension-4 step for a policy to act on
    for g in (parse_matrix("111"), parse_matrix("0000111111\n0111001111\n1011010001")):
        for policy in (EmbedPolicy(s0=1), EmbedPolicy(tie4="difference")):
            with pytest.raises(InvalidPolicyError):
                embed(g, policy)


def test_k5_policy_applies_at_dimension_4_step():
    # the peel leaves 4 rows on which only split 15 appends the minimum
    with pytest.raises(InvalidPolicyError):
        embed(golden.G_9_5, EmbedPolicy(s0=1))
    rep = embed(golden.G_9_5, EmbedPolicy(s0=15, tie4="difference"))
    assert rep.policy == EmbedPolicy(s0=15, tie4="difference")
    assert rep.added == embed(golden.G_9_5).added


def test_peel_tie_rule_same_count():
    rng = random.Random(43)
    changed = 0
    for _ in range(300):
        k = rng.randint(5, 9)
        m = random_full_rank_matrix(rng, k, rng.randint(k, 24))
        default = embed(m)
        alt = embed(m, EmbedPolicy(tie4="difference"))
        assert alt.policy.tie4 == "difference"
        assert alt.added_count == default.added_count
        assert gram(alt.output).is_zero()
        changed += alt.added != default.added
    assert changed  # the rule did act on some of them


def test_column_permutation_equivariance():
    rng = random.Random(37)
    for _ in range(120):
        k = rng.randint(2, 4)
        n = rng.randint(k, 16)
        m = random_full_rank_matrix(rng, k, n)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = BinaryMatrix(k, n, tuple(
            sum((r >> j & 1) << t for t, j in enumerate(perm)) for r in m.rows
        ))
        rep = embed(m)
        rep_shuffled = embed(shuffled)
        assert rep_shuffled.added_count == rep.added_count
        if k in (2, 3):
            assert Counter(rep.added) == Counter(rep_shuffled.added)


def test_report_json_round_trip():
    g74 = parse_matrix("0000111\n0011001\n0101010\n1001011")
    rep = embed(g74)
    data = rep.to_json_dict()
    assert parse_matrix(data["output"]) == rep.output
    assert data["added_count"] == 1
    assert data["so_verified"] is True


def test_random_matrices_with_zero_columns():
    rng = random.Random(41)
    for _ in range(100):
        k = rng.randint(2, 5)
        n = rng.randint(k, 20)
        m = random_matrix(rng, k, n)
        zeroed = horizontal_join(m, [0] * rng.randint(1, 3))
        rep = embed(zeroed, allow_rank_deficient=True)
        assert gram(rep.output).is_zero()


# ---------------------------------------------------------------------------
# the flip masks against the one-index-at-a-time loops they replaced


def ref_dim2_added(odd):
    return tuple((2, i) for i in (1, 2, 3) if odd >> i & 1)


def ref_dim3_added(odd):
    full = 0b11111110  # indices 1..7
    added = []
    while odd and odd != full:
        even = full ^ odd
        smaller = even if even.bit_count() < odd.bit_count() else odd
        i0 = (smaller & -smaller).bit_length() - 1
        added.append((3, i0))
        odd ^= 1 << i0
    return tuple(added)


def ref_dim4_added(odd, s0, tie4):
    added = []
    mask7 = CLASS7_MASKS[s0 - 1]
    mask8 = CLASS8_MASKS[s0 - 1]
    while True:
        inter = odd & mask7
        work = inter if inter.bit_count() < 4 else inter ^ mask7
        if not work:
            break
        i0 = (work & -work).bit_length() - 1
        added.append((4, i0))
        odd ^= 1 << i0
    while True:
        inter = odd & mask8
        c = inter.bit_count()
        if c < 4 or (c == 4 and tie4 == TIE4_INTERSECT):
            work = inter
        else:
            work = inter ^ mask8
        if not work:
            break
        i0 = (work & -work).bit_length() - 1
        added.append((4, i0))
        odd ^= 1 << i0
    return tuple(added)


@st.composite
def low_dim_profiles(draw):
    k = draw(st.integers(2, 4))
    ncols = (1 << k) - 1
    ell = draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
    counts = {i: c for i, c in enumerate(ell, start=1) if c}
    return ColumnProfile(k, counts, draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(low_dim_profiles())
def test_flip_masks_match_reference_loops(prof):
    m = matrix_from_profile(prof)
    odd = column_profile(m).parity_mask()
    if prof.k == 2:
        assert embed(m, allow_rank_deficient=True).added == ref_dim2_added(odd)
        return
    if prof.k == 3:
        assert embed(m, allow_rank_deficient=True).added == ref_dim3_added(odd)
        return
    totals = _dim4_projected_counts(odd)
    best = min(totals)
    assert embed(m, allow_rank_deficient=True).added == ref_dim4_added(
        odd, totals.index(best) + 1, TIE4_INTERSECT
    )
    for s0 in (s + 1 for s, tot in enumerate(totals) if tot == best):
        for tie4 in ("intersect", "difference"):
            rep = embed(m, EmbedPolicy(s0=s0, tie4=tie4), allow_rank_deficient=True)
            assert rep.added == ref_dim4_added(odd, s0, tie4)
            assert gram(rep.output).is_zero()


# ---------------------------------------------------------------------------
# the Gram-matrix peel against the row-based peel it replaced


def ref_embed_recursive(g):
    """The row-based peel: every level re-derives the row products and
    builds a new matrix by joining columns and deleting the peeled row."""

    def ip(a, b):
        return (a & b).bit_count() & 1

    cur = g
    added = []
    peeled = []  # (row position, row bits)
    while cur.k > 4:
        k = cur.k
        rows = cur.rows
        j0 = next(
            (
                i
                for i in range(k)
                if all(ip(rows[i], rows[j]) == 0 for j in range(k))
            ),
            None,
        )
        if j0 is None:
            j0 = next((i for i in range(k) if ip(rows[i], rows[i])), None)
            if j0 is not None:
                col = sum(ip(rows[i], rows[j0]) << (k - 1 - i) for i in range(k))
                cols = [col]
            else:
                j0 = 0
                y = sum(ip(rows[i], rows[0]) << (k - 1 - i) for i in range(k))
                top = 1 << (k - 1)  # row 0's bit of a column index
                cols = [y | top, top]
            cur = horizontal_join(cur, cols)
            added.extend((k, c) for c in cols)
        peeled.append((j0, cur.rows[j0]))
        cur = BinaryMatrix(k - 1, cur.n, cur.rows[:j0] + cur.rows[j0 + 1 :])
    rep4 = embed(cur, allow_rank_deficient=True)
    added.extend(rep4.added)
    out_rows = list(rep4.output.rows)
    for pos, row in reversed(peeled):
        out_rows.insert(pos, row)
    return tuple(added), BinaryMatrix(g.k, rep4.output.n, tuple(out_rows))


@st.composite
def peel_inputs(draw):
    k = draw(st.integers(5, 10))
    n = draw(st.integers(0, 40))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    if draw(st.booleans()):
        # all self-products even: the first level appends two columns
        rows = [r ^ (r.bit_count() & 1) for r in rows]
    if draw(st.booleans()):
        # a repeated row: rank deficient
        rows[draw(st.integers(0, k - 1))] = rows[draw(st.integers(0, k - 1))]
    m = BinaryMatrix(k, n, tuple(rows))
    return horizontal_join(m, [0] * draw(st.integers(0, 3)))


@settings(max_examples=400, deadline=None)
@given(peel_inputs())
def test_peel_matches_row_based_reference(m):
    rep = embed(m, allow_rank_deficient=True)
    assert (rep.added, rep.output) == ref_embed_recursive(m)


def test_k5_peel_over_every_gram_matrix():
    # The peel's column count depends only on the Gram matrix, so one
    # realization of each of the 2**15 symmetric 5 x 5 matrices covers k = 5:
    # the columns of a minimal syndrome decoding, whose size is the least
    # number of columns any embedding needs.
    h5 = simplex_matrix(5)
    excess = Counter()
    most = 0
    for syndrome, leader in enumerate(_coset_leaders(5)):
        m = BinaryMatrix(5, 31, tuple(r & leader >> 1 for r in h5.rows))
        assert _gram_mask(m.rows) == syndrome
        need = leader.bit_count()
        assert need <= 5
        rep = embed(m, allow_rank_deficient=True)
        excess[rep.added_count - need] += 1
        most = max(most, rep.added_count)
    assert most == MAX_ADDED[5]
    assert excess == {0: 32768 - 1957, 1: 1957}
