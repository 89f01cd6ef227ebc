"""Closed-form distance formulas: examples, ranges, parity, consistency."""

import itertools
from dataclasses import dataclass

import pytest

from soembed.distances import (
    STATUS_CONJECTURED,
    STATUS_EXACT,
    DistanceValue,
    d_opt,
    dso_opt,
    griesmer_g,
    griesmer_upper,
    make_table,
)
from soembed.errors import DomainError, NoSOCodeError
from soembed.gf2 import BinaryMatrix, gram, min_distance, parse_matrix, rank
from soembed.oracle import _search_profile
from soembed.profiles import _so_parity_masks, matrix_from_profile

# ---------------------------------------------------------------------------
# Reference: the formulas written out branch by branch, one residue set per
# case.  The table-driven closed forms must agree with it everywhere.


@dataclass(frozen=True)
class ResidueSets:
    """Residue bookkeeping behind the dimension-4 and -5 formulas.

    The dimension-5 linear sets adjust a pure residue family by the four
    individual integers 8, 9, 12, 13 (not by their residue classes).
    """

    dim3_pen1_mod7: frozenset
    dim4_pen1_mod15: frozenset
    dim2_so_pen1_mod6: frozenset
    dim2_so_pen2_mod6: frozenset
    dim3_so_pen1_mod7: frozenset
    dim3_so_pen2_mod7: frozenset
    dim4_so_pen1_mod15: frozenset
    dim4_so_pen2_mod15: frozenset
    e1_mod31: frozenset
    e2_mod31: frozenset
    lin5_extra_pen1: frozenset
    lin5_moved_to_pen2: frozenset
    so5_pen1_mod31: frozenset
    so5_pen2_mod31: frozenset
    so5_extra_pen2: frozenset
    so5_open_mod31: frozenset

    def in_lin5_pen1(self, n):
        if n in self.lin5_extra_pen1:
            return True
        if n in self.lin5_moved_to_pen2:
            return False
        return n % 31 in self.e1_mod31

    def in_lin5_pen2(self, n):
        return n in self.lin5_moved_to_pen2 or n % 31 in self.e2_mod31

    def in_so5_open(self, n):
        return n % 31 in self.so5_open_mod31


RESIDUES = ResidueSets(
    dim3_pen1_mod7=frozenset({2}),
    dim4_pen1_mod15=frozenset({2, 3, 4, 6, 10}),
    dim2_so_pen1_mod6=frozenset({2, 5}),
    dim2_so_pen2_mod6=frozenset({3}),
    dim3_so_pen1_mod7=frozenset({2, 3, 6}),
    dim3_so_pen2_mod7=frozenset({4}),
    dim4_so_pen1_mod15=frozenset({2, 3, 6, 7, 10, 11, 14}),
    dim4_so_pen2_mod15=frozenset({4, 5, 12}),
    e1_mod31=frozenset({2, 3, 5, 6, 7, 8, 10, 11, 12, 14, 18, 19, 20, 22, 26}),
    e2_mod31=frozenset({4}),
    lin5_extra_pen1=frozenset({9, 13}),
    lin5_moved_to_pen2=frozenset({8, 12}),
    so5_pen1_mod31=frozenset({2, 3, 7, 10, 11, 15, 18, 19, 23, 26, 27, 30}),
    so5_pen2_mod31=frozenset({4, 5, 8, 12, 20}),
    so5_extra_pen2=frozenset({13}),
    so5_open_mod31=frozenset({6, 13, 14, 21, 22, 28, 29}),
)


def ref_griesmer_upper(n, k):
    if not 1 <= k <= 5:
        raise DomainError
    if n < k:
        raise DomainError
    if k == 1:
        return n
    if k == 2:
        return (2 * n) // 3
    if k == 3:
        return (4 * n) // 7 - (1 if n % 7 == 2 else 0)
    if k == 4:
        return (8 * n) // 15 - (1 if n % 15 in RESIDUES.dim4_pen1_mod15 else 0)
    base = (16 * n) // 31
    if n % 31 in RESIDUES.e1_mod31:
        return base - 1
    if n % 31 in RESIDUES.e2_mod31:
        return base - 2
    return base


def ref_d_opt(n, k):
    """(value, status, source) of d_opt."""
    if not 1 <= k <= 5:
        raise DomainError
    if n < k:
        raise DomainError
    if k == 1:
        return n, STATUS_EXACT, "dim1-repetition"
    if k == 2:
        return (2 * n) // 3, STATUS_EXACT, "dim2-formula"
    if k == 3:
        pen = 1 if n % 7 in RESIDUES.dim3_pen1_mod7 else 0
        return (4 * n) // 7 - pen, STATUS_EXACT, "dim3-formula"
    if k == 4:
        pen = 1 if n % 15 in RESIDUES.dim4_pen1_mod15 else 0
        return (8 * n) // 15 - pen, STATUS_EXACT, "dim4-formula"
    base = (16 * n) // 31
    if RESIDUES.in_lin5_pen1(n):
        base -= 1
    elif RESIDUES.in_lin5_pen2(n):
        base -= 2
    return base, STATUS_EXACT, "dim5-formula"


def ref_dso_opt(n, k):
    """(value, status, source) of dso_opt."""
    if not 1 <= k <= 5:
        raise DomainError
    if k == 1:
        if n < 1:
            raise DomainError
        if n == 1:
            raise NoSOCodeError
        return n - (n & 1), STATUS_EXACT, "dim1-so"
    if k == 2:
        if n < 4:
            raise DomainError
        r = n % 6
        pen = 1 if r in RESIDUES.dim2_so_pen1_mod6 else 0
        pen = 2 if r in RESIDUES.dim2_so_pen2_mod6 else pen
        return (2 * n) // 3 - pen, STATUS_EXACT, "dim2-so-formula"
    if k == 3:
        if n < 6:
            raise DomainError
        r = n % 7
        pen = 1 if r in RESIDUES.dim3_so_pen1_mod7 else 0
        pen = 2 if r in RESIDUES.dim3_so_pen2_mod7 else pen
        return (4 * n) // 7 - pen, STATUS_EXACT, "dim3-so-formula"
    if k == 4:
        if n < 4:
            raise DomainError
        if n <= 7:
            raise NoSOCodeError
        r = n % 15
        pen = 1 if r in RESIDUES.dim4_so_pen1_mod15 else 0
        pen = 2 if r in RESIDUES.dim4_so_pen2_mod15 or n == 13 else pen
        return (8 * n) // 15 - pen, STATUS_EXACT, "dim4-so-formula"
    if n < 10:
        raise DomainError
    if n == 10:
        # self-dual, and both self-dual codes of length 10 have d = 2
        return 2, STATUS_EXACT, "dim5-so-formula"
    if n != 13 and RESIDUES.in_so5_open(n):
        value = ref_d_opt(n, 5)[0] - 2
        if n <= 40:
            return value, STATUS_EXACT, "dim5-so-classified"
        return value, STATUS_CONJECTURED, "dim5-so-conjecture"
    base = (16 * n) // 31
    if n % 31 in RESIDUES.so5_pen1_mod31:
        base -= 1
    elif n % 31 in RESIDUES.so5_pen2_mod31 or n in RESIDUES.so5_extra_pen2:
        base -= 2
    return base, STATUS_EXACT, "dim5-so-formula"


def _outcome(f, n, k):
    try:
        r = f(n, k)
    except (DomainError, NoSOCodeError) as exc:
        return type(exc)
    return r if isinstance(r, (int, tuple)) else (r.value, r.status, r.source)


@pytest.mark.parametrize(
    "f, ref",
    [
        (griesmer_upper, ref_griesmer_upper),
        (d_opt, ref_d_opt),
        (dso_opt, ref_dso_opt),
    ],
)
def test_closed_forms_match_branch_reference(f, ref):
    for k in range(-1, 8):
        for n in range(-3, 3001):
            assert _outcome(f, n, k) == _outcome(ref, n, k), (f.__name__, n, k)


def test_griesmer_g():
    assert griesmer_g(4, 8) == 15
    assert griesmer_g(3, 4) == 7
    assert griesmer_g(5, 16) == 31
    with pytest.raises(DomainError):
        griesmer_g(0, 4)


def test_griesmer_upper_examples():
    assert griesmer_upper(9, 3) == 4
    assert griesmer_upper(35, 4) == 18
    assert griesmer_upper(31, 5) == 16


def test_d_opt_examples():
    assert d_opt(13, 5).value == 5
    assert d_opt(8, 5).value == 2
    assert d_opt(7, 3).value == 4
    assert d_opt(9, 5).value == 3
    assert d_opt(12, 5).value == 4
    assert all(d_opt(n, k).status == STATUS_EXACT for k in range(1, 6) for n in range(k, 40))


# d_opt falls one below the staircase bound at dimension 5 and lengths 8, 9,
# 12 and 13.  Each value has a witness; nonexistence one above it is shown
# at n = 8 and 9.


@pytest.mark.parametrize("n, d", [(8, 2), (9, 3), (12, 4)])
def test_d_opt_dim5_named_witness(n, d):
    assert d_opt(n, 5).value == d
    m = matrix_from_profile(_search_profile(n, 5, d, None))
    assert (m.n, rank(m), min_distance(m)) == (n, 5, d)


def test_d_opt_13_5_witness():
    assert d_opt(13, 5).value == 5
    m = parse_matrix(
        "1110100100101\n"
        "1101000011001\n"
        "0011001110001\n"
        "1100101110011\n"
        "0100011010001"
    )
    assert (m.n, rank(m), min_distance(m)) == (13, 5, 5)


def test_no_8_5_3_code():
    # Any [8,5] code has an information set, so up to a column permutation
    # it has a generator [I5 | A].  Row i then weighs 1 + wt(A_i), so d >= 3
    # needs every row of A to weigh >= 2: 4**5 forms, all with d <= 2.
    # A [9,5,4] code punctured at one coordinate would be an [8,5,3] code,
    # so none exists either.
    assert (d_opt(8, 5).value, d_opt(9, 5).value) == (2, 3)
    heavy = [a for a in range(8) if a.bit_count() >= 2]
    best = 0
    for rows_a in itertools.product(heavy, repeat=5):
        m = BinaryMatrix(5, 8, tuple(1 << i | a << 5 for i, a in enumerate(rows_a)))
        best = max(best, min_distance(m))
    assert best == 2


def test_d_opt_domain():
    with pytest.raises(DomainError):
        d_opt(3, 4)
    with pytest.raises(DomainError):
        d_opt(10, 6)


def test_dso_opt_examples():
    assert dso_opt(13, 4).value == 4
    assert dso_opt(41, 4).value == 20
    v100 = dso_opt(100, 5)
    assert (v100.value, v100.status) == (50, STATUS_EXACT)
    v44 = dso_opt(44, 5)
    assert (v44.value, v44.status) == (20, STATUS_CONJECTURED)


def test_dso_opt_10_5_is_two():
    # An SO [10,5] code is self-dual.  The published table gives 4, but both
    # self-dual codes of length 10 have d = 2 (Pless 1972).
    v = dso_opt(10, 5)
    assert (v.value, v.status) == (2, STATUS_EXACT)
    # a witness at 2: i2^5, five disjoint copies of the [2,1,2] code
    i2 = BinaryMatrix(5, 10, tuple(0b11 << 2 * i for i in range(5)))
    assert rank(i2) == 5 and gram(i2).is_zero() and min_distance(i2) == 2
    # no column profile with SO parities reaches 4; SO weights are even
    assert _search_profile(10, 5, 4, _so_parity_masks(5)) is None


def test_dso_opt_errors():
    for n in range(4, 8):
        with pytest.raises(NoSOCodeError):
            dso_opt(n, 4)
    with pytest.raises(DomainError):
        dso_opt(3, 4)
    with pytest.raises(DomainError):
        dso_opt(3, 2)
    with pytest.raises(DomainError):
        dso_opt(5, 3)
    with pytest.raises(DomainError):
        dso_opt(9, 5)


@pytest.mark.parametrize("k, start", [(1, 1), (2, 4), (3, 6), (4, 4), (5, 10)])
def test_dso_opt_start_message(k, start):
    with pytest.raises(DomainError, match=f"^dimension-{k} formula starts at n = {start}$"):
        dso_opt(start - 1, k)


def test_dso_dim1():
    assert dso_opt(6, 1).value == 6
    assert dso_opt(7, 1).value == 6


def test_dso_below_d_and_even():
    ranges = {1: 2, 2: 4, 3: 6, 4: 8, 5: 10}
    for k, lo in ranges.items():
        for n in range(lo, 160):
            so = dso_opt(n, k)
            assert so.value % 2 == 0
            assert so.value <= d_opt(n, k).value


def test_monotone_in_n():
    ranges = {1: 2, 2: 4, 3: 6, 4: 8, 5: 10}
    for k, lo in ranges.items():
        for n in range(lo, 159):
            assert d_opt(n + 1, k).value >= d_opt(n, k).value
            assert dso_opt(n + 1, k).value >= dso_opt(n, k).value


def test_griesmer_consistency():
    for k in range(1, 6):
        for n in range(max(k, 4), 120):
            d = d_opt(n, k).value
            assert griesmer_g(k, d) <= n
            assert d <= griesmer_upper(n, k)


def test_excluded_values_are_odd():
    # lengths where one less than the staircase value cannot be a
    # self-orthogonal distance because it is odd
    for t in range(0, 8):
        n = 15 * t + 4
        assert ((8 * n) // 15 - 1) % 2 == 1
    # same parity obstruction at dimension 5, all three case families;
    # n = 8 and 12 are excused: their linear optima were already adjusted
    # down to even values, and no [n,5] self-orthogonal code exists below
    # n = 10 regardless (the dual would be too small)
    for n in range(5, 400):
        r = n % 31
        if n == 13 or (r == 12 and n != 12) or (
            r in {5, 8, 15, 20, 23, 27, 30} and n not in (8, 12)
        ):
            assert d_opt(n, 5).value % 2 == 1, n


def test_make_table_examples():
    assert [v.value for _, v in make_table(8, 14, 4)] == [4, 4, 4, 4, 4, 4, 6]
    assert [v.value for _, v in make_table(30, 35, 5)] == [14, 16, 16, 16, 16, 16]
    status = [(v.value, v.status) for _, v in make_table(98, 100, 5)]
    assert status == [
        (48, STATUS_EXACT),
        (48, STATUS_CONJECTURED),
        (50, STATUS_EXACT),
    ]


def test_distance_value_validation():
    with pytest.raises(ValueError):
        DistanceValue(-1, STATUS_EXACT, "x")
    with pytest.raises(ValueError):
        DistanceValue(4, "maybe", "x")
