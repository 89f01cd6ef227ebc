"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its stated runtime budget.  Expected table values are transcribed
from the published optimal self-orthogonal distance tables; everything
else is checked against this package's own independent oracles.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from soembed import golden
from soembed.constructions import build_optimal, registry
from soembed.distances import (
    STATUS_CONJECTURED,
    STATUS_EXACT,
    d_opt,
    dso_opt,
    griesmer_g,
    griesmer_upper,
    make_table,
)
from soembed.embedding import embed
from soembed.errors import DomainError, NoSOCodeError
from soembed.gf2 import (
    BinaryMatrix,
    gram,
    min_distance,
    random_full_rank_matrix,
    random_matrix,
    rank,
)
from soembed.oracle import (
    enumerate_codes_by_profile,
    min_embedding_oracle,
    verify_claims_prop414,
)
from soembed.profiles import (
    ColumnProfile,
    column_profile,
    is_so_dim_check,
    is_so_profile,
    matrix_from_profile,
)


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"criterion {number} ({name}): FAIL (took {elapsed:.1f}s)")
        raise AssertionError(
            f"criterion {number} exceeded {limit_seconds}s: {elapsed:.1f}s"
        )
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def _all_profiles(k, n_max):
    """Every multiplicity vector (with zero slack) for lengths 1..n_max."""
    ncols = (1 << k) - 1
    for n in range(1, n_max + 1):
        for cuts in itertools.combinations(range(n + ncols), ncols):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(n + ncols - 1 - prev)
            yield n, tuple(parts[1:]), parts[0]


def test_criterion_1_golden_examples():
    with criterion(1, "golden worked examples", 1.0):
        results = golden.run_examples()
        assert len(results) == 9
        assert all(ok for _, ok in results), results


def test_criterion_2_characterization_equivalence():
    with criterion(2, "profile test equals gram test on 10k matrices", 30.0):
        rng = random.Random(20240)
        agree = 0
        for _ in range(10_000):
            k = rng.randint(2, 8)
            n = rng.randint(1, 64)
            m = random_matrix(rng, k, n)
            style = rng.random()
            if style < 0.25 and n >= 3:
                # plant zero columns
                drop = rng.sample(range(n), rng.randint(1, min(3, n)))
                keep = ~sum(1 << j for j in drop)
                m = BinaryMatrix(k, n, tuple(r & keep for r in m.rows))
            elif style < 0.5 and k >= 3:
                # plant a dependent row
                rows = list(m.rows)
                rows[rng.randrange(k)] = rows[rng.randrange(k)]
                m = BinaryMatrix(k, n, tuple(rows))
            profile_verdict = is_so_profile(m)
            assert profile_verdict == gram(m).is_zero()
            if k <= 4:
                assert is_so_dim_check(column_profile(m)) == profile_verdict
            agree += 1
        assert agree == 10_000


def test_criterion_3_shortest_embedding_matches_oracle():
    with criterion(3, "embedding length equals search minimum", 600.0):
        checked = 0
        for k, n_max in ((2, 10), (3, 9)):
            for _n, ell, zeros in _all_profiles(k, n_max):
                counts = {i: c for i, c in enumerate(ell, start=1) if c}
                prof = ColumnProfile(k, counts, zeros)
                m = matrix_from_profile(prof)
                rep = embed(m, allow_rank_deficient=True)
                assert rep.added_count == min_embedding_oracle(m), prof
                checked += 1
        rng = random.Random(31415)
        for _ in range(500):
            n = rng.randint(4, 9)
            m = random_full_rank_matrix(rng, 4, n)
            rep = embed(m)
            assert rep.added_count == min_embedding_oracle(m), m.to_text()
            checked += 1
        assert checked >= 500 + 1000


def test_criterion_4_length_bounds_and_output_quality():
    limits = {2: 3, 3: 3, 4: 5, 5: 6}
    with criterion(4, "append-count bounds and output quality", 900.0):
        rng = random.Random(27182)
        for k, bound in limits.items():
            for _ in range(10_000):
                n = rng.randint(k, 24)
                m = random_full_rank_matrix(rng, k, n)
                rep = embed(m)
                assert rep.added_count <= bound
                out = rep.output
                assert gram(out).is_zero()
                d_out = min_distance(out)
                assert d_out % 2 == 0
                assert d_out >= min_distance(m)


def test_criterion_5_pattern_sweep():
    with criterion(5, "worst-case pattern sweep", 10.0):
        result = verify_claims_prop414()
        assert result.count1 == 2450
        assert result.count2 == 3430
        assert result.max1 == 4
        assert result.max2 == 5


# transcription of the published tables of best self-orthogonal distances
DSO4_TABLE = {
    8: 4, 9: 4, 10: 4, 11: 4, 12: 4, 13: 4, 14: 6, 15: 8, 16: 8, 17: 8,
    18: 8, 19: 8, 20: 8, 21: 10, 22: 10, 23: 12, 24: 12, 25: 12, 26: 12,
    27: 12, 28: 14, 29: 14, 30: 16, 31: 16, 32: 16, 33: 16, 34: 16, 35: 16,
    36: 18, 37: 18, 38: 20, 39: 20, 40: 20, 41: 20, 42: 20, 43: 22, 44: 22,
    45: 24, 46: 24, 47: 24, 48: 24, 49: 24, 50: 24, 51: 26, 52: 26, 53: 28,
    54: 28, 55: 28, 56: 28, 57: 28, 58: 30, 59: 30, 60: 32, 61: 32, 62: 32,
    63: 32, 64: 32, 65: 32, 66: 34, 67: 34, 68: 36, 69: 36, 70: 36, 71: 36,
    72: 36, 73: 38, 74: 38, 75: 40, 76: 40, 77: 40, 78: 40, 79: 40, 80: 40,
    81: 42, 82: 42, 83: 44, 84: 44, 85: 44, 86: 44, 87: 44, 88: 46, 89: 46,
    90: 48, 91: 48, 92: 48, 93: 48, 94: 48, 95: 48, 96: 50, 97: 50, 98: 52,
    99: 52, 100: 52,
}

DSO5_TABLE = {
    10: 2, 11: 4, 12: 4, 13: 4, 14: 4, 15: 6, 16: 8, 17: 8, 18: 8, 19: 8,
    20: 8, 21: 8, 22: 8, 23: 10, 24: 12, 25: 12, 26: 12, 27: 12, 28: 12,
    29: 12, 30: 14, 31: 16, 32: 16, 33: 16, 34: 16, 35: 16, 36: 16, 37: 16,
    38: 18, 39: 18, 40: 20, 41: 20, 42: 20, 43: 20, 44: 20, 45: 20, 46: 22,
    47: 24, 48: 24, 49: 24, 50: 24, 51: 24, 52: 24, 53: 24, 54: 26, 55: 28,
    56: 28, 57: 28, 58: 28, 59: 28, 60: 28, 61: 30, 62: 32, 63: 32, 64: 32,
    65: 32, 66: 32, 67: 32, 68: 32, 69: 34, 70: 34, 71: 36, 72: 36, 73: 36,
    74: 36, 75: 36, 76: 36, 77: 38, 78: 40, 79: 40, 80: 40, 81: 40, 82: 40,
    83: 40, 84: 40, 85: 42, 86: 44, 87: 44, 88: 44, 89: 44, 90: 44, 91: 44,
    92: 46, 93: 48, 94: 48, 95: 48, 96: 48, 97: 48, 98: 48, 99: 48, 100: 50,
}

DSO5_CONJECTURED = {44, 45, 52, 53, 59, 60, 68, 75, 76, 83, 84, 90, 91, 99}

# entries the published tables single out as newly settled exact values
STARRED_SPOT_CHECKS = {(41, 4): 20, (100, 5): 50, (46, 5): 22, (56, 4): 28}


def test_criterion_6_table_reproduction():
    with criterion(6, "published table reproduction", 30.0):
        got4 = {n: v for n, v in make_table(8, 100, 4)}
        assert {n: v.value for n, v in got4.items()} == DSO4_TABLE
        assert all(v.status == STATUS_EXACT for v in got4.values())

        got5 = {n: v for n, v in make_table(10, 100, 5)}
        assert {n: v.value for n, v in got5.items()} == DSO5_TABLE
        conjectured = {n for n, v in got5.items() if v.status == STATUS_CONJECTURED}
        assert conjectured == DSO5_CONJECTURED
        assert all(
            v.status == STATUS_EXACT
            for n, v in got5.items()
            if n not in DSO5_CONJECTURED
        )
        for (n, k), value in STARRED_SPOT_CHECKS.items():
            v = dso_opt(n, k)
            assert (v.value, v.status) == (value, STATUS_EXACT)

        rendered = [f"{n},{v.value},{v.status}" for n, v in make_table(43, 46, 5)]
        assert rendered == [
            "43,20,exact",
            "44,20,conjectured",
            "45,20,conjectured",
            "46,22,exact",
        ]


def test_criterion_7_oracle_matches_formulas():
    with criterion(7, "profile enumeration equals the formulas", 900.0):
        for k in (1, 2, 3):
            for n in range(k, 15):
                best = enumerate_codes_by_profile(n, k, False)
                assert best.distance == d_opt(n, k).value, (n, k)
        with pytest.raises(NoSOCodeError):
            enumerate_codes_by_profile(1, 1, True)
        so_ranges = {1: 2, 2: 4, 3: 6}
        for k, lo in so_ranges.items():
            for n in range(lo, 15):
                best = enumerate_codes_by_profile(n, k, True)
                assert best.distance == dso_opt(n, k).value, (n, k)
        for n in range(4, 8):
            with pytest.raises(NoSOCodeError):
                enumerate_codes_by_profile(n, 4, True)
        for n in range(8, 13):
            best = enumerate_codes_by_profile(n, 4, True)
            assert best.distance == dso_opt(n, 4).value, n


def griesmer_search(n, k):
    """Largest d with griesmer_g(k, d) <= n, by direct search."""
    if k < 1 or n < k:
        raise DomainError("need 1 <= k <= n")
    d = 1
    while griesmer_g(k, d + 1) <= n:
        d += 1
    return d


def test_criterion_8_griesmer_closed_forms():
    with criterion(8, "closed-form staircase bound equals search", 30.0):
        for k in range(1, 6):
            for n in range(k, 1001):
                assert griesmer_upper(n, k) == griesmer_search(n, k), (n, k)
                assert griesmer_g(k, griesmer_upper(n, k)) <= n


def test_criterion_9_construction_witnesses():
    with criterion(9, "seeded constructions hit the formulas", 60.0):
        reg = registry()
        assert set(reg.lengths(3, False)) >= set(range(3, 10))
        assert set(reg.lengths(4, True)) >= set(range(8, 19))
        for n in range(10, 61):
            built, value = build_optimal(n, 3, False)
            assert value.status == STATUS_EXACT
            assert min_distance(built) == d_opt(n, 3).value == value.value
            assert rank(built) == 3 and built.n == n
        for n in range(23, 61):
            built, value = build_optimal(n, 4, True)
            assert value.status == STATUS_EXACT
            assert min_distance(built) == dso_opt(n, 4).value == value.value
            assert gram(built).is_zero() and built.n == n
