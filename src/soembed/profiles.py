"""Column-multiplicity characterizations of self-orthogonality.

A matrix's column profile counts how many of its columns equal each
nonzero binary column that occurs in it.  Self-orthogonality is decidable
from the profile alone: in general as evenness of all pairwise
column-intersection counts, and in dimensions 2..4 as parity constancy of
the multiplicities on every index class, the parity rule
(:func:`_parity_flips`) that the shortest embedding also reads.

This module is also the one home of the column-multiset algebra that the
oracles, the embeddings and the seed recipes share: the codeword weights
of a multiset of columns, the Gram matrix packed as a syndrome with one
outer product per column, and the kernel of self-orthogonal parity
patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import CapExceededError, InvalidPolicyError, WrongDimensionError
from .gf2 import (
    BinaryMatrix,
    _bits,
    _column_rows,
    _hit_masks,
    _index_counts,
    _pair_parities,
    _span,
    gram,
    horizontal_join,
)

# A profile holds only the columns that occur, O(k * n) at any k.  What
# still costs 2**k is its dense view: parity_mask() is a 2**k-bit int and
# ell a tuple of 2**k - 1 counts, ~0.1 GiB at k = 24; each further row
# doubles both.
PROFILE_K_CAP = 24


@dataclass(frozen=True)
class ColumnProfile:
    """Multiplicities of the nonzero columns, plus the zero-column count.

    counts maps each column index i that occurs to its multiplicity, by
    ascending i; an index that does not occur is left out, so an [n, k]
    code's profile has at most n entries at any k.  Zero columns are
    tracked separately and never enter any parity condition.
    """

    k: int
    counts: dict[int, int]
    zero_count: int

    def __post_init__(self):
        items = sorted(self.counts.items())
        if items and not 0 < items[0][0] <= items[-1][0] < 1 << self.k:
            raise ValueError("column indices must lie in 1..2**k - 1")
        if self.zero_count < 0 or min(self.counts.values(), default=1) < 1:
            raise ValueError("zero_count must be >= 0 and multiplicities > 0")
        object.__setattr__(self, "counts", dict(items))

    @property
    def ell(self) -> tuple[int, ...]:
        """The dense view: ell[i - 1] is the multiplicity of index i."""
        return tuple(self.counts.get(i, 0) for i in range(1, 1 << self.k))

    @property
    def n(self) -> int:
        return self.zero_count + sum(self.counts.values())

    def count(self, i: int) -> int:
        """Multiplicity of column index i (0 gives the zero-column count)."""
        return self.counts.get(i, 0) if i else self.zero_count

    def odd_indices(self) -> list[int]:
        """The column indices of odd multiplicity, ascending."""
        return [i for i, c in self.counts.items() if c & 1]

    def parity_mask(self) -> int:
        """Bit i set iff index i has odd multiplicity."""
        bitmap = bytearray((1 << self.k >> 3) + 1)
        for i in self.odd_indices():
            bitmap[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bitmap, "little")


def column_profile(m: BinaryMatrix) -> ColumnProfile:
    """Count each nonzero column pattern of m; zero columns counted apart."""
    if m.k > PROFILE_K_CAP:
        raise CapExceededError(f"column profile supports k <= {PROFILE_K_CAP}")
    counts = dict(_index_counts(m.rows, m.n))
    zero_count = counts.pop(0, 0)
    return ColumnProfile(m.k, counts, zero_count)


def is_so_profile(m: BinaryMatrix) -> bool:
    """Self-orthogonality via column statistics, any dimension.

    Equivalent to gram(m) == 0, but decided from the column profile alone:
    every pair of bit positions (including a position with itself) must be
    jointly set in an even number of columns.
    """
    return _is_so_columns(column_profile(m))


def _is_so_columns(p: ColumnProfile) -> bool:
    """is_so_profile from p: the Gram matrix of p's odd-multiplicity
    columns, one copy of each, is zero (an even multiplicity cancels)."""
    return not any(_pair_parities(_column_rows(p.k, p.odd_indices())))


def is_so_dim_check(p: ColumnProfile) -> bool:
    """The closed-form test for k = 2, 3, 4: the parity rule flips nothing."""
    if not 2 <= p.k <= 4:
        raise WrongDimensionError(f"no closed-form test for dimension {p.k}")
    return not any(_parity_flips(p.parity_mask(), p.k))


def so_verdicts(m: BinaryMatrix, p: ColumnProfile) -> dict[str, bool]:
    """All applicable self-orthogonality verdicts for m, whose column
    profile p the caller has built."""
    out = {
        "gram_zero": gram(m).is_zero(),
        "column_test": _is_so_columns(p),
    }
    if 2 <= m.k <= 4:
        out[f"dim{m.k}_test"] = is_so_dim_check(p)
    return out


# ---------------------------------------------------------------------------
# the parity rule for k <= 4 rows
#
# Such a matrix is self-orthogonal exactly when its column multiplicities
# have constant parity on every index class, and its shortest embedding
# flips the minority of each class.  For k <= 2 each index is its own class;
# for k = 3 the indices 1..7 are one.  For k = 4, index i in 1..15 is a
# nonzero vector of F_2^4 (bit j of i is its j-th coordinate), and the
# classes are those of some split s = 1..15, which cuts {1..15} along the
# hyperplane orthogonal to rev4(s), the 4 bits of s reversed: the 8-class
# holds the i with <i, rev4(s)> = 1 and the 7-class the nonzero vectors of
# the hyperplane itself.  The pair families group the 14 indices other than
# s into the pairs (x, x ^ s); `tables --dump` prints them with the classes.

Pair = tuple[int, int]


def _rev4(s: int) -> int:
    return int(f"{s:04b}"[::-1], 2)


def _pair_families(s: int) -> tuple[tuple[Pair, ...], tuple[Pair, ...]]:
    """The pairs (x, x ^ s), x the member without s's top bit t, by
    ascending x; a pair is small when x also lacks the highest other bit."""
    t = s.bit_length() - 1
    u = 2 if t == 3 else 3
    pairs = [(x, x ^ s) for x in range(1, 16) if not x >> t & 1]
    return (
        tuple(p for p in pairs if not p[0] >> u & 1),
        tuple(p for p in pairs if p[0] >> u & 1),
    )


# Bit i set for index i; the 8-class of split s is CLASS8_MASKS[s - 1].
CLASS8_MASKS: tuple[int, ...] = tuple(_hit_masks(4)[_rev4(s)] for s in range(1, 16))
CLASS7_MASKS: tuple[int, ...] = tuple(0xFFFE ^ m for m in CLASS8_MASKS)


def _class_flips(odd_mask: int, cls: int, odd_on_tie: bool = True) -> int:
    """The indices of class cls whose parity to flip so that it is constant
    there: the minority parity, or on a tie the odd half if odd_on_tie."""
    odd = odd_mask & cls
    twice = 2 * odd.bit_count()
    size = cls.bit_count()
    return odd if twice < size or twice == size and odd_on_tie else cls ^ odd


def _split_count(in7: int, in8: int) -> int:
    """Columns a split appends to a pattern with in7 odd indices in its
    7-class and in8 in its 8-class: the minority of each class."""
    return min(in7, 7 - in7) + min(in8, 8 - in8)


def _dim4_projected_counts(odd_mask: int) -> list[int]:
    """Projected append counts n1[s] + n2[s] for every split, 0-indexed."""
    return [
        _split_count((odd_mask & m7).bit_count(), (odd_mask & m8).bit_count())
        for m7, m8 in zip(CLASS7_MASKS, CLASS8_MASKS)
    ]


def _parity_flips(
    odd: int, k: int, s0: int | None = None, odd_on_tie: bool = True
) -> tuple[int, ...]:
    """The indices whose multiplicity parity to flip, one mask per index
    class in append order, to make a matrix of k <= 4 rows with
    odd-multiplicity indices odd self-orthogonal in the fewest flips.  At
    k = 4 the classes are those of split s0, by default the first that
    minimizes; an s0 that does not minimize raises InvalidPolicyError.
    odd_on_tie flips the odd half of a tied 8-class, else the even half."""
    if k <= 2:
        return (odd,)
    if k == 3:
        return (_class_flips(odd, 0b11111110),)
    totals = _dim4_projected_counts(odd)
    best = min(totals)
    if s0 is None:
        s0 = totals.index(best) + 1
    elif totals[s0 - 1] != best:
        raise InvalidPolicyError(
            f"s0={s0} appends {totals[s0 - 1]} columns, minimum is {best}"
        )
    return (
        _class_flips(odd, CLASS7_MASKS[s0 - 1]),
        _class_flips(odd, CLASS8_MASKS[s0 - 1], odd_on_tie),
    )


def dim4_tables_json() -> dict:
    """The 15 pair families and index classes, 1-based in s, for `tables --dump`."""
    families = [_pair_families(s) for s in range(1, 16)]
    return {
        "pairs": [
            {
                "s": s,
                "small": [list(p) for p in small],
                "large": [list(p) for p in large],
            }
            for s, (small, large) in enumerate(families, start=1)
        ],
        "classes": [
            {"s": s, "seven": _bits(m7), "eight": _bits(m8)}
            for s, (m7, m8) in enumerate(zip(CLASS7_MASKS, CLASS8_MASKS), start=1)
        ],
    }


# ---------------------------------------------------------------------------
# the column-multiset algebra: a code as the multiplicities of its columns


def matrix_from_profile(p: ColumnProfile) -> BinaryMatrix:
    """A matrix realizing a profile: columns ascending by index, zeros last."""
    cols = [i for i, c in p.counts.items() for _ in range(c)]
    base = BinaryMatrix(p.k, 0, (0,) * p.k)
    return horizontal_join(base, cols + [0] * p.zero_count)


@lru_cache(maxsize=None)
def _hit_vectors(k: int) -> tuple[tuple[int, ...], ...]:
    """_hit_masks(k) unpacked: hit[i][x] is bit x of hit mask i."""
    return tuple(tuple(h >> x & 1 for x in range(1 << k)) for h in _hit_masks(k))


def _add_column(t: Sequence[int], hit: Sequence[int], c: int) -> list[int]:
    """Message weights t after c more copies of the column with hit vector hit."""
    return [v + c * h for v, h in zip(t, hit)]


def _profile_weights(k: int, counts: Sequence[int]) -> list[int]:
    """Message weights t[x], x = 1 .. 2**k - 1, of the code with counts[i]
    columns of index i; zero columns (counts[0]) weigh nothing, t[0] = 0."""
    t = [0] * (1 << k)
    for hit, c in zip(_hit_vectors(k), counts):
        if c:
            t = _add_column(t, hit, c)
    return t


def _gram_mask(rows: Sequence[int]) -> int:
    """The Gram matrix of the matrix with these rows, packed into an int.

    Bit positions enumerate the pairs (i, j), i <= j, of the symmetric
    k x k matrix, row-major.  It is the XOR of the columns' outer products
    (_sym_masks), and so that of the odd-multiplicity columns' own rows,
    _gram_mask(_column_rows(k, odd)).
    """
    return sum(p << pos for pos, p in enumerate(_pair_parities(rows)))


@lru_cache(maxsize=None)
def _sym_masks(k: int) -> tuple[int, ...]:
    """The outer product of each column index i = 0 .. 2**k - 1 with
    itself, the packed Gram matrix of column i alone, once per k.  XOR of
    these masks tracks how appended columns change the Gram matrix."""
    return tuple(_gram_mask(_column_rows(k, [i])) for i in range(1 << k))


@lru_cache(maxsize=None)
def _parity_kernel_basis(k: int) -> tuple[int, ...]:
    """Index sets (as bitmasks) whose columns' outer products cancel.

    Flipping the multiplicity parity on such a set preserves the Gram
    matrix, so these are the self-orthogonality-preserving parity moves.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i in range(1, 1 << k):
        v, t = _sym_masks(k)[i], 1 << i
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                pv, pt = pivots[p]
                v ^= pv
                t ^= pt
            else:
                pivots[p] = (v, t)
                break
        else:
            kernel.append(t)
    return tuple(kernel)


@lru_cache(maxsize=None)
def _so_parity_masks(k: int) -> tuple[int, ...]:
    """All multiplicity-parity vectors (bit i = parity of ell_i) that give
    a self-orthogonal code: the span of the parity kernel, ascending."""
    return tuple(sorted(_span(_parity_kernel_basis(k))))


__all__ = [
    "ColumnProfile",
    "column_profile",
    "is_so_profile",
    "is_so_dim_check",
    "matrix_from_profile",
    "so_verdicts",
]
