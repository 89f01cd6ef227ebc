"""Column-multiplicity characterizations of self-orthogonality.

A matrix's column profile counts how many of its columns equal each of the
2**k - 1 nonzero binary columns.  Self-orthogonality is decidable from the
profile alone: in general as evenness of all pairwise column-intersection
counts, and in dimensions 2..4 as parity-constancy conditions on the
multiplicities (dimension 4 uses the 15 index-class splits of
:mod:`soembed.tables`, the hyperplanes of F_2^4).

This module is also the one home of the column-multiset algebra that the
oracles, the embeddings and the seed generator share: the codeword weights
of a multiset of columns, the Gram matrix packed as a syndrome with one
outer product per column, and the kernel of self-orthogonal parity
patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import CapExceededError, WrongDimensionError
from .gf2 import (
    BinaryMatrix,
    _hit_masks,
    _index_bit_mask,
    _row_ip,
    _split_columns,
    gram,
    h_column,
    horizontal_join,
)
from .tables import _class_flips, _dim4_projected_counts

# 2**24 counts take ~0.3 GiB and seconds to fill; each further row doubles both.
PROFILE_K_CAP = 24


@dataclass(frozen=True)
class ColumnProfile:
    """Multiplicities of the nonzero columns, plus the zero-column count.

    ell[i - 1] is the multiplicity of column index i; zero columns are
    tracked separately and never enter any parity condition.
    """

    k: int
    ell: tuple[int, ...]
    zero_count: int

    def __post_init__(self):
        if len(self.ell) != (1 << self.k) - 1:
            raise ValueError("profile length must be 2**k - 1")
        if self.zero_count < 0 or min(self.ell, default=0) < 0:
            raise ValueError("multiplicities must be nonnegative")

    @property
    def n(self) -> int:
        return self.zero_count + sum(self.ell)

    def count(self, i: int) -> int:
        """Multiplicity of column index i (0 gives the zero-column count)."""
        if i == 0:
            return self.zero_count
        return self.ell[i - 1]

    def parity_mask(self) -> int:
        """Bit i set iff ell_i is odd."""
        return int("".join("01"[c & 1] for c in reversed(self.ell)) + "0", 2)


def column_profile(m: BinaryMatrix) -> ColumnProfile:
    """Count each nonzero column pattern of m; zero columns counted apart."""
    counts = _column_counts(m)
    zero_count = counts.pop(0)  # in place: a slice would be a third 2**k list
    return ColumnProfile(m.k, tuple(counts), zero_count)


def _column_counts(m: BinaryMatrix) -> list[int]:
    """counts[i] = number of columns of m with index i (i = 0: zero columns).

    One depth-first split of the columns by the rows (gf2._split_columns),
    each row tagged with its bit of the column index.  The 2**k counts are
    refused above k = PROFILE_K_CAP.
    """
    if m.k > PROFILE_K_CAP:
        raise CapExceededError(f"column profile supports k <= {PROFILE_K_CAP}")
    counts = [0] * (1 << m.k)
    tags = [1 << (m.k - 1 - pos) for pos in range(m.k)]
    for idx, cols in _split_columns(m.rows, m.n, tags):
        counts[idx] = cols.bit_count()
    return counts


@lru_cache(maxsize=None)
def _bit_masks(k: int) -> tuple[int, ...]:
    """_index_bit_mask(k, b) for b = 0 .. k - 1, built once per k.

    Only these k masks of 2**k bits are kept; a pair mask is one AND of two
    of them, so the k(k + 1)/2 pair masks never need to be held at once.
    """
    return tuple(_index_bit_mask(k, b) for b in range(k))


def is_so_profile(m: BinaryMatrix) -> bool:
    """Self-orthogonality via column statistics, any dimension.

    Equivalent to gram(m) == 0, but decided from the column profile alone:
    every pair of bit positions (including a position with itself) must be
    jointly set in an even number of columns.
    """
    return _is_so_odd_mask(m.k, column_profile(m).parity_mask())


def _is_so_odd_mask(k: int, odd_mask: int) -> bool:
    """is_so_profile from the mask of odd multiplicities (bit i for index i)."""
    masks = _bit_masks(k)
    for j, mask in enumerate(masks):
        odd_j = odd_mask & mask
        for mask2 in masks[j:]:
            if (odd_j & mask2).bit_count() & 1:
                return False
    return True


def _require_dim(p: ColumnProfile, k: int) -> None:
    if p.k != k:
        raise WrongDimensionError(f"profile has dimension {p.k}, need {k}")


def is_so_dim2(p: ColumnProfile) -> bool:
    """Dimension-2 test: all three multiplicities even."""
    _require_dim(p, 2)
    return all(c % 2 == 0 for c in p.ell)


def is_so_dim3(p: ColumnProfile) -> bool:
    """Dimension-3 test: the seven multiplicities share one parity."""
    _require_dim(p, 3)
    return not _class_flips(p.parity_mask(), 0b11111110)


def is_so_dim4(p: ColumnProfile) -> bool:
    """Dimension-4 test: some split has parity-constant multiplicities on
    both of its index classes."""
    _require_dim(p, 4)
    return min(_dim4_projected_counts(p.parity_mask())) == 0


def is_so_dim_check(p: ColumnProfile) -> bool:
    """Dispatch to the closed-form test for k = 2, 3, 4."""
    if p.k == 2:
        return is_so_dim2(p)
    if p.k == 3:
        return is_so_dim3(p)
    if p.k == 4:
        return is_so_dim4(p)
    raise WrongDimensionError(f"no closed-form test for dimension {p.k}")


def so_verdicts(m: BinaryMatrix, p: ColumnProfile) -> dict[str, bool]:
    """All applicable self-orthogonality verdicts for m, whose column
    profile p the caller has built."""
    out = {
        "gram_zero": gram(m).is_zero(),
        "column_test": _is_so_odd_mask(p.k, p.parity_mask()),
    }
    if 2 <= m.k <= 4:
        out[f"dim{m.k}_test"] = is_so_dim_check(p)
    return out


# ---------------------------------------------------------------------------
# the column-multiset algebra: a code as the multiplicities of its columns


def matrix_from_profile(p: ColumnProfile) -> BinaryMatrix:
    """A matrix realizing a profile: columns ascending by index, zeros last."""
    cols = []
    for i in range(1, (1 << p.k)):
        cols.extend([h_column(p.k, i)] * p.count(i))
    cols.extend([(0,) * p.k] * p.zero_count)
    base = BinaryMatrix(p.k, 0, (0,) * p.k)
    return horizontal_join(base, cols)


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


def _sym_mask(col_bits: int, k: int) -> int:
    """Pack the outer product of a column with itself into an int.

    Bit positions enumerate the pairs (i, j), i <= j, of a symmetric k x k
    bit matrix.  XOR of these masks tracks how appended columns change the
    Gram matrix.
    """
    acc = 0
    pos = 0
    for i in range(k):
        bi = (col_bits >> (k - 1 - i)) & 1
        for j in range(i, k):
            bj = (col_bits >> (k - 1 - j)) & 1
            acc |= (bi & bj) << pos
            pos += 1
    return acc


@lru_cache(maxsize=None)
def _sym_masks(k: int) -> tuple[int, ...]:
    """_sym_mask(i, k) for each column index i = 0 .. 2**k - 1, once per k."""
    return tuple(_sym_mask(i, k) for i in range(1 << k))


def _gram_mask(m: BinaryMatrix) -> int:
    """The Gram matrix of m packed like _sym_mask: the XOR of _sym_mask over
    the indices of odd multiplicity."""
    acc = 0
    pos = 0
    for i in range(m.k):
        for j in range(i, m.k):
            acc |= _row_ip(m.rows[i], m.rows[j]) << pos
            pos += 1
    return acc


def _parity_kernel_basis(k: int) -> list[int]:
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
    return kernel


@lru_cache(maxsize=None)
def _so_parity_masks(k: int) -> tuple[int, ...]:
    """All multiplicity-parity vectors (bit i = parity of ell_i) that give
    a self-orthogonal code: the span of the parity kernel, ascending."""
    span = [0]
    for b in _parity_kernel_basis(k):
        span += [m ^ b for m in span]
    return tuple(sorted(span))


__all__ = [
    "ColumnProfile",
    "column_profile",
    "is_so_profile",
    "is_so_dim2",
    "is_so_dim3",
    "is_so_dim4",
    "is_so_dim_check",
    "matrix_from_profile",
    "so_verdicts",
]
