"""Shortest self-orthogonal embeddings by column appending.

Dimensions 2..4 use the parity characterizations to append the provably
minimal number of columns; dimension 5 and up peel rows that can be made
orthogonal to everything, reduce to the dimension-4 case, and reinsert the
peeled rows zero-padded.  Appended columns are always of the form
h_column(k', i) for the row count k' in effect at that step.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import InvalidPolicyError, RankDeficientError, WrongDimensionError
from .gf2 import BinaryMatrix, _row_ip, gram, h_column, horizontal_join, rank
from .profiles import column_index, column_profile
from .tables import CLASS7_MASKS, CLASS8_MASKS

TIE4_INTERSECT = "intersect"
TIE4_DIFFERENCE = "difference"


@dataclass(frozen=True)
class EmbedPolicy:
    """Tunable choices in the dimension-4 algorithm.

    s0: a fixed split index to use instead of the smallest minimizer; it
        must still minimize the projected column count (validated at use).
    tie4: how to treat the 8-class when exactly half its indices are odd:
        flip the odd half ("intersect", the default) or the even half
        ("difference").  Both yield shortest embeddings.
    """

    s0: int | None = None
    tie4: str = TIE4_INTERSECT

    def __post_init__(self):
        if self.s0 is not None and not 1 <= self.s0 <= 15:
            raise InvalidPolicyError("s0 must be in 1..15")
        if self.tie4 not in (TIE4_INTERSECT, TIE4_DIFFERENCE):
            raise InvalidPolicyError(f"unknown tie4 rule {self.tie4!r}")


DEFAULT_POLICY = EmbedPolicy()


@dataclass(frozen=True)
class EmbedReport:
    """Result of an embedding run.

    added lists (level_rows, index) per appended column: the column was
    h_column(level_rows, index) at the step where the working matrix had
    level_rows rows.
    """

    input: BinaryMatrix
    added: tuple[tuple[int, int], ...]
    output: BinaryMatrix
    policy: EmbedPolicy = DEFAULT_POLICY
    rank_deficient: bool = False

    @property
    def added_count(self) -> int:
        return len(self.added)

    @property
    def so_verified(self) -> bool:
        return gram(self.output).is_zero()

    def to_json_dict(self) -> dict:
        return {
            "input_dims": [self.input.k, self.input.n],
            "added": [
                {"level_rows": lv, "index": idx} for lv, idx in self.added
            ],
            "added_count": self.added_count,
            "output": self.output.to_text(),
            "policy": {"s0": self.policy.s0, "tie4": self.policy.tie4},
            "so_verified": self.so_verified,
            "rank_deficient": self.rank_deficient,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _require_k(m: BinaryMatrix, k: int) -> None:
    if m.k != k:
        raise WrongDimensionError(f"matrix has {m.k} rows, need {k}")


def _append_h(g: BinaryMatrix, added: list[tuple[int, int]]) -> BinaryMatrix:
    """g with the columns h_column(level, index) of added appended, in order."""
    return horizontal_join(g, [h_column(lv, i) for lv, i in added])


def embed_dim2(g: BinaryMatrix) -> EmbedReport:
    """Append h_i once for each of i = 1, 2, 3 with odd multiplicity."""
    _require_k(g, 2)
    odd = column_profile(g).parity_mask()
    added = [(2, i) for i in (1, 2, 3) if odd >> i & 1]
    return EmbedReport(input=g, added=tuple(added), output=_append_h(g, added))


def embed_dim3(g: BinaryMatrix) -> EmbedReport:
    """Flip the smaller parity class into the larger, one index at a time."""
    _require_k(g, 3)
    full = 0b11111110  # indices 1..7
    odd = column_profile(g).parity_mask()
    added = []
    while odd and odd != full:
        even = full ^ odd
        smaller = even if even.bit_count() < odd.bit_count() else odd
        i0 = (smaller & -smaller).bit_length() - 1
        added.append((3, i0))
        odd ^= 1 << i0
    return EmbedReport(input=g, added=tuple(added), output=_append_h(g, added))


def _dim4_projected_counts(odd_mask: int) -> list[int]:
    """Projected append counts n1[s] + n2[s] for every split, 0-indexed."""
    totals = []
    for s in range(15):
        in7 = (odd_mask & CLASS7_MASKS[s]).bit_count()
        n1 = in7 if in7 < 4 else 7 - in7
        in8 = (odd_mask & CLASS8_MASKS[s]).bit_count()
        n2 = in8 if in8 <= 4 else 8 - in8
        totals.append(n1 + n2)
    return totals


def embed_dim4(g: BinaryMatrix, policy: EmbedPolicy = DEFAULT_POLICY) -> EmbedReport:
    """Pick the cheapest split, then flip the minority parity on each class."""
    _require_k(g, 4)
    odd = column_profile(g).parity_mask()
    totals = _dim4_projected_counts(odd)
    best = min(totals)
    if policy.s0 is None:
        s0 = totals.index(best) + 1
    else:
        s0 = policy.s0
        if totals[s0 - 1] != best:
            raise InvalidPolicyError(
                f"s0={s0} appends {totals[s0 - 1]} columns, minimum is {best}"
            )
    added = []
    mask7 = CLASS7_MASKS[s0 - 1]
    mask8 = CLASS8_MASKS[s0 - 1]
    # 7-class loop: flip minority-parity indices until the class is constant.
    while True:
        inter = odd & mask7
        work = inter if inter.bit_count() < 4 else inter ^ mask7
        if not work:
            break
        i0 = (work & -work).bit_length() - 1
        added.append((4, i0))
        odd ^= 1 << i0
    # 8-class loop; the tie rule decides which half to flip at exactly 4.
    while True:
        inter = odd & mask8
        c = inter.bit_count()
        if c < 4 or (c == 4 and policy.tie4 == TIE4_INTERSECT):
            work = inter
        else:
            work = inter ^ mask8
        if not work:
            break
        i0 = (work & -work).bit_length() - 1
        added.append((4, i0))
        odd ^= 1 << i0
    out = _append_h(g, added)
    return EmbedReport(input=g, added=tuple(added), output=out, policy=policy)


def embed_recursive(g: BinaryMatrix) -> EmbedReport:
    """Peel rows down to dimension 4, embed there, reinsert zero-padded rows.

    At each level the first row orthogonal to all rows (itself included) is
    set aside unchanged.  Failing that, a row with odd self-product gets one
    correction column; if all self-products are even, the first row gets two.
    """
    if g.k < 5:
        raise WrongDimensionError(f"matrix has {g.k} rows, need >= 5")
    cur = g
    added: list[tuple[int, int]] = []
    peeled: list[tuple[int, int]] = []  # (row position, row bits)
    while cur.k > 4:
        k = cur.k
        rows = cur.rows
        j0 = next(
            (
                i
                for i in range(k)
                if all(_row_ip(rows[i], rows[j]) == 0 for j in range(k))
            ),
            None,
        )
        if j0 is None:
            j0 = next((i for i in range(k) if _row_ip(rows[i], rows[i])), None)
            if j0 is not None:
                col = tuple(_row_ip(rows[i], rows[j0]) for i in range(k))
                cur = horizontal_join(cur, [col])
                added.append((k, column_index(col)))
            else:
                j0 = 0
                y = tuple(_row_ip(rows[i], rows[0]) for i in range(k))
                col1 = (1,) + y[1:]
                col2 = (1,) + (0,) * (k - 1)
                cur = horizontal_join(cur, [col1, col2])
                added.append((k, column_index(col1)))
                added.append((k, column_index(col2)))
        peeled.append((j0, cur.rows[j0]))
        cur = cur.delete_row(j0)
    rep4 = embed_dim4(cur, DEFAULT_POLICY)
    added.extend(rep4.added)
    out_rows = list(rep4.output.rows)
    for pos, row in reversed(peeled):
        out_rows.insert(pos, row)  # int rows are implicitly zero-padded
    out = BinaryMatrix(g.k, rep4.output.n, tuple(out_rows))
    return EmbedReport(input=g, added=tuple(added), output=out)


def embed(
    g: BinaryMatrix,
    policy: EmbedPolicy = DEFAULT_POLICY,
    allow_rank_deficient: bool = False,
) -> EmbedReport:
    """Embed any-dimension generator matrix into a self-orthogonal one."""
    deficient = rank(g) < g.k
    if deficient and not allow_rank_deficient:
        raise RankDeficientError(
            f"rank {rank(g)} < {g.k}; pass allow_rank_deficient=True to force"
        )
    if g.k == 1:
        if g.rows[0].bit_count() & 1:
            out = horizontal_join(g, [(1,)])
            rep = EmbedReport(input=g, added=((1, 1),), output=out)
        else:
            rep = EmbedReport(input=g, added=(), output=g)
    elif g.k == 2:
        rep = embed_dim2(g)
    elif g.k == 3:
        rep = embed_dim3(g)
    elif g.k == 4:
        rep = embed_dim4(g, policy)
    else:
        rep = embed_recursive(g)
    if deficient:
        rep = dataclasses.replace(rep, rank_deficient=True)
    return rep
