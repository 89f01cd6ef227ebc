"""Shortest self-orthogonal embeddings by column appending.

Dimensions 1..4 use the parity characterizations to append the provably
minimal number of columns; dimension 5 and up peel rows that can be made
orthogonal to everything, reduce to the dimension-4 case, and reinsert the
peeled rows zero-padded.  The peel reads only the Gram matrix.  Appended
columns are always of the form h_column(k', i) for the row count k' in
effect at that step.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import InvalidPolicyError, RankDeficientError, WrongDimensionError
from .gf2 import BinaryMatrix, gram, h_column, horizontal_join, rank
from .profiles import column_profile
from .tables import CLASS7_MASKS, CLASS8_MASKS, _class_flips, _dim4_projected_counts

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


def _flip_report(
    g: BinaryMatrix, masks: tuple[int, ...], policy: EmbedPolicy = DEFAULT_POLICY
) -> EmbedReport:
    """Append h_column(g.k, i) once for each set bit i of each mask in turn,
    ascending within a mask: each column flips the parity of ell_i."""
    added = tuple(
        (g.k, i) for m in masks for i in range(m.bit_length()) if m >> i & 1
    )
    out = horizontal_join(g, [h_column(lv, i) for lv, i in added])
    return EmbedReport(input=g, added=added, output=out, policy=policy)


def embed_dim2(g: BinaryMatrix) -> EmbedReport:
    """Append h_i once for each index i with odd multiplicity (k = 1 or 2)."""
    if g.k > 2:
        _require_k(g, 2)
    return _flip_report(g, (column_profile(g).parity_mask(),))


def embed_dim3(g: BinaryMatrix) -> EmbedReport:
    """Flip the smaller parity class into the larger."""
    _require_k(g, 3)
    odd = column_profile(g).parity_mask()
    return _flip_report(g, (_class_flips(odd, 0b11111110),))


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
    # The tie rule decides which half of the 8-class to flip when exactly
    # 4 of its indices are odd.
    flips = (
        _class_flips(odd, CLASS7_MASKS[s0 - 1]),
        _class_flips(odd, CLASS8_MASKS[s0 - 1], policy.tie4 == TIE4_INTERSECT),
    )
    return _flip_report(g, flips, policy)


def embed_recursive(g: BinaryMatrix) -> EmbedReport:
    """Peel rows down to dimension 4, embed there, reinsert zero-padded rows.

    The peel reads only the Gram matrix, computed once: appending a column c
    adds c c^T to it.  At each level the first row orthogonal to all rows
    (itself included) is set aside unchanged.  Failing that, a row with odd
    self-product gets one correction column, its Gram column; if all
    self-products are even, the first row gets two.
    """
    if g.k < 5:
        raise WrongDimensionError(f"matrix has {g.k} rows, need >= 5")
    # Bit j of grams[i] is <row i, row j>.  A peeled row is orthogonal to
    # every row left, so no row left has a Gram bit at a peeled position.
    grams = list(gram(g).rows)
    rows = list(g.rows)
    live = list(range(g.k))  # the rows not yet peeled, in order
    n = g.n
    added: list[tuple[int, int]] = []
    while len(live) > 4:
        j0 = next((i for i in live if not grams[i]), None)
        if j0 is None:
            j0 = next((i for i in live if grams[i] >> i & 1), None)
            if j0 is not None:
                cols = [grams[j0]]
            else:
                j0 = live[0]
                cols = [grams[j0] | 1 << j0, 1 << j0]
            for c in cols:
                index = int("".join("01"[c >> i & 1] for i in live), 2)
                added.append((len(live), index))
                for i in live:
                    if c >> i & 1:
                        grams[i] ^= c
                        rows[i] |= 1 << n
                n += 1
        live.remove(j0)
    rep4 = embed_dim4(BinaryMatrix(4, n, tuple(rows[i] for i in live)))
    added.extend(rep4.added)
    for i, row in zip(live, rep4.output.rows):
        rows[i] = row  # peeled rows stay zero-padded: ints need no padding
    out = BinaryMatrix(g.k, rep4.output.n, tuple(rows))
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
    if g.k <= 2:
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
