"""Shortest self-orthogonal embeddings by column appending.

`embed` is the one entry point, for every dimension k.  One routine peels
rows, reading only the Gram matrix, until at most 4 are live; the parity
rule of the dimension left then appends the provably minimal number of
columns.  A column appended while k' rows are live is index i on those
rows (see gf2.horizontal_join) and 0 on the peeled ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidPolicyError, RankDeficientError
from .gf2 import BinaryMatrix, _bits, gram, rank
from .profiles import _parity_flips, column_profile

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

    Both act at the dimension-4 step, which every k >= 4 reaches; below it
    a policy other than the default is refused.
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

    added lists (level_rows, index) per appended column: the column had
    that index (as in gf2.horizontal_join) on the level_rows rows the
    working matrix had at that step.
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


def _flip_masks(odd: int, k: int, policy: EmbedPolicy) -> tuple[int, ...]:
    """The parity rule's flips (profiles._parity_flips) for a matrix of k <= 4
    rows with odd-multiplicity indices odd, once the policy is checked."""
    if k < 4 and policy != DEFAULT_POLICY:
        raise InvalidPolicyError(
            f"a policy needs the dimension-4 step; the matrix has {k} rows"
        )
    return _parity_flips(odd, k, policy.s0, policy.tie4 == TIE4_INTERSECT)


def _embed(g: BinaryMatrix, policy: EmbedPolicy, rank_deficient: bool) -> EmbedReport:
    """Peel rows until at most 4 are live, then apply their parity rule.

    A row orthogonal to every live row (itself included) is peeled as is.
    Failing that, a row with odd self-product gets one correction column,
    its Gram column; if all self-products are even, the first row gets two.
    """
    # Bit j of grams[i] is <row i, row j>; appending a column c adds c c^T.
    # A peeled row is orthogonal to every row left, so no row left has a
    # Gram bit at a peeled position.
    grams = list(gram(g).rows)
    rows = list(g.rows)
    live = list(range(g.k))  # the rows not yet peeled, in order
    added: list[tuple[int, int]] = []

    def append(c: int) -> None:
        """Append the column with a 1 on each live row i with bit i of c;
        peeled rows get a 0, which their ints need no padding for."""
        added.append((len(live), int("".join("01"[c >> i & 1] for i in live), 2)))
        bit = 1 << (g.n + len(added) - 1)
        for i in live:
            if c >> i & 1:
                grams[i] ^= c
                rows[i] |= bit

    while len(live) > 4:
        j0 = next((i for i in live if not grams[i]), None)
        if j0 is None:
            j0 = next((i for i in live if grams[i] >> i & 1), None)
            if j0 is not None:
                append(grams[j0])
            else:
                j0 = live[0]
                append(grams[j0] | 1 << j0)
                append(1 << j0)
        live.remove(j0)
    left = BinaryMatrix(len(live), g.n + len(added), tuple(rows[i] for i in live))
    odd = column_profile(left).parity_mask()
    bottom_up = live[::-1]  # bit p of an index is row bottom_up[p]
    for mask in _flip_masks(odd, len(live), policy):
        for index in _bits(mask):
            append(sum(1 << i for p, i in enumerate(bottom_up) if index >> p & 1))
    out = BinaryMatrix(g.k, g.n + len(added), tuple(rows))
    return EmbedReport(g, tuple(added), out, policy, rank_deficient)


def embed(
    g: BinaryMatrix,
    policy: EmbedPolicy = DEFAULT_POLICY,
    allow_rank_deficient: bool = False,
) -> EmbedReport:
    """Embed a generator matrix of any dimension into a self-orthogonal one.

    policy applies at the dimension-4 step, which every k >= 4 reaches; for
    k <= 3 anything but the default raises InvalidPolicyError.
    """
    r = rank(g)
    if r < g.k and not allow_rank_deficient:
        raise RankDeficientError(
            f"rank {r} < {g.k}; pass allow_rank_deficient=True to force"
        )
    return _embed(g, policy, r < g.k)
