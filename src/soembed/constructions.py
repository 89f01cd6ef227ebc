"""Optimal codes at any length from simplex juxtaposition over seed codes.

A seed [t, k] code with the best distance for its length, prefixed by s
copies of the simplex generator, realizes the best distance at length
n = (2**k - 1) s + t: each simplex block adds exactly 2**(k-1) to every
nonzero codeword weight.  Each seed has a recipe here, a profile search or
a rule over simplex columns.  It runs the first time the seed is used, and
its result is verified by enumeration before it is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .distances import (
    STATUS_EXACT,
    STATUS_WITNESS,
    DistanceValue,
    d_opt,
    dso_opt,
)
from .embedding import embed
from .errors import (
    CapExceededError,
    DomainError,
    MissingSeedError,
    SoEmbedError,
)
from .gf2 import (
    BinaryMatrix,
    gram,
    horizontal_join,
    min_distance,
    parse_matrix,
    rank,
    simplex_matrix,
)
from .oracle import _search_profile
from .profiles import _so_parity_masks, matrix_from_profile

JUXTAPOSE_K_CAP = 20

Key = tuple[int, int, bool]
Recipe = tuple[str, Callable[[], BinaryMatrix]]


@dataclass(frozen=True)
class SeedEntry:
    t: int
    k: int
    so: bool
    matrix: BinaryMatrix
    declared_d: int
    provenance: str


class SeedRegistry:
    """Seed recipes keyed by (t, k, so); each seed is derived and verified
    on first use, then cached."""

    def __init__(self, entries: dict[Key, Recipe]):
        self.entries = entries
        self._seeds: dict[Key, SeedEntry] = {}

    def get(self, t: int, k: int, so: bool) -> SeedEntry:
        key = (t, k, so)
        entry = self._seeds.get(key)
        if entry is None:
            if key not in self.entries:
                raise MissingSeedError(t, k, so)
            provenance, make = self.entries[key]
            declared = (dso_opt if so else d_opt)(t, k).value
            entry = SeedEntry(t, k, so, make(), declared, provenance)
            _validate_seed(entry)
            self._seeds[key] = entry
        return entry

    def lengths(self, k: int, so: bool) -> list[int]:
        return sorted(t for (t, kk, s) in self.entries if kk == k and s == so)


def _validate_seed(entry: SeedEntry) -> None:
    m = entry.matrix
    where = f"seed t={entry.t} k={entry.k} so={entry.so} ({entry.provenance})"
    if m.k != entry.k or m.n != entry.t:
        raise SoEmbedError(f"{where}: matrix is {m.k} x {m.n}")
    if rank(m) != entry.k:
        raise SoEmbedError(f"{where}: seed is not full rank")
    if min_distance(m) != entry.declared_d:
        raise SoEmbedError(f"{where}: seed distance differs from declared")
    if entry.so and not gram(m).is_zero():
        raise SoEmbedError(f"{where}: seed is not self-orthogonal")


# ---------------------------------------------------------------------------
# seed recipes


def _columns(k: int, cols: Sequence[int]) -> BinaryMatrix:
    """The k-row matrix whose columns have the given indices, in order."""
    return horizontal_join(BinaryMatrix(k, 0, (0,) * k), cols)


def _searched(t: int, k: int, so: bool) -> BinaryMatrix:
    """The first profile the exhaustive search finds at the formula's
    distance, columns ascending."""
    d = (dso_opt if so else d_opt)(t, k).value
    profile = _search_profile(t, k, d, _so_parity_masks(k) if so else None)
    if profile is None:
        raise SoEmbedError(f"no [{t},{k}] profile reaches distance {d}")
    return matrix_from_profile(profile)


def _padded(base: Sequence[int], extra: int) -> list[int]:
    """base followed by extra columns that keep a code self-orthogonal: its
    leading columns repeated in pairs, then one zero column if extra is odd."""
    pairs = [c for c in base[: extra // 2] for _ in range(2)]
    return [*base, *pairs, *[0] * (extra % 2)]


def _embedded_9_5() -> BinaryMatrix:
    """The shortest self-orthogonal embedding of a fixed [9, 5] code."""
    base = parse_matrix("000011111\n000100111\n001001011\n010001101\n100001110")
    return embed(base).output


def _recipes() -> dict[Key, Recipe]:
    out: dict[Key, Recipe] = {}

    def columns(t: int, k: int, so: bool, how: str, cols: Sequence[int]) -> None:
        out[t, k, so] = (how, partial(_columns, k, cols))

    searched = ((3, False, range(3, 10)), (3, True, range(6, 13)),
                (4, False, range(4, 11)), (4, True, range(8, 15)))
    for k, so, ts in searched:
        for t in ts:
            out[t, k, so] = ("exhaustive profile search", partial(_searched, t, k, so))
    # Where the search is slow, the same matrix from a rule (the simplex
    # less a few columns, an anticode, or doubled in part) or listed.
    h4 = range(1, 16)
    columns(11, 4, False, "simplex less a line and a point",
            [c for c in h4 if c not in (3, 13, 14, 15)])
    columns(12, 4, False, "simplex less a line", [c for c in h4 if c not in (1, 14, 15)])
    columns(13, 4, False, "profile search witness", [3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11])
    columns(14, 4, False, "simplex less a point", h4[:-1])
    for t in range(15, 19):
        columns(t, 4, False, "simplex padding", [*h4, *[0] * (t - 15)])
    for t in range(15, 21):
        columns(t, 4, True, "simplex padding", _padded(h4, t - 15))
    half_doubled = [*range(1, 8), *[c for c in range(8, 15) for _ in range(2)]]
    for t in (21, 22):
        columns(t, 4, True, "columns 8..14 doubled", _padded(half_doubled, t - 21))
    columns(28, 4, True, "doubled simplex less a pair",
            [c for c in h4[:-1] for _ in range(2)])
    out[11, 5, True] = ("embedding of a fixed [9,5] code", _embedded_9_5)
    out[12, 5, True] = ("embedding of a fixed [9,5] code, zero padded",
                        lambda: horizontal_join(_embedded_9_5(), [0]))
    columns(15, 5, True, "randomized search witness (rng seed 7)",
            [1, 2, 4, 5, 7, 10, 12, 13, 14, 17, 20, 25, 26, 27, 29])
    for t in range(16, 21):
        columns(t, 5, True, "top-bit column family", _padded(range(16, 32), t - 16))
    return out


def juxtapose_simplex(seed: BinaryMatrix, s: int) -> BinaryMatrix:
    """s simplex blocks followed by the seed columns."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if seed.k > JUXTAPOSE_K_CAP:
        raise CapExceededError(f"juxtaposition supports k <= {JUXTAPOSE_K_CAP}")
    if s == 0:
        return seed
    block = simplex_matrix(seed.k)
    width = s * block.n
    rows = []
    for i in range(seed.k):
        # Double the run of copies until it covers s, then cut it to s.
        acc, copies = block.rows[i], 1
        while copies < s:
            acc |= acc << (copies * block.n)
            copies <<= 1
        rows.append(acc & ((1 << width) - 1) | seed.rows[i] << width)
    return BinaryMatrix(seed.k, width + seed.n, tuple(rows))


_REGISTRY: SeedRegistry | None = None


def registry() -> SeedRegistry:
    """The default registry, made once per process; its seeds are derived
    as they are first used."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = SeedRegistry(_recipes())
    return _REGISTRY


def build_optimal(n: int, k: int, so: bool = False) -> tuple[BinaryMatrix, DistanceValue]:
    """A length-n dimension-k code hitting the optimal distance where known.

    Evaluates the formula first, so a length or dimension outside its
    domain, or one where no self-orthogonal code exists, is refused before
    any seed is looked up.  Then decomposes n = (2**k - 1) s + t over the
    largest registry seed of the right residue and verifies the built
    distance by enumeration.  Status is exact when it matches the known
    optimum, else the achieved distance is reported as a witness.
    """
    if k < 1 or n < k:
        raise DomainError(f"need 1 <= k <= n, got n={n} k={k}")
    target = (dso_opt if so else d_opt)(n, k)
    period = (1 << k) - 1
    reg = registry()
    candidates = [
        t for t in reg.lengths(k, so) if t <= n and (n - t) % period == 0
    ]
    if not candidates:
        wanted = n % period + (period if n >= period else 0)
        raise MissingSeedError(wanted, k, so)
    t = max(candidates)
    entry = reg.get(t, k, so)
    built = juxtapose_simplex(entry.matrix, (n - t) // period)
    achieved = min_distance(built)
    if target.status == STATUS_EXACT and achieved == target.value:
        value = DistanceValue(achieved, STATUS_EXACT, target.source)
    else:
        value = DistanceValue(achieved, STATUS_WITNESS, "juxtaposition")
    return built, value
