"""Optimal codes at any length from simplex juxtaposition over seed codes.

A seed [t, k] code with the best distance for its length, prefixed by s
copies of the simplex generator, realizes the best distance at length
n = (2**k - 1) s + t: each simplex block adds exactly 2**(k-1) to every
nonzero codeword weight.  Seeds live as data files and are re-verified by
enumeration when loaded.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .distances import (
    STATUS_EXACT,
    STATUS_WITNESS,
    DistanceValue,
    d_opt,
    dso_opt,
)
from .errors import (
    CapExceededError,
    DomainError,
    MatrixParseError,
    MissingSeedError,
    SoEmbedError,
)
from .gf2 import (
    BinaryMatrix,
    gram,
    min_distance,
    parse_matrix,
    rank,
    simplex_matrix,
)

SEED_DIR_ENV = "SO_EMBED_SEED_DIR"
JUXTAPOSE_K_CAP = 20


def default_seed_dir() -> Path:
    override = os.environ.get(SEED_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "seeds"


@dataclass(frozen=True)
class SeedEntry:
    t: int
    k: int
    so: bool
    matrix: BinaryMatrix
    declared_d: int
    provenance: str


class SeedRegistry:
    """Seed codes keyed by (t, k, so), validated on load."""

    def __init__(self, entries: dict[tuple[int, int, bool], SeedEntry]):
        self.entries = entries

    @classmethod
    def load(cls, seed_dir: Path | None = None) -> "SeedRegistry":
        root = seed_dir if seed_dir is not None else default_seed_dir()
        if not root.is_dir():
            raise MatrixParseError(f"seed directory {root} is not a directory")
        entries: dict[tuple[int, int, bool], SeedEntry] = {}
        for meta_path in sorted(root.glob("k*/*/t*.json")):
            try:
                meta = json.loads(meta_path.read_text())
                matrix = parse_matrix(meta_path.with_suffix(".txt").read_text())
                entry = SeedEntry(
                    t=meta["t"],
                    k=meta["k"],
                    so=meta["so"],
                    matrix=matrix,
                    declared_d=meta["declared_d"],
                    provenance=meta.get("provenance", ""),
                )
            except (OSError, ValueError, KeyError, TypeError, MatrixParseError) as exc:
                raise MatrixParseError(
                    f"seed {meta_path}: {type(exc).__name__}: {exc}"
                ) from exc
            _validate_seed(entry, meta_path)
            entries[(entry.t, entry.k, entry.so)] = entry
        return cls(entries)

    def get(self, t: int, k: int, so: bool) -> SeedEntry:
        entry = self.entries.get((t, k, so))
        if entry is None:
            raise MissingSeedError(t, k, so)
        return entry

    def lengths(self, k: int, so: bool) -> list[int]:
        return sorted(t for (t, kk, s) in self.entries if kk == k and s == so)


def _validate_seed(entry: SeedEntry, where: Path) -> None:
    m = entry.matrix
    if m.k != entry.k or m.n != entry.t:
        raise SoEmbedError(f"{where}: seed dimensions disagree with metadata")
    if rank(m) != entry.k:
        raise SoEmbedError(f"{where}: seed is not full rank")
    if min_distance(m) != entry.declared_d:
        raise SoEmbedError(f"{where}: seed distance differs from declared")
    if entry.so and not gram(m).is_zero():
        raise SoEmbedError(f"{where}: seed is not self-orthogonal")


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
    """The default registry, loaded once per process."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = SeedRegistry.load()
    return _REGISTRY


def build_optimal(
    n: int,
    k: int,
    so: bool = False,
    reg: SeedRegistry | None = None,
) -> tuple[BinaryMatrix, DistanceValue]:
    """A length-n dimension-k code hitting the optimal distance where known.

    Decomposes n = (2**k - 1) s + t over the largest registry seed of the
    right residue and verifies the built distance by enumeration.  Status
    is exact when it matches the known optimum, else the achieved distance
    is reported as a witness.
    """
    if k < 1 or n < k:
        raise DomainError(f"need 1 <= k <= n, got n={n} k={k}")
    period = (1 << k) - 1
    reg = reg if reg is not None else registry()
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
    target = (dso_opt if so else d_opt)(n, k)
    if target.status == STATUS_EXACT and achieved == target.value:
        value = DistanceValue(achieved, STATUS_EXACT, target.source)
    else:
        value = DistanceValue(achieved, STATUS_WITNESS, "juxtaposition")
    return built, value
