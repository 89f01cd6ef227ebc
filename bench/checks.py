"""Output checks for the benchmark, written without importing soembed.

Every command's printed output is checked against arithmetic done here:
GF(2) rank and Gram matrices from packed rows, minimum weights by a
meet-in-the-middle enumeration (not a Gray walk), and the published
closed-form optimal distances for k <= 5.  A check returns the list of
problems it found (empty when the output is right) and the exact work
counts the output implies, so counts are the same whether or not the
run is traced.
"""

from __future__ import annotations

import hashlib
import re

# Largest number of columns the embedding may append for k = 1..5; each
# peeled row above k = 4 costs at most two more.
EMBED_BOUND = {1: 1, 2: 3, 3: 3, 4: 5, 5: 7}


def embed_bound(k: int) -> int:
    return EMBED_BOUND.get(k, 7 + 2 * (k - 5))


# ---------------------------------------------------------------------------
# GF(2) arithmetic on rows packed as ints (bit j = column j)


def parse_rows(lines: list[str]) -> list[int]:
    """Rows of 0/1 characters, leftmost character = column 0."""
    return [int(line[::-1], 2) for line in lines]


def read_matrix_text(text: str) -> tuple[int, list[int]]:
    """(n, rows) of a matrix file: 0/1 rows, '#' comments, blank lines."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    return len(lines[0]), parse_rows(lines)


def basis(rows: list[int]) -> list[int]:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return list(pivots.values())


def rank(rows: list[int]) -> int:
    return len(basis(rows))


def gram_rows(rows: list[int]) -> list[int]:
    """Gram matrix as packed rows: bit j of row i = <row i, row j> mod 2."""
    return [
        sum((((a & b).bit_count() & 1) << j) for j, b in enumerate(rows))
        for a in rows
    ]


def is_so(rows: list[int]) -> bool:
    return not any(gram_rows(rows))


def _span(vecs: list[int]) -> list[int]:
    out = [0]
    for v in vecs:
        out += [x ^ v for x in out]
    return out


def min_weight(rows: list[int]) -> int:
    """Least weight of a nonzero codeword, by splitting a basis in two."""
    b = basis(rows)
    if not b:
        raise ValueError("zero code")
    low, high = _span(b[: len(b) // 2]), _span(b[len(b) // 2 :])
    best = min((x.bit_count() for x in high[1:]), default=1 << 62)
    for a in low[1:]:
        best = min(best, min((a ^ x).bit_count() for x in high))
    return best


def profile_rows(k: int, ell: dict[int, int], zeros: int) -> tuple[int, list[int]]:
    """A matrix with ell[i] copies of column i (top row = most significant)."""
    rows = [0] * k
    col = 0
    for i in sorted(ell):
        for _ in range(ell[i]):
            for pos in range(k):
                if (i >> (k - 1 - pos)) & 1:
                    rows[pos] |= 1 << col
            col += 1
    return col + zeros, rows


# ---------------------------------------------------------------------------
# published closed forms for the optimal distances, k <= 5

_E1_MOD31 = {2, 3, 5, 6, 7, 8, 10, 11, 12, 14, 18, 19, 20, 22, 26}


def d_opt(n: int, k: int) -> int:
    """Best minimum distance of an [n, k] binary linear code."""
    if k == 1:
        return n
    if k == 2:
        return 2 * n // 3
    if k == 3:
        return 4 * n // 7 - (n % 7 == 2)
    if k == 4:
        return 8 * n // 15 - (n % 15 in {2, 3, 4, 6, 10})
    base = 16 * n // 31
    if n in (9, 13) or (n not in (8, 12) and n % 31 in _E1_MOD31):
        return base - 1
    if n in (8, 12) or n % 31 == 4:
        return base - 2
    return base


def dso_opt(n: int, k: int) -> tuple[int, bool]:
    """(best distance of an [n, k] self-orthogonal code, value proven)."""
    if k == 2:
        r = n % 6
        return 2 * n // 3 - (2 if r == 3 else 1 if r in (2, 5) else 0), True
    if k == 3:
        r = n % 7
        return 4 * n // 7 - (2 if r == 4 else 1 if r in (2, 3, 6) else 0), True
    if k == 4:
        r = n % 15
        pen = 2 if r in (4, 5, 12) or n == 13 else 1 if r in (2, 3, 6, 7, 10, 11, 14) else 0
        return 8 * n // 15 - pen, True
    if k == 5:
        r = n % 31
        if n != 13 and r in (6, 13, 14, 21, 22, 28, 29):
            return d_opt(n, 5) - 2, n <= 40
        pen1 = (2, 3, 7, 10, 11, 15, 18, 19, 23, 26, 27, 30)
        pen = 2 if r in (4, 5, 8, 12, 20) or n == 13 else 1 if r in pen1 else 0
        return 16 * n // 31 - pen, True
    raise ValueError(f"no closed form for k={k}")


# ---------------------------------------------------------------------------
# per-command output checks

_COUNT_KEYS = (
    "gf2.parse_chars",
    "gf2.to_text_chars",
    "gf2.gray_codewords",
    "profiles.cells",
    "embedding.columns_added",
)


def empty_counts() -> dict[str, int]:
    return dict.fromkeys(_COUNT_KEYS, 0)


class Checker:
    """Checks outputs against the inputs the benchmark generated.

    Verdicts are memoised by (op, exit code, output) so that repeated
    passes over the same inputs cost one comparison each.
    """

    def __init__(self, files: dict[str, str]):
        self.files = files
        self._rows: dict[str, tuple[int, list[int]]] = {}
        self._memo: dict[tuple, tuple[list[str], dict]] = {}

    def matrix(self, name: str) -> tuple[int, list[int]]:
        if name not in self._rows:
            self._rows[name] = read_matrix_text(self.files[name])
        return self._rows[name]

    def check(self, op, rc: int, out: str) -> tuple[list[str], dict]:
        """(problems, facts) for one completed command.

        facts holds the op's exact work counts plus any value other
        metrics need (oracle minimum, search hit).
        """
        key = (op.index, rc, hashlib.sha1(out.encode()).digest())
        if key not in self._memo:
            problems: list[str] = []
            facts = {"counts": empty_counts()}
            if rc not in (0, 1):
                problems.append(f"exit code {rc}")
            else:
                try:
                    getattr(self, "_" + op.cmd)(op, rc, out.splitlines(), problems, facts)
                except (ValueError, IndexError, KeyError, AttributeError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            if op.file is not None:
                facts["counts"]["gf2.parse_chars"] += len(self.files[op.file])
            self._memo[key] = (problems, facts)
        return self._memo[key]

    def _check(self, op, rc, lines, problems, facts):
        n, rows = self.matrix(op.file)
        k = len(rows)
        so = is_so(rows)
        facts["counts"]["profiles.cells"] += k * n
        if rc != (0 if so else 1):
            problems.append(f"exit {rc} but the Gram matrix is {'zero' if so else 'nonzero'}")
        if lines[0] != f"n={n} k={k} rank={rank(rows)}":
            problems.append(f"header {lines[0]!r}")
        m = re.fullmatch(r"profile: zero_count=(\d+) ell=\{(.*)\}", lines[1])
        ell = _int_dict(m.group(2))
        if int(m.group(1)) + sum(ell.values()) != n:
            problems.append("profile does not sum to n")
        verdicts = lines[2:-1]
        want = "yes" if so else "no"
        if not verdicts or any(not v.endswith(": " + want) for v in verdicts):
            problems.append(f"verdicts {verdicts} disagree with the Gram check")
        if lines[-1] != ("self-orthogonal" if so else "not self-orthogonal"):
            problems.append(f"last line {lines[-1]!r}")

    def _embed(self, op, rc, lines, problems, facts):
        n, rows = self.matrix(op.file)
        k = len(rows)
        head = re.fullmatch(r"\[(\d+),(\d+),(\d+)\] self-orthogonal output:", lines[1])
        out_rows = parse_rows(lines[2:])
        n_out, d = int(head.group(1)), int(head.group(3))
        added = n_out - n
        facts["counts"]["embedding.columns_added"] += added
        facts["counts"]["gf2.to_text_chars"] += k * n_out + k - 1
        facts["counts"]["gf2.gray_codewords"] += (1 << rank(out_rows)) - 1
        facts["added"] = added
        if rc != 0:
            problems.append(f"exit {rc}")
        if len(out_rows) != k or any(len(ln) != n_out for ln in lines[2:]):
            problems.append("output matrix has the wrong shape")
        mask = (1 << n) - 1
        if [r & mask for r in out_rows] != rows:
            problems.append("output does not start with the input columns")
        if not is_so(out_rows):
            problems.append("output Gram matrix is nonzero")
        if not 0 <= added <= embed_bound(k):
            problems.append(f"{added} columns added, bound is {embed_bound(k)}")
        summary = lines[0]
        if (added == 0) != summary.startswith("already self-orthogonal") or (
            added and not summary.startswith(f"{added} columns added")
        ):
            problems.append(f"summary {summary!r} for {added} columns")
        if d != min_weight(out_rows):
            problems.append(f"printed distance {d}, enumeration gives {min_weight(out_rows)}")

    def _dmin(self, op, rc, lines, problems, facts):
        n, rows = self.matrix(op.file)
        r = rank(rows)
        facts["counts"]["gf2.gray_codewords"] += (1 << r) - 1
        want = f"n={n} k={len(rows)} rank={r} dmin={min_weight(rows)}"
        if rc != 0 or lines != [want]:
            problems.append(f"printed {lines}, expected {want!r}")

    def _min_embed(self, op, rc, lines, problems, facts):
        # Lempel: C C^T = S has a solution with rank(S) columns when S has a
        # nonzero diagonal, and needs rank(S) + 1 when S is alternating.
        _, rows = self.matrix(op.file)
        s = gram_rows(rows)
        diag = any((s[i] >> i) & 1 for i in range(len(s)))
        least = rank(s) + (0 if diag or not any(s) else 1)
        facts["minimum"] = least
        if rc != 0 or lines != [f"minimum columns to append: {least}"]:
            problems.append(f"printed {lines}, the Gram factorisation needs {least}")

    def _build(self, op, rc, lines, problems, facts):
        n, k, so = op.meta["n"], op.meta["k"], op.meta["so"]
        kind = "self-orthogonal " if so else ""
        head = re.fullmatch(rf"\[{n},{k},(\d+)\] {kind}code \((\w+), (.+)\)", lines[0])
        d, status = int(head.group(1)), head.group(2)
        out_rows = parse_rows(lines[1:])
        facts["counts"]["gf2.to_text_chars"] += k * n + k - 1
        facts["counts"]["gf2.gray_codewords"] += (1 << k) - 1
        if len(out_rows) != k or any(len(ln) != n for ln in lines[1:]):
            problems.append("built matrix has the wrong shape")
        if rank(out_rows) != k:
            problems.append("built matrix is not full rank")
        if so and not is_so(out_rows):
            problems.append("built matrix is not self-orthogonal")
        if d != min_weight(out_rows):
            problems.append(f"printed distance {d}, enumeration gives {min_weight(out_rows)}")
        best, proven = dso_opt(n, k) if so else (d_opt(n, k), True)
        if proven and (d, status, rc) != (best, "exact", 0):
            problems.append(f"built distance {d} ({status}), optimum is {best}")

    def _enumerate(self, op, rc, lines, problems, facts):
        n, k, so = op.meta["n"], op.meta["k"], op.meta["so"]
        d = int(re.fullmatch(r"best distance: (\d+)", lines[0]).group(1))
        m = re.fullmatch(r"witness profile: zero_count=(\d+) ell=\{(.*)\}", lines[1])
        width, rows = profile_rows(k, _int_dict(m.group(2)), int(m.group(1)))
        best = dso_opt(n, k)[0] if so else d_opt(n, k)
        if rc != 0 or d != best:
            problems.append(f"best distance {d}, optimum is {best}")
        if width != n or rank(rows) != k or min_weight(rows) != d:
            problems.append("witness profile does not realise the distance")
        if so and not is_so(rows):
            problems.append("witness profile is not self-orthogonal")

    def _random(self, op, rc, lines, problems, facts):
        target, proven = op.meta["target"], op.meta["proven"]
        m = re.fullmatch(r"best distance found: (\d+) \(seed (\d+), (\d+) trials\)", lines[0])
        best = int(m.group(1))
        reached = best > 0 if target is None else best >= target
        if target is not None:
            facts["hit"] = reached
        if rc != (0 if reached else 1):
            problems.append(f"exit {rc} for best {best} against target {target}")
        if proven and best > target:
            problems.append(f"found distance {best} above the optimum {target}")

    def _claims414(self, op, rc, lines, problems, facts):
        if rc != 0 or lines[-1] != "within the five-column bound":
            problems.append(f"sweep reported {lines[-1]!r}")


def _int_dict(body: str) -> dict[int, int]:
    if not body.strip():
        return {}
    pairs = (item.split(":") for item in body.split(","))
    return {int(a): int(b) for a, b in pairs}


def corrupt(op, out: str, what: str) -> str:
    """The output with one deliberate error, for the self-test of the checks."""
    if what == "embed" and op.cmd == "embed":
        lines = out.split("\n")
        row = lines[2]
        lines[2] = row[:-1] + ("1" if row[-1] == "0" else "0")
        return "\n".join(lines)
    if what == "dmin" and op.cmd == "dmin":
        head, _, d = out.rstrip("\n").rpartition("dmin=")
        return f"{head}dmin={int(d) + 1}\n"
    return out
