"""Brute-force evidence: word enumeration, elliptic search, chaos game.

Everything here is empirical corroboration at desk scale, never a proof; the
reports label themselves accordingly.  Enumeration is breadth-first with
deduplication by rounded normalized matrix, which collapses semigroups with
many coincidences (the interesting ones) to a manageable state count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded
from .moebius_core import TRACE_TOL, BoundaryPoint, MoebiusMap, classify

# Matrices whose entries round to the same multiple of this count as one element.
DEDUP_TOL = 1e-10
DEFAULT_BUDGET = 2_000_000
MAX_STORED_ELLIPTIC = 16
# A product of two words within this max-entry distance of +/-I refutes inverse-freeness.
INVERSE_TOL = 1e-9
# Chaos-game steps discarded before sampling starts.
CHAOS_BURN_IN = 100


@dataclass(frozen=True)
class Word:
    """Composition of generators; letters[0] is applied last (leftmost factor)."""

    letters: tuple[int, ...]
    matrix: MoebiusMap


@dataclass(frozen=True)
class EnumerationReport:
    words_explored: int
    distinct_elements: int
    duplicate_classes: int
    min_identity_distance: float
    nearest_word: Word | None
    elliptic_count: int
    elliptic_words: tuple[Word, ...]
    max_len: int
    dedup_tol: float
    empirical: bool = field(default=True, init=False)


class _Bfs:
    """Level-synchronous breadth-first exploration with matrix deduplication.

    Iterating yields (level, matrices of the new elements) for levels
    1..max_len, stopping early at the first level with nothing new.
    """

    def __init__(self, F: Sequence[MoebiusMap], max_len: int, budget: int):
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        self.gens = np.array([[f.a, f.b, f.c, f.d] for f in F], dtype=np.float64)
        self.max_len = max_len
        self.budget = budget
        self.words_explored = 0
        self.duplicates = 0
        self.seen: set[bytes] = set()
        # Per level: matrices, parent index into previous level, letter applied.
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        root = np.array([[1.0, 0.0, 0.0, 1.0]])
        self.seen.add(_keys(root)[0])
        self.levels.append((root, np.array([-1]), np.array([-1])))

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for level in range(1, self.max_len + 1):
            mats = self._step()
            if mats.shape[0] == 0:
                return
            yield level, mats

    def _step(self) -> np.ndarray:
        """Expand one level; returns the new frontier (may be empty)."""
        frontier = self.levels[-1][0]
        n_candidates = frontier.shape[0] * self.gens.shape[0]
        if self.words_explored + n_candidates > self.budget:
            raise BudgetExceeded(
                f"exploring {self.words_explored + n_candidates} words exceeds "
                f"the budget of {self.budget}"
            )
        self.words_explored += n_candidates
        blocks, parents, letters = [], [], []
        base = np.arange(frontier.shape[0])
        for gi, (a, b, c, d) in enumerate(self.gens):
            w = frontier
            blocks.append(
                np.stack(
                    [
                        a * w[:, 0] + b * w[:, 2],
                        a * w[:, 1] + b * w[:, 3],
                        c * w[:, 0] + d * w[:, 2],
                        c * w[:, 1] + d * w[:, 3],
                    ],
                    axis=1,
                )
            )
            parents.append(base)
            letters.append(np.full(frontier.shape[0], gi))
        mats = _canonical_sign_rows(np.concatenate(blocks, axis=0))
        parent = np.concatenate(parents)
        letter = np.concatenate(letters)
        fresh = np.zeros(mats.shape[0], dtype=bool)
        for idx, key in enumerate(_keys(mats)):
            if key not in self.seen:
                self.seen.add(key)
                fresh[idx] = True
        self.duplicates += int(mats.shape[0] - fresh.sum())
        level = (mats[fresh], parent[fresh], letter[fresh])
        self.levels.append(level)
        return level[0]


def _keys(mats: np.ndarray) -> list[bytes]:
    """Dedup key of each matrix row: its entries rounded to multiples of DEDUP_TOL."""
    rounded = np.round(mats / DEDUP_TOL) + 0.0  # squash negative zeros
    return [row.tobytes() for row in rounded]


def _canonical_sign_rows(mats: np.ndarray) -> np.ndarray:
    tr = mats[:, 0] + mats[:, 3]
    sign = np.sign(tr)
    for col in (0, 1, 2):
        undecided = sign == 0.0
        if not undecided.any():
            break
        sign = np.where(undecided, np.sign(mats[:, col]), sign)
    sign[sign == 0.0] = 1.0
    return mats * sign[:, None]


def enumerate_words(
    F: Sequence[MoebiusMap], max_len: int, budget: int = DEFAULT_BUDGET
) -> EnumerationReport:
    """Breadth-first sweep of all words up to max_len, deduplicated.

    Records how close the semigroup gets to the identity (max-entry norm of
    the sign-normalized matrix) and every elliptic element class found.
    """
    bfs = _Bfs(F, max_len, budget)
    best = math.inf
    best_at: tuple[int, int] | None = None
    elliptic_at: list[tuple[int, int]] = []
    elliptic_count = 0
    distinct = 0
    for level, mats in bfs:
        distinct += mats.shape[0]
        dist = np.max(
            np.abs(mats - np.array([1.0, 0.0, 0.0, 1.0])), axis=1
        )
        idx = int(np.argmin(dist))
        if dist[idx] < best:
            best = float(dist[idx])
            best_at = (level, idx)
        elliptic = np.abs(mats[:, 0] + mats[:, 3]) < 2.0 - TRACE_TOL
        elliptic_count += int(elliptic.sum())
        for i in np.nonzero(elliptic)[0]:
            if len(elliptic_at) < MAX_STORED_ELLIPTIC:
                elliptic_at.append((level, int(i)))
    return EnumerationReport(
        words_explored=bfs.words_explored,
        distinct_elements=distinct,
        duplicate_classes=bfs.duplicates,
        min_identity_distance=best,
        nearest_word=_reconstruct(bfs, *best_at) if best_at else None,
        elliptic_count=elliptic_count,
        elliptic_words=tuple(_reconstruct(bfs, lv, i) for lv, i in elliptic_at),
        max_len=max_len,
        dedup_tol=DEDUP_TOL,
    )


def _reconstruct(bfs: _Bfs, level: int, index: int) -> Word:
    matrix = MoebiusMap(*(float(v) for v in bfs.levels[level][0][index]))
    letters: list[int] = []
    lv, idx = level, index
    while lv > 0:
        _, parents, lets = bfs.levels[lv]
        letters.append(int(lets[idx]))
        idx = int(parents[idx])
        lv -= 1
    return Word(letters=tuple(letters), matrix=matrix)


def find_elliptic(
    F: Sequence[MoebiusMap], max_len: int, budget: int = DEFAULT_BUDGET
) -> Word | None:
    """First elliptic word in breadth-first order, or None within the budget."""
    bfs = _Bfs(F, max_len, budget)
    for level, mats in bfs:
        elliptic = np.nonzero(np.abs(mats[:, 0] + mats[:, 3]) < 2.0 - TRACE_TOL)[0]
        if elliptic.size:
            return _reconstruct(bfs, level, int(elliptic[0]))
    return None


def inverse_free_probe(
    F: Sequence[MoebiusMap], max_len: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """True when no product of two enumerated words lands at the identity.

    A desk-scale necessary check: it can refute inverse-freeness, never
    prove it.
    """
    levels = [mats for _, mats in _Bfs(F, max_len, budget)]
    rows = np.concatenate(levels) if levels else np.empty((0, 4))
    index = dict(zip(_keys(rows), rows))
    # Adjugate rows (d, -b, -c, a): the inverses, up to the sign fixed here.
    inverses = _canonical_sign_rows(rows[:, [3, 1, 2, 0]] * np.array([1.0, -1.0, -1.0, 1.0]))
    for row, key in zip(rows, _keys(inverses)):
        partner = index.get(key)
        if partner is None:
            continue
        a, b, c, d = row
        prod_b = a * partner[1] + b * partner[3]
        prod_c = c * partner[0] + d * partner[2]
        prod_a = a * partner[0] + b * partner[2]
        prod_d = c * partner[1] + d * partner[3]
        dist = max(abs(abs(prod_a) - 1.0), abs(prod_b), abs(prod_c), abs(abs(prod_d) - 1.0))
        if dist < INVERSE_TOL:
            return False
    return True


def chaos_game(F: Sequence[MoebiusMap], samples: int, seed: int) -> list[BoundaryPoint]:
    """Boundary orbit under random left-composition, after CHAOS_BURN_IN steps.

    Deterministic for a fixed seed; the samples approximate the forward
    limit set of the semigroup.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(F), size=samples + CHAOS_BURN_IN)
    mats = [(f.a, f.b, f.c, f.d) for f in F]
    start = classify(F[0]).alpha or BoundaryPoint.from_angle(1.0)
    x, y = start.x, start.y
    out: list[BoundaryPoint] = []
    for k in range(picks.shape[0]):
        a, b, c, d = mats[picks[k]]
        x, y = a * x + b * y, c * x + d * y
        norm = math.hypot(x, y)
        x, y = x / norm, y / norm
        if k >= CHAOS_BURN_IN:
            out.append(BoundaryPoint.of(x, y))
    return out

