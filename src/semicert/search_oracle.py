"""Brute-force evidence: word enumeration, elliptic search, chaos game.

Everything here is empirical corroboration at desk scale, never a proof; the
reports label themselves accordingly.  Enumeration is breadth-first with
deduplication by rounded normalized matrix, which collapses semigroups with
many coincidences (the interesting ones) to a manageable state count.

Deduplication works on whole levels.  Each candidate's key (its entries
rounded to multiples of DEDUP_TOL) is mixed into a 64-bit hash; the level is
sorted by hash, and the first candidate of each key is looked up in one
sorted table holding the hashes of every element stored so far.  Equal
hashes are always confirmed on the full key, so a hash collision costs time,
never a wrong answer.  The inverse-free probe looks its inverses up in the
same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded
from .moebius_core import TRACE_TOL, BoundaryPoint, MoebiusMap, boundary_angles, classify

# Matrices whose entries round to the same multiple of this count as one element.
DEDUP_TOL = 1e-10
DEFAULT_BUDGET = 2_000_000
MAX_STORED_ELLIPTIC = 16
# A product of two words within this max-entry distance of +/-I refutes inverse-freeness.
INVERSE_TOL = 1e-9
# Chaos-game steps each chain discards before sampling starts.
CHAOS_BURN_IN = 100
# Chaos-game chains advanced together, one numpy row per step.
CHAOS_CHAINS = 1024
# Odd multiplier of the dedup key hash.
_MIX_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


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

    Stored rows are numbered level by level from the root (row 0).  The
    dedup table is the sorted array `hashes` of the stored rows' key hashes
    with each row's number alongside in `rows`; keys themselves are not
    kept, but recomputed from the level matrices wherever two hashes match.
    """

    def __init__(self, F: Sequence[MoebiusMap], max_len: int, budget: int):
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        if len(F) == 0:
            raise ValueError("need at least one generator")
        self.gens = np.array([[f.a, f.b, f.c, f.d] for f in F], dtype=np.float64)
        self.max_len = max_len
        self.budget = budget
        self.words_explored = 0
        self.duplicates = 0
        # Per level: matrices, parent index into previous level, letter applied.
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.hashes = np.empty(0, dtype=np.uint64)
        self.rows = np.empty(0, dtype=np.int64)
        root = np.array([[1.0, 0.0, 0.0, 1.0]])
        zero = np.array([0])
        self._store((root, np.array([-1]), np.array([-1])), zero, _mix(_keys(root)), zero)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for level in range(1, self.max_len + 1):
            mats = self._step()
            if mats.shape[0] == 0:
                return
            yield level, mats

    def _step(self) -> np.ndarray:
        """Expand one level; returns the new frontier (may be empty)."""
        w = self.levels[-1][0]
        width = w.shape[0]
        n_candidates = width * self.gens.shape[0]
        if self.words_explored + n_candidates > self.budget:
            raise BudgetExceeded(
                f"exploring {self.words_explored + n_candidates} words exceeds "
                f"the budget of {self.budget}"
            )
        self.words_explored += n_candidates
        # Candidate gi * width + k is generator gi applied to frontier row k.
        mats = np.empty((n_candidates, 4))
        for gi, (a, b, c, d) in enumerate(self.gens):
            block = mats[gi * width : (gi + 1) * width]
            block[:, 0] = a * w[:, 0] + b * w[:, 2]
            block[:, 1] = a * w[:, 1] + b * w[:, 3]
            block[:, 2] = c * w[:, 0] + d * w[:, 2]
            block[:, 3] = c * w[:, 1] + d * w[:, 3]
        keys = _keys(_canonical_sign_rows(mats))
        hashes = _mix(keys)
        first = _first_of_each_key(keys, hashes)
        hashes = hashes[first]
        at, found = self._lookup(np.take(keys, first, axis=0), hashes)
        del keys
        new = found < 0
        is_new = np.zeros(n_candidates, dtype=bool)
        is_new[first[new]] = True
        fresh = np.flatnonzero(is_new)
        self.duplicates += n_candidates - fresh.shape[0]
        level = (np.take(mats, fresh, axis=0), fresh % width, fresh // width)
        # Each new row's index in the level, in hash order.
        index = (np.cumsum(is_new) - 1)[first[new]]
        self._store(level, at[new], hashes[new], index)
        return level[0]

    def _store(
        self,
        level: tuple[np.ndarray, np.ndarray, np.ndarray],
        at: np.ndarray,
        hashes: np.ndarray,
        index: np.ndarray,
    ) -> None:
        """Append a level and enter its rows into the table.

        Row `index[k]` of the level has hash `hashes[k]`, which belongs before
        table position `at[k]`; both arrays are in hash order.
        """
        first_row = sum(mats.shape[0] for mats, _, _ in self.levels)
        self.levels.append(level)
        self.hashes = np.insert(self.hashes, at, hashes)
        self.rows = np.insert(self.rows, at, first_row + index)

    def _lookup(self, keys: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Table position of each hash, and the stored row with each key or -1."""
        at = np.searchsorted(self.hashes, hashes)
        probe = np.minimum(at, self.hashes.shape[0] - 1)
        hit = np.flatnonzero(self.hashes[probe] == hashes)
        rows = self.rows[probe[hit]]
        found = np.full(hashes.shape[0], -1, dtype=np.int64)
        if (self._stored_keys(rows) == np.take(keys, hit, axis=0)).all():
            found[hit] = rows
            return at, found
        # Equal hashes with different keys: match against every stored key.
        stored = _keys(np.concatenate([mats for mats, _, _ in self.levels]))
        _, first, inverse = np.unique(
            np.concatenate([stored, keys]), axis=0, return_index=True, return_inverse=True
        )
        match = first[inverse.reshape(-1)[stored.shape[0] :]]
        known = match < stored.shape[0]
        found[known] = match[known]
        return at, found

    def _stored_keys(self, rows: np.ndarray) -> np.ndarray:
        """Keys of stored rows, recomputed from the level matrices."""
        starts = np.cumsum([0] + [mats.shape[0] for mats, _, _ in self.levels])
        level = np.searchsorted(starts, rows, side="right") - 1
        keys = np.empty((rows.shape[0], 4), dtype=np.int64)
        for lv in np.unique(level):
            at = level == lv
            keys[at] = _keys(self.levels[lv][0][rows[at] - starts[lv]])
        return keys


def _keys(mats: np.ndarray) -> np.ndarray:
    """Dedup key of each matrix row, as four int64 words.

    The entries are rounded to multiples of DEDUP_TOL with negative zeros
    squashed and read as bit patterns, so two keys are equal exactly when
    the rounded rows are bytewise equal.
    """
    rounded = np.divide(mats, DEDUP_TOL)
    np.round(rounded, out=rounded)
    rounded += 0.0  # squash negative zeros
    return rounded.view(np.int64)


def _mix(keys: np.ndarray) -> np.ndarray:
    """64-bit hash of each key; callers compare keys wherever hashes are equal."""
    words = keys.view(np.uint64)
    hashes = np.zeros(words.shape[0], dtype=np.uint64)
    for col in range(4):
        word = words[:, col]
        hashes ^= word ^ (word >> np.uint64(29))
        hashes *= _MIX_MULTIPLIER
        hashes ^= hashes >> np.uint64(32)
    return hashes


def _first_of_each_key(keys: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Index of the first row with each distinct key, ordered by hash."""
    order = np.argsort(hashes)
    ordered = hashes[order]
    repeat = ordered[1:] == ordered[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
    run = np.flatnonzero(repeat)
    if (np.take(keys, order[run], axis=0) == np.take(keys, order[run + 1], axis=0)).all():
        return np.minimum.reduceat(order, starts)
    # Equal hashes with different keys: group by the keys themselves.
    first = np.unique(keys, axis=0, return_index=True)[1]
    return first[np.argsort(hashes[first], kind="stable")]


def _canonical_sign_rows(mats: np.ndarray) -> np.ndarray:
    """Flip each row, in place, to the canonical sign of `MoebiusMap`; returns `mats`."""
    tr = mats[:, 0] + mats[:, 3]
    sign = np.sign(tr)
    for col in (0, 1, 2):
        undecided = sign == 0.0
        if not undecided.any():
            break
        sign = np.where(undecided, np.sign(mats[:, col]), sign)
    sign[sign == 0.0] = 1.0
    mats *= sign[:, None]
    return mats


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
        dist = np.maximum(
            np.maximum(np.abs(mats[:, 0] - 1.0), np.abs(mats[:, 1])),
            np.maximum(np.abs(mats[:, 2]), np.abs(mats[:, 3] - 1.0)),
        )
        idx = int(np.argmin(dist))
        if dist[idx] < best:
            best = float(dist[idx])
            best_at = (level, idx)
        elliptic = np.abs(mats[:, 0] + mats[:, 3]) < 2.0 - TRACE_TOL
        elliptic_count += int(elliptic.sum())
        for i in np.flatnonzero(elliptic)[: MAX_STORED_ELLIPTIC - len(elliptic_at)]:
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
    bfs = _Bfs(F, max_len, budget)
    for _ in bfs:
        pass
    rows = np.concatenate([mats for mats, _, _ in bfs.levels])
    # Adjugate rows (d, -b, -c, a): the inverses, up to the sign fixed here.
    inverses = _canonical_sign_rows(rows[:, [3, 1, 2, 0]] * np.array([1.0, -1.0, -1.0, 1.0]))
    keys = _keys(inverses)
    hashes = _mix(keys)
    order = np.argsort(hashes)  # the table is searched fastest in hash order
    _, partner = bfs._lookup(np.take(keys, order, axis=0), hashes[order])
    # Row 0 is the root; only enumerated words pair up.
    paired = partner > 0
    a, b, c, d = rows[order[paired]].T
    p = rows[partner[paired]]
    prod_b = a * p[:, 1] + b * p[:, 3]
    prod_c = c * p[:, 0] + d * p[:, 2]
    prod_a = a * p[:, 0] + b * p[:, 2]
    prod_d = c * p[:, 1] + d * p[:, 3]
    dist = np.maximum.reduce(
        [np.abs(np.abs(prod_a) - 1.0), np.abs(prod_b), np.abs(prod_c), np.abs(np.abs(prod_d) - 1.0)]
    )
    return not (dist < INVERSE_TOL).any()


@dataclass(frozen=True, eq=False)
class ChaosSamples:
    """Chaos-game samples as coordinate arrays: sample i is (x[i] : y[i]), canonical.

    Iterating yields one `BoundaryPoint` per sample, built on demand from
    Python floats; `angles()` gives every sample's angle at once.
    """

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]

    def __iter__(self) -> Iterator[BoundaryPoint]:
        return map(BoundaryPoint, self.x.tolist(), self.y.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChaosSamples):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    def angles(self) -> np.ndarray:
        """Disc-model angles, equal bit for bit to `BoundaryPoint.angle` of each sample."""
        return boundary_angles(self.x, self.y)


def chaos_game(F: Sequence[MoebiusMap], samples: int, seed: int) -> ChaosSamples:
    """Boundary orbits under random left-composition, after CHAOS_BURN_IN steps.

    The samples approximate the forward limit set of the semigroup.  They
    come from min(CHAOS_CHAINS, samples) chains advanced together: each
    chain starts at the attracting point of F[0], unless every generator
    fixes that point exactly (a chain could never leave it); then at the
    attracting point of the first generator that not every generator fixes,
    if there is one.  Every chain discards CHAOS_BURN_IN steps; the samples
    are then taken step by step, every chain at each step, and cut at
    `samples`.

    The result is fixed for fixed (F, samples, seed, numpy version).  The
    picks are drawn as one (steps, chains) array, so a run with more samples
    does not extend a run with fewer.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if len(F) == 0:
        raise ValueError("need at least one generator")
    chains = min(CHAOS_CHAINS, samples)
    steps = -(-samples // chains) + CHAOS_BURN_IN
    picks = np.random.default_rng(seed).integers(0, len(F), size=(steps, chains))
    # One contiguous entry array per matrix position, indexed by generator.
    ga, gb, gc, gd = np.array([(f.a, f.b, f.c, f.d) for f in F], dtype=np.float64).T.copy()
    start = _chaos_start(F)
    x, y = np.full(chains, start.x), np.full(chains, start.y)
    xs = np.empty((steps - CHAOS_BURN_IN, chains))
    ys = np.empty_like(xs)
    for step, pick in enumerate(picks):
        a, b, c, d = ga[pick], gb[pick], gc[pick], gd[pick]
        x, y = a * x + b * y, c * x + d * y
        norm = np.hypot(x, y)
        x /= norm
        y /= norm
        if step >= CHAOS_BURN_IN:
            xs[step - CHAOS_BURN_IN] = x
            ys[step - CHAOS_BURN_IN] = y
    x, y = xs.ravel()[:samples], ys.ravel()[:samples]
    # The canonical sign of `BoundaryPoint.of`.
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    return ChaosSamples(np.where(flip, -x, x), np.where(flip, -y, y))


def _chaos_start(F: Sequence[MoebiusMap]) -> BoundaryPoint:
    """Where every chaos-game chain starts (see `chaos_game`)."""
    mats = [(f.a, f.b, f.c, f.d) for f in F]
    start = classify(F[0]).alpha or BoundaryPoint.from_angle(1.0)
    if all(_fixes(m, start) for m in mats):
        alphas = (classify(f).alpha for f in F[1:])
        start = next((p for p in alphas if p is not None and not all(_fixes(m, p) for m in mats)), start)
    return start


def _fixes(m: tuple[float, float, float, float], p: BoundaryPoint) -> bool:
    """Whether the matrix m sends p to a multiple of itself in float arithmetic."""
    a, b, c, d = m
    return (a * p.x + b * p.y) * p.y - (c * p.x + d * p.y) * p.x == 0.0
