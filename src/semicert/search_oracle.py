"""Brute-force evidence: word enumeration, elliptic search, chaos game.

Everything here is empirical corroboration at desk scale, never a proof; the
reports label themselves accordingly.  Enumeration is breadth-first with
deduplication by rounded normalized matrix, which collapses semigroups with
many coincidences (the interesting ones) to a manageable state count.

Deduplication works on whole levels.  A level's candidates are computed
column-major, one contiguous array per matrix entry, in cache-sized blocks
that go from product to canonical sign, key (the entries rounded to
multiples of DEDUP_TOL) and 64-bit key hash before the next block starts.
The level is sorted by hash, and the first candidate of each key is looked
up in one sorted table holding the hashes of the elements stored before it.
The table takes a level only when a later lookup needs it, so the last
level of a sweep is never merged.  Equal hashes are always confirmed on the
full key, recomputed for those candidates alone, so a hash collision costs
time, never a wrong answer.  The inverse-free probe looks its inverses up
in the same table.
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
# Candidates per block of the sweep's product, sign, key and hash passes.
_BLOCK = 16384


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

    Candidates are computed column-major, four contiguous arrays with one
    per matrix entry, in blocks that stay in cache from product to hash (see
    `_expand`).  A level's matrices are kept as the (n, 4) transpose of such
    a (4, n) array.

    Stored rows are numbered level by level from the root (row 0).  The
    dedup table is the sorted array `hashes` of the stored rows' key hashes
    with each row's number alongside in `rows`; keys themselves are not
    kept, but recomputed from the level matrices wherever two hashes match.
    The table takes a level only when a later lookup needs it: the newest
    level waits in `_pending`, so the last level of a sweep is never merged.
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
        root = np.array([[1.0], [0.0], [0.0], [1.0]]).T
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [(root, np.array([-1]), np.array([-1]))]
        self.stored = 1  # rows numbered so far, the pending level's included
        self.hashes = np.empty(0, dtype=np.uint64)
        self.rows = np.empty(0, dtype=np.int64)
        # (table positions, hashes, row numbers) of the level not yet in the table.
        self._pending = (np.array([0]), _mix(_keys(root)), np.array([0]))

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for level in range(1, self.max_len + 1):
            mats = self._step()
            if mats.shape[0] == 0:
                return
            yield level, mats

    def _step(self) -> np.ndarray:
        """Expand one level; returns the new frontier (may be empty)."""
        w = self.levels[-1][0].T
        width = w.shape[1]
        n_candidates = width * self.gens.shape[0]
        if self.words_explored + n_candidates > self.budget:
            raise BudgetExceeded(
                f"exploring {self.words_explored + n_candidates} words exceeds "
                f"the budget of {self.budget}"
            )
        self.words_explored += n_candidates
        cols, hashes = self._expand(w)
        first = _first_of_each_key(cols.T, hashes)
        hashes = hashes[first]
        at, found = self._lookup(cols.T, first, hashes)
        new = found < 0
        picked = first[new]  # the new candidates, in hash order
        count = picked.shape[0]
        self.duplicates += n_candidates - count
        if count == n_candidates:
            # Every candidate is new (a free semigroup's levels): the level is
            # the candidate array itself, and candidate k is row stored + k.
            fresh, rows = np.arange(n_candidates), self.stored + picked
        else:
            fresh = np.sort(picked)
            cols = np.take(cols, fresh, axis=1)
            # Each new row's number, in hash order.
            number = np.empty(n_candidates, dtype=np.int64)
            number[fresh] = np.arange(self.stored, self.stored + count)
            rows = number[picked]
        letters, parents = np.divmod(fresh, width)
        self.levels.append((cols.T, parents, letters))
        self._pending = (at[new], hashes[new], rows)
        self.stored += count
        return cols.T

    def _expand(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidates from frontier columns `w`, as (4, n) entries, and their key hashes.

        Candidate gi * width + k is generator gi applied to frontier row k.
        Product, sign, key and hash run over blocks of at most _BLOCK
        candidates, so that each block stays in cache from one pass to the
        next; the keys themselves are not kept.
        """
        width = w.shape[1]
        cols = np.empty((4, width * self.gens.shape[0]))
        hashes = np.empty(cols.shape[1], dtype=np.uint64)
        term = np.empty(min(width, _BLOCK))
        for gi, (a, b, c, d) in enumerate(self.gens):
            for lo in range(0, width, _BLOCK):
                hi = min(lo + _BLOCK, width)
                span = slice(gi * width + lo, gi * width + hi)
                block = cols[:, span]
                w0, w1, w2, w3 = w[:, lo:hi]
                t = term[: hi - lo]
                for out, x, y, p, q in (
                    (block[0], a, b, w0, w2),
                    (block[1], a, b, w1, w3),
                    (block[2], c, d, w0, w2),
                    (block[3], c, d, w1, w3),
                ):
                    np.multiply(p, x, out=out)
                    out += np.multiply(q, y, out=t)
                hashes[span] = _mix(_keys(_canonical_sign_rows(block.T)))
        return cols, hashes

    def _flush(self) -> None:
        """Merge the pending level into the table.

        Its k hashes are in hash order and each belongs before table
        position `at`, so the j-th lands at `at[j] + j`.
        """
        at, hashes, rows = self._pending
        self._pending = (at[:0], hashes[:0], rows[:0])
        place = at + np.arange(at.shape[0])
        old = np.ones(self.hashes.shape[0] + at.shape[0], dtype=bool)
        old[place] = False
        self.hashes = _merged(self.hashes, hashes, place, old)
        self.rows = _merged(self.rows, rows, place, old)

    def _lookup(
        self, mats: np.ndarray, which: np.ndarray, hashes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Table position of each sorted hash, and the stored row with each key or -1.

        Entry i looks up `hashes[i]`, the key hash of row `which[i]` of
        `mats`.  The pending level is merged first, so every stored row is
        searched; keys are computed only where two hashes match.
        """
        self._flush()
        at = np.searchsorted(self.hashes, hashes)
        probe = np.minimum(at, self.hashes.shape[0] - 1)
        hit = np.flatnonzero(self.hashes[probe] == hashes)
        rows = self.rows[probe[hit]]
        found = np.full(hashes.shape[0], -1, dtype=np.int64)
        if (self._stored_keys(rows) == _keys_at(mats, which[hit])).all():
            found[hit] = rows
            return at, found
        # Equal hashes with different keys: match against every stored key.
        stored = _keys(np.concatenate([m for m, _, _ in self.levels]))
        _, first, inverse = np.unique(
            np.concatenate([stored, _keys_at(mats, which).T]), axis=0, return_index=True, return_inverse=True
        )
        match = first[inverse.reshape(-1)[stored.shape[0] :]]
        known = match < stored.shape[0]
        found[known] = match[known]
        return at, found

    def _stored_keys(self, rows: np.ndarray) -> np.ndarray:
        """Keys of stored rows, recomputed from the level matrices, one column each."""
        starts = np.cumsum([0] + [mats.shape[0] for mats, _, _ in self.levels])
        level = np.searchsorted(starts, rows, side="right") - 1
        keys = np.empty((4, rows.shape[0]), dtype=np.int64)
        for lv in np.unique(level):
            at = level == lv
            keys[:, at] = _keys_at(self.levels[lv][0], rows[at] - starts[lv])
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


def _merged(table: np.ndarray, new: np.ndarray, place: np.ndarray, old: np.ndarray) -> np.ndarray:
    """`table` with `new` written at positions `place` and the old entries, in order, at `old`."""
    merged = np.empty(old.shape[0], dtype=table.dtype)
    merged[place] = new
    merged[old] = table
    return merged


def _keys_at(mats: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Keys of rows `index` of the column-major matrices `mats`, one column each."""
    return _keys(np.take(mats.T, index, axis=1))


def _first_of_each_key(mats: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Index of the first row of `mats` with each distinct key, ordered by hash."""
    order = np.argsort(hashes)
    ordered = hashes[order]
    repeat = ordered[1:] == ordered[:-1]
    run = np.flatnonzero(repeat)
    if run.shape[0] == 0:
        return order
    if (_keys_at(mats, order[run]) == _keys_at(mats, order[run + 1])).all():
        starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
        return np.minimum.reduceat(order, starts)
    # Equal hashes with different keys: group by the keys themselves.
    first = np.unique(_keys(mats), axis=0, return_index=True)[1]
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
    a, b, c, d = rows = np.concatenate([mats.T for mats, _, _ in bfs.levels], axis=1)
    # Adjugate rows (d, -b, -c, a): the inverses, up to the sign fixed here.
    inverses = _canonical_sign_rows(np.stack([d, -b, -c, a]).T)
    hashes = _mix(_keys(inverses))
    order = np.argsort(hashes)  # the table is searched fastest in hash order
    _, partner = bfs._lookup(inverses, order, hashes[order])
    # Row 0 is the root; only enumerated words pair up.
    paired = partner > 0
    a, b, c, d = rows[:, order[paired]]
    pa, pb, pc, pd = rows[:, partner[paired]]
    prod_b = a * pb + b * pd
    prod_c = c * pa + d * pc
    prod_a = a * pa + b * pc
    prod_d = c * pb + d * pd
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
