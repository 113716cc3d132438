"""Brute-force evidence: word enumeration, elliptic search, chaos game.

Everything here is empirical corroboration at desk scale, never a proof; the
reports label themselves accordingly.  Enumeration is breadth-first with
deduplication by rounded normalized matrix, which collapses semigroups with
many coincidences (the interesting ones) to a manageable state count.

Deduplication works on whole levels, on one packed 64-bit word per entry:
a prefix of the key hash in the high bits and a label, the entry's column
in one flat store of matrices, in the low bits.  A level's candidates are
computed column-major after the stored rows, in cache-sized blocks that go
from product to canonical sign, key (the entries rounded to multiples of
DEDUP_TOL) and hash before the next block starts.  One np.sort then orders
the stored rows' words and the candidates' words together.  Equal keys have
equal prefixes, and within a prefix the words sort by label, so a stored
row comes before any candidate and the candidates come in candidate order:
the first word of each run of equal prefixes is the element, and the rest
are duplicates.  Equal prefixes are always confirmed on the full key,
computed from the store for those entries alone.  A run that holds
different keys is regrouped by key on its own, so a prefix collision costs
time in that run, never a wrong answer.  The packed words are all distinct,
so an unstable sort gives the same order on every numpy version.  The
inverse-free probe sorts its inverses' words with the same table.
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
# Store columns allocated up front; a longer sweep doubles the store.
_STORE_COLUMNS = 1 << 19
# Widest label field of a dedup word (2**39 stored rows would take 16 TiB).
_LABEL_BITS = 40


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

    Stored rows are numbered level by level from the root (row 0) and kept
    in `store`, four contiguous arrays with one per matrix entry: row r is
    column r, and a level's matrices are the (n, 4) transpose of its
    columns.  A level's candidates are computed in the columns after the
    stored rows, in blocks that stay in cache from product to hash (see
    `_expand`); the new ones are then moved down in candidate order.

    Dedup works on packed words, one uint64 per entry: the high bits hold
    a prefix of the key hash and the low bits a label, the store column of
    the entry's matrix.  The table `hashes` holds the words of the stored
    rows, labelled by row number and in no particular order, except the
    newest level's, which wait in `_pending`; `_join` sorts both with a
    level's candidates.  Keys are not kept: they are computed from the
    store wherever two prefixes match.
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
        # Rows the sweep can keep: the root and the words up to max_len, within
        # the budget.  Past 64 levels the label field is at its widest anyway.
        count, levels = len(F), min(max_len, 64)
        words = max_len if count == 1 else (count ** (levels + 1) - count) // (count - 1)
        rows = max(int(min(words, budget)), 0) + 1
        # Labels are store columns, and the inverse-free probe labels each
        # row's inverse after the rows; no sweep that fits in memory needs
        # more than _LABEL_BITS.
        self.label_mask = np.uint64((1 << min((2 * rows).bit_length(), _LABEL_BITS)) - 1)
        self.prefix_mask = ~self.label_mask
        self.store = np.empty((4, min(rows, _STORE_COLUMNS)))
        self.store[:, 0] = 1.0, 0.0, 0.0, 1.0
        # Per level: matrices, parent index into previous level, letter applied.
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (self.store[:, :1].T, np.array([-1]), np.array([-1]))
        ]
        self.stored = 1  # rows numbered so far, the pending level's included
        self.hashes = np.empty(0, dtype=np.uint64)
        self._pending = _mix(_keys(self.levels[0][0])) & self.prefix_mask

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for level in range(1, self.max_len + 1):
            mats = self._step()
            if mats.shape[0] == 0:
                return
            yield level, mats

    def _step(self) -> np.ndarray:
        """Expand one level; returns the new frontier (may be empty)."""
        width = self.levels[-1][0].shape[0]
        n_candidates = width * self.gens.shape[0]
        if self.words_explored + n_candidates > self.budget:
            raise BudgetExceeded(
                f"exploring {self.words_explored + n_candidates} words exceeds "
                f"the budget of {self.budget}"
            )
        self.words_explored += n_candidates
        start = self.stored
        self._reserve(n_candidates)
        words = self._expand(start - width, n_candidates)
        label, own = self._join(self.store, words)
        at = np.flatnonzero((label >= start) & own)  # the new candidates, in prefix order
        rows = label[at]
        picked = rows - start
        count = picked.shape[0]
        self.duplicates += n_candidates - count
        if count == n_candidates:
            # Every candidate is new (a free semigroup's levels): each stays
            # in its column, and its label is its row number.
            fresh = np.arange(n_candidates)
        else:
            fresh = np.sort(picked)
            for entry in self.store:
                entry[start : start + count] = entry[start + fresh]
            # Each new row's number, in prefix order.
            number = np.empty(n_candidates, dtype=np.int64)
            number[fresh] = np.arange(start, start + count)
            rows = number[picked]
        # Candidates come in one run per letter, and `fresh` is sorted.
        runs = np.searchsorted(fresh, np.arange(self.gens.shape[0] + 1) * width)
        letters = np.repeat(np.arange(self.gens.shape[0]), np.diff(runs))
        mats = self.store[:, start : start + count].T
        self.levels.append((mats, fresh - letters * width, letters))
        self.hashes = np.concatenate([self.hashes, self._pending])
        self._pending = words[picked] & self.prefix_mask
        self._pending |= rows.view(np.uint64)
        self.stored += count
        return mats

    def _reserve(self, n: int) -> None:
        """Grow the store, if need be, to hold n columns after the stored rows."""
        if self.stored + n <= self.store.shape[1]:
            return
        store = np.empty((4, max(2 * self.store.shape[1], self.stored + n)))
        store[:, : self.stored] = self.store[:, : self.stored]
        self.store, start = store, 0
        for k, (mats, parents, letters) in enumerate(self.levels):
            self.levels[k] = (store[:, start : start + mats.shape[0]].T, parents, letters)
            start += mats.shape[0]

    def _expand(self, frontier: int, n: int) -> np.ndarray:
        """Write the n candidates from the frontier (store columns `frontier` on) after the stored rows.

        Candidate gi * width + k is generator gi applied to frontier row k,
        labelled by its store column.  Product, sign, key and hash run over
        blocks of at most _BLOCK candidates, so that each block stays in
        cache from one pass to the next; the keys themselves are not kept.
        Returns the candidates' words.  A block whose keys leave float range
        ends the sweep.
        """
        w = self.store[:, frontier : self.stored]
        cols = self.store[:, self.stored : self.stored + n]
        width = w.shape[1]
        words = np.arange(self.stored, self.stored + n, dtype=np.uint64)
        term = np.empty(min(width, _BLOCK))
        with np.errstate(over="ignore", invalid="ignore"):
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
                    keys = _keys(_canonical_sign_rows(block.T))
                    if not np.isfinite(keys.view(np.float64)).all():
                        raise BudgetExceeded(f"word products leave float range at length {len(self.levels)}")
                    words[span] |= _mix(keys) & self.prefix_mask
        return words

    def _join(self, mats: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels of the table, the pending level and `words`, sorted, and which is the first of its key.

        Each word labels a column of `mats`, which starts with the stored
        rows.  Sorted words put equal keys, whose prefixes are equal, in one
        run of equal prefixes, in label order.  Only a run that holds
        different keys is reordered, by key and then label.  Either way the
        entries with one key are adjacent, and the first of them has the
        lowest label.  Every word is distinct, so the sort gives the same
        order whatever its algorithm.
        """
        merged = np.concatenate([self.hashes, self._pending, words])
        merged.sort()
        own = np.ones(merged.shape[0], dtype=bool)
        np.greater(merged[1:] ^ merged[:-1], self.label_mask, out=own[1:])  # a new prefix
        merged &= self.label_mask
        label = merged.view(np.int64)
        later = np.flatnonzero(~own)
        clash = later[(_keys_at(mats, label[later]) != _keys_at(mats, label[later - 1])).any(axis=0)]
        if clash.shape[0]:
            run = np.cumsum(own)
            member = np.flatnonzero(np.isin(run, run[clash]))
            keys = _keys_at(mats, label[member])
            run = run[member]
            order = np.lexsort((*keys[::-1], run))
            label[member] = label[member[order]]
            keys = keys[:, order]
            own[member[1:]] = (keys[:, 1:] != keys[:, :-1]).any(axis=0) | (run[1:] != run[:-1])
        return label, own


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
    """64-bit hash of each key; dedup words keep its high bits, and keys are compared where those match."""
    words = keys.view(np.uint64)
    hashes = np.zeros(words.shape[0], dtype=np.uint64)
    for col in range(4):
        hashes ^= words[:, col]
        hashes *= _MIX_MULTIPLIER
        hashes ^= hashes >> np.uint64(32)
    return hashes


def _keys_at(mats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Keys of columns `labels` of the (4, n) matrices `mats`, one column each."""
    return _keys(np.take(mats, labels, axis=1))


def _canonical_sign_rows(mats: np.ndarray) -> np.ndarray:
    """Flip each row, in place, to the canonical sign of `MoebiusMap`; returns `mats`."""
    tr = mats[:, 0] + mats[:, 3]
    sign = np.sign(tr)
    for col in (0, 1, 2):
        undecided = sign == 0.0
        if not undecided.any():
            break
        sign = np.where(undecided, np.sign(mats[:, col]), sign)
    else:
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
    n = bfs.stored
    a, b, c, d = rows = bfs.store[:, :n]
    # Adjugate rows (d, -b, -c, a): the inverses, up to the sign fixed here.
    inverses = _canonical_sign_rows(np.stack([d, -b, -c, a]).T)
    words = np.arange(n, 2 * n, dtype=np.uint64) | (_mix(_keys(inverses)) & bfs.prefix_mask)
    label, own = bfs._join(np.concatenate([rows, inverses.T], axis=1), words)
    # An inverse whose key came before it: the first entry with that key is the latest own one.
    query = np.flatnonzero(~own & (label >= n))
    heads = np.flatnonzero(own)
    partner = label[heads[np.searchsorted(heads, query) - 1]]
    # Row 0 is the root; only enumerated words pair up.
    paired = (partner > 0) & (partner < n)
    a, b, c, d = rows[:, label[query[paired]] - n]
    pa, pb, pc, pd = rows[:, partner[paired]]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is far from I
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
