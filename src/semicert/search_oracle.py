"""Brute-force evidence: word enumeration, elliptic search, chaos game.

Everything here is empirical corroboration at desk scale, never a proof; the
reports label themselves accordingly.  Enumeration is breadth-first with
deduplication by rounded normalized matrix, which collapses semigroups with
many coincidences (the interesting ones) to a manageable state count.

Deduplication works on whole levels, on one packed 64-bit word per entry:
a prefix of the key hash in the high bits and a label, the entry's column
in one flat store of matrices, in the low bits.  A level's candidates are
computed column-major after the stored rows, in cache-sized blocks of
consecutive candidate columns, which may span several generators; a block
goes from product to canonical sign, key (the entries rounded to multiples
of DEDUP_TOL) and hash before the next block starts.  One np.sort then orders
the stored rows' words and the candidates' words together.  Equal keys have
equal prefixes, and within a prefix the words sort by label, so a stored
row comes before any candidate and the candidates come in candidate order:
the first word of each run of equal prefixes is the element, and the rest
are duplicates.  Equal prefixes are always confirmed on the full key,
computed from the store for those entries alone.  A run that holds
different keys is regrouped by key on its own, so a prefix collision costs
time in that run, never a wrong answer.  The packed words are all distinct,
so an unstable sort gives the same order on every numpy version.  The
inverse-free probe puts its inverses and their prefixes after the stored rows
and sorts them the same way.

One loop advances every sweep, level by level, for every caller.  A sweep
may be given a last-level test, which sees the last level's candidates
before their sort: when it says no, the sweep ends without that sort.  The
elliptic search passes "some candidate is elliptic".

Each sweep has one working set: the store, the key-hash prefix of each
store column (its label is the column, which the join adds as it copies
the prefixes to sort), and the join's sort buffer and flags.  It grows
geometrically with the store, never past half of the machine's physical
memory (a sweep that would need more ends with BudgetExceeded), and is
reused level after level, so a level allocates little beyond the parents
and letters it keeps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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
# Candidate columns per block of the sweep's product, sign, key and hash passes.
_BLOCK = 16384
_IDENTITY = np.array([[1.0], [0.0], [0.0], [1.0]])  # as a column of entries
# Store columns allocated up front; a longer sweep doubles the store.
_STORE_COLUMNS = 1 << 19
# Widest label field of a dedup word (2**39 stored rows would take 16 TiB).
_LABEL_BITS = 40
# Working-set bytes per store column: four entries, the prefix, its labelled
# sort copy, and a run-head and a new-row flag.
_COLUMN_BYTES = 4 * 8 + 8 + 8 + 1 + 1


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
    1..max_len, stopping early at the first level with nothing new; this
    loop is the only place a level is advanced.  A level checks the budget,
    writes every candidate after the stored rows (`_expand`), joins them
    (`_join`) and keeps the new ones.  The optional `last_level` test gets
    the (n, 4) candidates of level max_len before their join; when it
    returns False, the sweep ends there, unjoined.

    Stored rows are numbered level by level from the root (row 0) and kept
    in `store`, four contiguous arrays with one per matrix entry: row r is
    column r, and a level's matrices are the (n, 4) transpose of its
    columns.  A level's candidates are computed in the columns after the
    stored rows, in blocks of consecutive candidate columns that stay in
    cache from product to hash (see `_expand`); the new ones and their
    prefixes are then moved down in candidate order.

    Dedup works on packed words.  `words` holds the high bits of each, a
    prefix of the key hash, one uint64 per column aligned with the store;
    `_join` packs each prefix with its label, the column, into a sort copy.
    A level's new prefixes move down with its new rows, so `words[:stored]`
    is the whole table after every level.  Keys are not kept: they are
    computed from the store wherever two prefixes match.

    The store, the prefixes and the sort, run-head and new-row buffers form
    one working set per sweep.  It grows geometrically, never past half of
    the machine's memory, and is reused level after level.
    """

    def __init__(self, F: Sequence[MoebiusMap], max_len: int, budget: int, last_level: Callable | None = None):
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        if len(F) == 0:
            raise ValueError("need at least one generator")
        self.gens = np.array([[f.a, f.b, f.c, f.d] for f in F], dtype=np.float64)
        # Each generator's columns (a, c) and (b, d), shaped to scale a (2, k) half of a frontier.
        self.left, self.right = self.gens[:, 0::2, None, None].copy(), self.gens[:, 1::2, None, None].copy()
        self.max_len, self.budget, self.last_level = max_len, budget, last_level
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
        # Labels of one block of columns, and four blocks of float scratch.
        self.iota = np.arange(_BLOCK, dtype=np.uint64)
        self.spare = np.empty((4, _BLOCK))
        self.stored = 0
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Generator numbers, and one past the last.
        self.letter_ids = np.arange(count + 1)
        self.store = np.empty((4, 0))
        self.words = np.empty(0, dtype=np.uint64)
        self._grow(min(rows, _STORE_COLUMNS), 1)
        self.store[:, 0] = 1.0, 0.0, 0.0, 1.0
        self.words[0] = _mix(_keys(self.store[:, :1].T))[0] & self.prefix_mask
        self.levels.append((self.store[:, :1].T, np.array([-1]), np.array([-1])))
        self.stored = 1

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        gens = self.gens.shape[0]
        for level in range(1, self.max_len + 1):
            width = self.levels[-1][0].shape[0]
            start, n = self.stored, width * gens
            if self.words_explored + n > self.budget:
                raise BudgetExceeded(f"exploring {self.words_explored + n} words exceeds the budget of {self.budget}")
            self.words_explored += n
            self._reserve(n)
            self._expand(start - width, n)
            end = start + n
            if level == self.max_len and self.last_level and not self.last_level(self.store[:, start:end].T):
                return
            self._join(end)  # leaves in `_keep` whether each column is the first of its key
            fresh = np.flatnonzero(self._keep[start:end])  # the new candidates, in candidate order
            count = fresh.shape[0]
            self.duplicates += n - count
            if count < n:
                # Entries (as bit patterns) and prefixes move down through the free sort buffer.
                moved = self._sorted[:count]
                for row in (*self.store[:, start:end].view(np.uint64), self.words[start:end]):
                    np.take(row, fresh, out=moved, mode="clip")
                    row[:count] = moved
            # Candidates come in one run per letter, and `fresh` is sorted: it
            # becomes the parents in place.
            runs = np.searchsorted(fresh, self.letter_ids * width).tolist()
            for gi in range(1, gens):
                if runs[gi] < runs[gi + 1]:
                    fresh[runs[gi] : runs[gi + 1]] -= gi * width
            letters = self.letter_ids[:-1].repeat([b - a for a, b in zip(runs, runs[1:])])
            mats = self.store[:, start : start + count].T
            self.levels.append((mats, fresh, letters))
            self.stored += count
            if count == 0:
                return
            yield level, mats

    def _reserve(self, n: int) -> None:
        """Grow the working set, if need be, to hold n columns after the stored rows."""
        need = self.stored + n
        if need > self.store.shape[1]:
            self._grow(max(2 * self.store.shape[1], need), need)

    def _grow(self, columns: int, need: int) -> None:
        """Move the working set to `columns` columns, `need` at least.

        The working set takes at most half of the machine's physical memory:
        fewer columns are allocated where `columns` would take more, and a
        `need` that would take more ends the sweep.
        """
        memory = _physical_memory()
        if memory is not None:
            if need * _COLUMN_BYTES > memory // 2:
                raise BudgetExceeded(
                    f"the sweep needs {need} store columns, {need * _COLUMN_BYTES >> 20} MiB with its "
                    f"working set, over half of the machine's {memory >> 20} MiB of memory"
                )
            columns = min(columns, memory // 2 // _COLUMN_BYTES)
        store = np.empty((4, columns))
        store[:, : self.stored] = self.store[:, : self.stored]
        words = np.empty(columns, dtype=np.uint64)
        words[: self.stored] = self.words[: self.stored]
        self.store, self.words = store, words
        self._sorted = np.empty(columns, dtype=np.uint64)
        self._own = np.empty(columns, dtype=bool)
        self._keep = np.empty(columns, dtype=bool)
        start = 0
        for k, (mats, parents, letters) in enumerate(self.levels):
            self.levels[k] = (store[:, start : start + mats.shape[0]].T, parents, letters)
            start += mats.shape[0]

    def _expand(self, frontier: int, n: int) -> None:
        """Write the n candidates from the frontier (store columns `frontier` on) after the stored rows.

        Candidate gi * width + k is generator gi applied to frontier row k.
        A block is a range of at most _BLOCK consecutive candidate columns,
        which may span several generators: the product runs once per generator's segment of it, and sign, key
        and hash once per block, which stays in cache from one pass to the
        next.  So a narrow level costs one pass however many generators it
        has.  The keys are not kept; the hash prefixes go to the candidates'
        columns of `words`.  Keys out of float range end the sweep.
        """
        width = self.stored - frontier
        top, bottom = self.store[:2, frontier : self.stored], self.store[2:, frontier : self.stored]
        # The store as (2, 2, columns): row i, column j of each matrix.
        quad = self.store.reshape(2, 2, -1)
        cols = self.store[:, self.stored : self.stored + n]
        words = self.words[self.stored : self.stored + n]
        term = self.spare.reshape(2, 2, _BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, _BLOCK):
                hi = min(lo + _BLOCK, n)
                for gi in range(lo // width, (hi - 1) // width + 1):
                    # Frontier rows k0..k1 give columns stored + gi * width + k.
                    k0, k1 = max(lo - gi * width, 0), min(hi - gi * width, width)
                    at = self.stored + gi * width
                    out, t = quad[:, :, at + k0 : at + k1], term[:, :, : k1 - k0]
                    np.multiply(self.left[gi], top[:, k0:k1], out=out)
                    out += np.multiply(self.right[gi], bottom[:, k0:k1], out=t)
                keys = _keys(_canonical_sign_rows(cols[:, lo:hi].T))
                if not np.isfinite(keys.view(np.float64)).all():
                    raise BudgetExceeded(f"word products leave float range at length {len(self.levels)}")
                np.bitwise_and(_mix(keys), self.prefix_mask, out=words[lo:hi])

    def _join(self, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Labels of store columns 0..end-1 in the order of their words, and which is the first of its key.

        A column's word is its prefix with its label, the column, in the low
        bits.  The table comes first, and no two of its rows share a key.
        Sorted words put equal keys, whose prefixes are equal, in one run of
        equal prefixes, in label order.  Only a run that holds different keys
        is reordered, by key and then label.  Either way the entries with one
        key are adjacent, and the first of them has the lowest label.  Every
        word is distinct, so the sort gives the same order whatever its
        algorithm.  Both results are views of the sweep's buffers, and
        `_keep[:end]` is left flagging each column that is first of its key.
        """
        merged = self._sorted[:end]
        for lo in range(0, end, _BLOCK):
            hi = min(lo + _BLOCK, end)
            np.add(self.iota[: hi - lo], np.uint64(lo), out=merged[lo:hi])
            merged[lo:hi] |= self.words[lo:hi]
        merged.sort()
        own = self._own[:end]
        own[0] = True
        xor = self.spare[1].view(np.uint64)
        for lo in range(1, end, _BLOCK):  # a new prefix
            hi = min(lo + _BLOCK, end)
            d = np.bitwise_xor(merged[lo:hi], merged[lo - 1 : hi - 1], out=xor[: hi - lo])
            np.greater(d, self.label_mask, out=own[lo:hi])
        merged &= self.label_mask
        label = merged.view(np.int64)
        later = np.flatnonzero(np.logical_not(own, out=self._keep[:end]))
        clash = later[(_keys_at(self.store, label[later]) != _keys_at(self.store, label[later - 1])).any(axis=0)]
        if clash.shape[0]:
            run = np.cumsum(own)
            member = np.flatnonzero(np.isin(run, run[clash]))
            keys = _keys_at(self.store, label[member])
            run = run[member]
            order = np.lexsort((*keys[::-1], run))
            label[member] = label[member[order]]
            keys = keys[:, order]
            own[member[1:]] = (keys[:, 1:] != keys[:, :-1]).any(axis=0) | (run[1:] != run[:-1])
            later = np.flatnonzero(np.logical_not(own, out=self._keep[:end]))
        # Each stored row is the first of its key, so only candidates come later.
        self._keep[:end] = True
        self._keep[label[later]] = False
        return label, own


def _keys(mats: np.ndarray) -> np.ndarray:
    """Dedup key of each matrix row, as four int64 words.

    The entries are rounded to multiples of DEDUP_TOL with negative zeros
    squashed and read as bit patterns, so two keys are equal exactly when
    the rounded rows are bytewise equal.
    """
    rounded = np.divide(mats, DEDUP_TOL)
    np.rint(rounded, out=rounded)
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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def _blocks(mats: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(offset, (4, k) entry rows) of the (n, 4) matrices, in blocks of at most _BLOCK."""
    for lo in range(0, mats.shape[0], _BLOCK):
        yield lo, mats[lo : lo + _BLOCK].T


def _elliptic(a: np.ndarray, d: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Whether each matrix with diagonal entries a, d is elliptic; `term` is scratch of at least a's size."""
    t = term[: a.shape[0]]
    np.abs(np.add(a, d, out=t), out=t)
    return t < 2.0 - TRACE_TOL


def _first_elliptic(mats: np.ndarray, term: np.ndarray) -> int | None:
    """Row of the first elliptic matrix among the (n, 4) matrices, or None."""
    for lo, (a, _, _, d) in _blocks(mats):
        hit = np.flatnonzero(_elliptic(a, d, term))
        if hit.shape[0]:
            return lo + int(hit[0])
    return None


def _canonical_sign_rows(mats: np.ndarray) -> np.ndarray:
    """Flip each row, in place, to the canonical sign of `MoebiusMap`; returns `mats`."""
    trace = mats[:, 0] + mats[:, 3]
    if trace.min(initial=1.0) > 0.0:  # no row flips
        return mats
    sign = np.sign(trace)
    for col in (0, 1, 2):
        if sign.all():  # no zero left (a NaN counts as decided)
            break
        sign = np.where(sign == 0.0, np.sign(mats[:, col]), sign)
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
        # A block of the level at a time, in the sweep's scratch: the first
        # minimum of a level is the first minimum of the first block holding it.
        for lo, block in _blocks(mats):
            far = bfs.spare[:, : block.shape[1]]
            near = np.abs(np.subtract(block, _IDENTITY, out=far), out=far).max(axis=0)
            idx = int(near.argmin())
            if near[idx] < best:
                best = float(near[idx])
                best_at = (level, lo + idx)
            elliptic = _elliptic(block[0], block[3], bfs.spare[0])
            elliptic_count += int(np.count_nonzero(elliptic))
            for i in np.flatnonzero(elliptic)[: MAX_STORED_ELLIPTIC - len(elliptic_at)]:
                elliptic_at.append((level, lo + int(i)))
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
    """First elliptic word in breadth-first order, or None within the budget.

    A level's new rows are some of its candidates, so the sweep's last-level
    test looks for an elliptic candidate: when there is none, no new row is
    elliptic either, and the sweep ends without that level's join.
    """
    # The test keeps its own scratch: one that referred to the sweep would
    # keep the sweep's working set alive past this call.
    term = np.empty(_BLOCK)
    bfs = _Bfs(F, max_len, budget, last_level=lambda candidates: _first_elliptic(candidates, term) is not None)
    for level, mats in bfs:
        hit = _first_elliptic(mats, term)
        if hit is not None:
            return _reconstruct(bfs, level, hit)
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
    bfs._reserve(n)
    # Each row's inverse and its prefix go to the column n after it, which the join takes as its label.
    rows, inverses = bfs.store[:, :n], bfs.store[:, n : 2 * n]
    a, b, c, d = rows
    # Adjugate rows (d, -b, -c, a): the inverses, up to the sign fixed here.
    inverses[:] = d, -b, -c, a
    _canonical_sign_rows(inverses.T)
    np.bitwise_and(_mix(_keys(inverses.T)), bfs.prefix_mask, out=bfs.words[n : 2 * n])
    label, own = bfs._join(2 * n)
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
