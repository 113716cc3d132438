import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from semicert import (
    BoundaryPoint,
    ChaosSamples,
    MoebiusMap,
    chaos_game,
    compose,
    contains,
    crossing_limit_interval,
    enumerate_words,
    find_elliptic,
    inverse,
    inverse_free_probe,
    normalize,
)
from semicert import search_oracle
from semicert.errors import BudgetExceeded
from semicert.moebius_core import _canonical_signs
from semicert.search_oracle import (
    CHAOS_BURN_IN,
    CHAOS_CHAINS,
    DEDUP_TOL,
    INVERSE_TOL,
    _Bfs,
    _chaos_start,
    _elliptic,
    _keys,
    _reconstruct,
)

from helpers import crossing_pair, disjoint_pair, figure_two, is_infinity, section_one_pair


def key(row):
    """The per-row dedup key that the table replaced: rounded entries as bytes."""
    return (np.round(row / DEDUP_TOL) + 0.0).tobytes()


def canonical_rows(mats):
    """The (n, 4) matrices `mats` with the canonical sign of `MoebiusMap`, in place; returns `mats`."""
    _canonical_signs(mats.T)
    return mats


def reference_bfs(F, max_len):
    """The set-of-bytes sweep `_Bfs` replaced: (levels, duplicates, every candidate row)."""
    gens = np.array([[f.a, f.b, f.c, f.d] for f in F], dtype=np.float64)
    root = np.array([[1.0, 0.0, 0.0, 1.0]])
    seen = {key(root[0])}
    levels = [(root, np.array([-1]), np.array([-1]))]
    duplicates, candidates = 0, []
    for _ in range(max_len):
        w = levels[-1][0]
        blocks, parents, letters = [], [], []
        for gi, (a, b, c, d) in enumerate(gens):
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
            parents.append(np.arange(w.shape[0]))
            letters.append(np.full(w.shape[0], gi))
        mats = canonical_rows(np.concatenate(blocks, axis=0))
        parent, letter = np.concatenate(parents), np.concatenate(letters)
        fresh = np.zeros(mats.shape[0], dtype=bool)
        for idx, row in enumerate(mats):
            if key(row) not in seen:
                seen.add(key(row))
                fresh[idx] = True
        duplicates += int(mats.shape[0] - fresh.sum())
        candidates.append(mats)
        levels.append((mats[fresh], parent[fresh], letter[fresh]))
        if not fresh.any():
            break
    return levels, duplicates, np.concatenate(candidates)


def edge_generators():
    """Maps whose words hold signed zeros and entries on a DEDUP_TOL rounding boundary."""
    t = DEDUP_TOL
    return [
        MoebiusMap(2.0, 0.5 * t, -0.0, 0.5),
        MoebiusMap(-0.5, -1.5 * t, 0.0, -2.0),  # negative trace: its words flip sign
        MoebiusMap(1.0, 0.0, 2.5 * t, 1.0),
    ]


AGREEMENT_CASES = ["section-one", "figure-two", "figure-two-6", "coincident", "edge-values"]


def agreement_case(name):
    f, g = section_one_pair()
    if name == "section-one":
        return [f, g], 16
    if name == "figure-two":
        return figure_two(0.1), 5
    if name == "figure-two-6":
        # 19,530 rows, every one new: each level is merged into a large table.
        return figure_two(0.1), 6
    if name == "coincident":
        # The third generator is the product of the first two, so words coincide.
        p, q = disjoint_pair(np.random.default_rng(98), 1.0, 2.0, 2.3)
        return [p, q, compose(p, q)], 7
    return edge_generators(), 8


def assert_same_sweep(F, max_len, budget=2_000_000):
    want_levels, want_duplicates, _ = reference_bfs(F, max_len)
    bfs = _Bfs(F, max_len, budget)
    for _ in bfs:
        pass
    assert bfs.duplicates == want_duplicates
    assert len(bfs.levels) == len(want_levels)
    for got, want in zip(bfs.levels, want_levels):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_nearest(F, max_len):
    """(min identity distance, nearest word) by the row-wise max that the column maxima replaced."""
    bfs = _Bfs(F, max_len, 2_000_000)
    best, best_at = math.inf, None
    for level, mats in bfs:
        dist = np.max(np.abs(mats - np.array([1.0, 0.0, 0.0, 1.0])), axis=1)
        idx = int(np.argmin(dist))
        if dist[idx] < best:
            best, best_at = float(dist[idx]), (level, idx)
    return best, _reconstruct(bfs, *best_at)


def reference_chaos(F, samples, seed):
    """The chaos game as one scalar loop per chain, over the picks `chaos_game` draws."""
    chains = min(CHAOS_CHAINS, samples)
    steps = -(-samples // chains) + CHAOS_BURN_IN
    picks = np.random.default_rng(seed).integers(0, len(F), size=(steps, chains)).tolist()
    start = _chaos_start(F)
    runs = []
    for chain in range(chains):
        x, y = start.x, start.y
        run = []
        for step in range(steps):
            f = F[picks[step][chain]]
            x, y = f.a * x + f.b * y, f.c * x + f.d * y
            norm = math.hypot(x, y)
            x, y = x / norm, y / norm
            if step >= CHAOS_BURN_IN:
                run.append(BoundaryPoint.of(x, y))
        runs.append(run)
    return [run[i] for i in range(steps - CHAOS_BURN_IN) for run in runs][:samples]


def chaos_family(name):
    return {
        "section-one": list(section_one_pair()),
        "crossing": list(crossing_pair(np.random.default_rng(97), math.pi / 2.0, 0.15, 0.15)),
        "figure-two": figure_two(41.0),
        # z/2 and -1/z: chains start at 0 and reach infinity as (-1 : -0.0).
        "through-infinity": [normalize([[1.0, 0.0], [0.0, 2.0]]), normalize([[0.0, -1.0], [1.0, 0.0]])],
    }[name]


class TestEnumerate:
    def test_section_one_semigroup(self):
        f, g = section_one_pair()
        report = enumerate_words([f, g], 12)
        assert report.elliptic_count == 0
        assert report.min_identity_distance > 0.1

    def test_nearest_element_is_the_dilation(self):
        f, g = section_one_pair()
        report = enumerate_words([f, g], 8)
        assert report.min_identity_distance == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
        assert report.nearest_word.letters in ((0,), (1,))

    def test_word_matrices_match_letters(self):
        f, g = section_one_pair()
        report = enumerate_words([f, g], 6)
        gens = [f, g]
        for word in (report.nearest_word, *report.elliptic_words):
            if word is None:
                continue
            out = normalize([[1.0, 0.0], [0.0, 1.0]])
            for letter in reversed(word.letters):
                out = compose(gens[letter], out)
            assert out.a == pytest.approx(word.matrix.a, abs=1e-12)
            assert out.b == pytest.approx(word.matrix.b, abs=1e-12)

    def test_budget(self):
        rng = np.random.default_rng(90)
        f, g = disjoint_pair(rng, 1.0, 2.0, 2.3)
        with pytest.raises(BudgetExceeded):
            enumerate_words([f, g], 30, budget=1000)

    def test_budget_spent_exactly(self):
        F, max_len = agreement_case("figure-two")
        words = sum(len(F) ** level for level in range(1, max_len + 1))
        assert_same_sweep(F, max_len, budget=words)
        with pytest.raises(BudgetExceeded, match=f"exploring {words} words exceeds the budget of {words - 1}"):
            enumerate_words(F, max_len, budget=words - 1)
        for budget in (0, -1):
            with pytest.raises(BudgetExceeded, match=f"exploring 5 words exceeds the budget of {budget}"):
                enumerate_words(F, max_len, budget=budget)

    def test_huge_budget(self):
        for case in ("section-one", "coincident"):
            assert_same_sweep(*agreement_case(case), budget=2**70)
        # z -> -1/(z + 1) has order 3: the sweep closes long before max_len.
        m = normalize([[0.0, -1.0], [1.0, 1.0]])
        assert enumerate_words([m], 10**9, budget=2**70).words_explored == 3

    def test_words_leaving_float_range_end_the_sweep(self):
        # Length-2 products reach 1e300, whose key (entries / DEDUP_TOL) overflows.
        F = [MoebiusMap(1e150, 0.0, 0.0, 1.0), MoebiusMap(2.0, 1e149, 0.0, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceeded, match="^word products leave float range at length 2$"):
                enumerate_words(F, 6)
            assert enumerate_words(F, 1).distinct_elements == 2

    def test_determinism(self):
        rng = np.random.default_rng(91)
        f, g = disjoint_pair(rng, 1.0, 2.0, 2.3)
        r1 = enumerate_words([f, g], 9)
        r2 = enumerate_words([f, g], 9)
        assert r1 == r2

    def test_pinned_counts(self):
        # Section 1 at length 24 is the benchmark's pin; figure_two(0.1) is free to length 6.
        report = enumerate_words(list(section_one_pair()), 24)
        assert (report.words_explored, report.distinct_elements) == (341_790, 254_331)
        assert enumerate_words(figure_two(0.1), 6).distinct_elements == 19_530

    @pytest.mark.parametrize("case", ["section-one", "figure-two", "disjoint", "crossing"])
    def test_nearest_word_matches_the_row_max_reference(self, case):
        if case == "section-one":
            F, max_len = list(section_one_pair()), 12
        elif case == "figure-two":
            F, max_len = figure_two(0.1), 6
        elif case == "disjoint":
            F, max_len = list(disjoint_pair(np.random.default_rng(99), 1.0, 0.4, 0.3)), 10
        else:
            F, max_len = list(crossing_pair(np.random.default_rng(100), math.pi / 3.0, 0.2, 0.3)), 10
        report = enumerate_words(F, max_len)
        best, word = reference_nearest(F, max_len)
        assert report.min_identity_distance == best
        assert report.nearest_word == word

    def test_memory_guard(self, monkeypatch):
        # On a machine of 8 MiB the working set stops at 4 MiB, long before a budget of 2**70.
        monkeypatch.setattr(search_oracle, "_physical_memory", lambda: 8 << 20)
        message = (
            r"^the sweep needs \d+ store columns, \d+ MiB with its working set, "
            r"over half of the machine's 8 MiB of memory$"
        )
        F, _ = agreement_case("coincident")
        with pytest.raises(BudgetExceeded, match=message):
            enumerate_words(F, 60, budget=2**70)
        bfs = _Bfs(F, 60, 2**70)
        with pytest.raises(BudgetExceeded, match=message):
            for _ in bfs:
                pass
        assert len(bfs.levels) <= 12
        assert bfs.store.shape[1] * search_oracle._COLUMN_BYTES <= 4 << 20
        # The probe's inverses need twice the rows of a sweep that fits.
        F, max_len = agreement_case("figure-two-6")
        monkeypatch.setattr(search_oracle, "_physical_memory", lambda: 2 * 30_000 * search_oracle._COLUMN_BYTES)
        assert enumerate_words(F, max_len).distinct_elements == 19_530
        with pytest.raises(BudgetExceeded, match="the sweep needs 39062 store columns"):
            inverse_free_probe(F, max_len)
        # Where the machine's memory is unknown, nothing caps the working set.
        monkeypatch.setattr(search_oracle, "_physical_memory", lambda: None)
        assert_same_sweep(*agreement_case("coincident"))

    def test_traced_peak_is_the_working_set(self):
        # To length 7, figure_two(0.1) keeps 97,656 store columns with their
        # words, sort copies and flags (4.9 MB) and its levels (1.6 MB); a
        # level copies neither its table nor its candidates' words.  The
        # traced peak is 6.9 MB with numpy 2.4.
        F = figure_two(0.1)
        enumerate_words(F, 2)
        tracemalloc.start()
        try:
            enumerate_words(F, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_min_distance_nonincreasing_in_length(self):
        f, g = section_one_pair()
        dists = [enumerate_words([f, g], n).min_identity_distance for n in (2, 4, 8, 12)]
        assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))


class TestDedupTable:
    @pytest.mark.parametrize("case", AGREEMENT_CASES)
    def test_matches_the_set_of_bytes_reference(self, case):
        assert_same_sweep(*agreement_case(case))

    def test_edge_values_reach_the_dedup(self):
        _, duplicates, rows = reference_bfs(*agreement_case("edge-values"))
        assert duplicates > 0
        assert (np.signbit(rows) & (rows == 0.0)).any()
        assert (np.abs(rows / DEDUP_TOL) % 1.0 == 0.5).any()
        # The sweep's keys are the reference's bytes, ties to even and zeros unsigned.
        assert [k.tobytes() for k in _keys(rows)] == [key(row) for row in rows]

    def test_blocks_that_split_a_level(self, monkeypatch):
        # Seven candidate columns per block: no case's generator count divides
        # it, so blocks end inside generator runs and span several of them.
        def evidence(F, max_len):
            return enumerate_words(F, max_len), find_elliptic(F, max_len), inverse_free_probe(F, max_len)

        want = {case: evidence(*agreement_case(case)) for case in AGREEMENT_CASES}
        monkeypatch.setattr(search_oracle, "_BLOCK", 7)
        for case in AGREEMENT_CASES:
            assert_same_sweep(*agreement_case(case))
            assert evidence(*agreement_case(case)) == want[case]

    def test_a_narrow_level_hashes_once(self, monkeypatch):
        # One block per level whatever the generator count: 30 levels of one
        # new row each, plus the root, at five generators.
        calls = []
        mix = search_oracle._mix
        monkeypatch.setattr(search_oracle, "_mix", lambda keys: calls.append(keys.shape[0]) or mix(keys))
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        report = enumerate_words([f] * 5, 30)
        assert (report.distinct_elements, report.duplicate_classes) == (30, 120)
        assert calls == [1] + [5] * 30

    @pytest.mark.parametrize("case", ["figure-two", "coincident", "edge-values"])
    def test_forced_collisions_stay_exact(self, case, monkeypatch):
        monkeypatch.setattr(search_oracle, "_mix", lambda keys: np.zeros(keys.shape[0], dtype=np.uint64))
        assert_same_sweep(*agreement_case(case))
        f, g = section_one_pair()
        assert not inverse_free_probe([f, g, inverse(compose(f, g))], 3)
        assert inverse_free_probe([f, g], 6)

    @pytest.mark.parametrize("case", ["section-one", "figure-two", "coincident", "edge-values"])
    def test_few_hash_prefixes_stay_exact(self, case, monkeypatch):
        # Four prefixes in all: runs of equal prefix mix different keys, both
        # among a level's candidates and against the stored rows.
        monkeypatch.setattr(search_oracle, "_mix", lambda keys: keys[:, 0].view(np.uint64) << np.uint64(62))
        assert_same_sweep(*agreement_case(case))
        f, g = section_one_pair()
        assert not inverse_free_probe([f, g, inverse(compose(f, g))], 3)
        assert inverse_free_probe([f, g], 6)

    def test_prefix_collisions_regroup_only_their_runs(self, monkeypatch):
        # About one key in five hashes to prefix 0; the others keep their own.
        mix = search_oracle._mix
        monkeypatch.setattr(
            search_oracle, "_mix", lambda keys: np.where(keys[:, 0] % 5 == 0, np.uint64(0), mix(keys))
        )
        regrouped = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: regrouped.append(len(keys[-1])) or lexsort(keys))
        F, max_len = agreement_case("figure-two")
        assert_same_sweep(F, max_len)
        # The last level sorts 781 stored rows with 3,125 candidates.
        assert regrouped and max(regrouped) < 3906 / 2

    def test_store_growth_keeps_the_levels(self, monkeypatch):
        def evidence(case):
            return enumerate_words(*agreement_case(case)), inverse_free_probe(*agreement_case(case))

        want = {case: evidence(case) for case in AGREEMENT_CASES}
        monkeypatch.setattr(search_oracle, "_STORE_COLUMNS", 2)
        for case in ("figure-two", "coincident"):
            assert_same_sweep(*agreement_case(case))
        # The words and the join's buffers grow with the store.
        for case in AGREEMENT_CASES:
            assert evidence(case) == want[case]
        f, g = section_one_pair()
        assert not inverse_free_probe([f, g, inverse(compose(f, g))], 3)

    @pytest.mark.parametrize("forced", [False, True], ids=["mixed", "forced-collisions"])
    def test_words_are_the_prefixes_of_the_stored_rows(self, forced, monkeypatch):
        # After a sweep, the last level included, `words` holds each stored
        # row's key-hash prefix in row order, and no label bits.
        if forced:
            monkeypatch.setattr(search_oracle, "_mix", lambda keys: np.zeros(keys.shape[0], dtype=np.uint64))
        for case in AGREEMENT_CASES:
            bfs = _Bfs(*agreement_case(case), 2_000_000)
            for _ in bfs:
                pass
            want = search_oracle._mix(_keys(bfs.store[:, : bfs.stored].T)) & bfs.prefix_mask
            assert bfs.words[: bfs.stored].tobytes() == want.tobytes()

    @pytest.mark.parametrize("forced", [False, True], ids=["mixed", "forced-collisions"])
    def test_the_last_level_reaches_the_probe(self, forced, monkeypatch):
        if forced:
            monkeypatch.setattr(search_oracle, "_mix", lambda keys: np.zeros(keys.shape[0], dtype=np.uint64))
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        bfs = _Bfs([f, inverse(f)], 1, 2_000_000)
        assert [mats.shape[0] for _, mats in bfs] == [2]
        # The last level is in the table: its prefixes sit in its rows' columns.
        assert bfs.words[:3].tolist() == (search_oracle._mix(_keys(bfs.store[:, :3].T)) & bfs.prefix_mask).tolist()
        # The partner of f sits only in that last level; the probe merges it first.
        assert not inverse_free_probe([f, inverse(f)], 1)
        # z -> -1/(z + 1) has order 3: the sweep closes at level 3 with M^3 = I.
        m = normalize([[0.0, -1.0], [1.0, 1.0]])
        report = enumerate_words([m], 5)
        assert (report.words_explored, report.distinct_elements, report.duplicate_classes) == (3, 2, 1)
        assert not inverse_free_probe([m], 5)


class TestFindElliptic:
    def test_small_disjoint_pair(self):
        rng = np.random.default_rng(92)
        f, g = disjoint_pair(rng, math.log(2.0), 0.1, 0.1)
        word = find_elliptic([f, g], 40)
        assert word is not None
        assert abs(word.matrix.trace) < 2.0
        assert len(word.letters) == 2

    def test_matches_witness_prediction(self):
        from semicert import elliptic_witness_disjoint

        rng = np.random.default_rng(93)
        f, g = disjoint_pair(rng, math.log(2.0), 0.1, 0.1)
        m, n, trace = elliptic_witness_disjoint([f, g])
        word = find_elliptic([f, g], 40)
        assert sorted(word.letters) == sorted([0] * m + [1] * n)
        assert abs(word.matrix.trace) == pytest.approx(abs(trace), abs=1e-9)

    def test_schottky_regime_has_none(self):
        rng = np.random.default_rng(94)
        tau = math.log(9.0) + 1.6
        f, g = disjoint_pair(rng, math.log(2.0), tau, tau)
        assert find_elliptic([f, g], 14) is None

    def test_single_hyperbolic_has_none(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert find_elliptic([f], 14) is None

    @pytest.mark.parametrize("case", AGREEMENT_CASES)
    def test_matches_the_first_elliptic_row_of_a_full_sweep(self, case):
        F, max_len = agreement_case(case)
        bfs = _Bfs(F, max_len, 2_000_000)
        first = None
        for level, mats in bfs:
            hit = np.flatnonzero(_elliptic(mats[:, 0], mats[:, 3], np.empty(mats.shape[0])))
            if hit.size:
                first = (level, int(hit[0]))
                break
        if case == "figure-two":
            # figure_two(0.1) has its first elliptic word at level 2, so max_len
            # 2 finds it in the last level, which must then still be joined.
            assert first is not None and first[0] == 2
        for length in range(1, max_len + 1):
            want = _reconstruct(bfs, *first) if first is not None and first[0] <= length else None
            found = find_elliptic(F, length)
            assert found == want
            # `certify --max-words` reports the first elliptic word of the full sweep as this one.
            elliptic = enumerate_words(F, length).elliptic_words
            assert (elliptic[0] if elliptic else None) == found

    def test_no_join_for_a_last_level_without_elliptic_candidates(self, monkeypatch):
        joins = []
        join = _Bfs._join
        monkeypatch.setattr(_Bfs, "_join", lambda bfs, end: joins.append(end) or join(bfs, end))
        assert find_elliptic(list(section_one_pair()), 12) is None
        assert len(joins) == 11

    def test_a_finished_search_frees_its_sweep(self, monkeypatch):
        # A last-level test that referred to its sweep would make a reference
        # cycle, and the working set would outlive the call until the cycle
        # collector ran.
        sweeps = []
        init = _Bfs.__init__
        monkeypatch.setattr(_Bfs, "__init__", lambda bfs, *a, **k: sweeps.append(weakref.ref(bfs)) or init(bfs, *a, **k))
        gc.disable()
        try:
            assert find_elliptic(list(section_one_pair()), 8) is None
            assert find_elliptic(figure_two(0.1), 3) is not None
        finally:
            gc.enable()
        assert [ref() for ref in sweeps] == [None, None]


class TestInverseFreeProbe:
    def test_detects_inverse_pair(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert not inverse_free_probe([f, inverse(f)], 4)

    def test_section_one_pair(self):
        f, g = section_one_pair()
        assert inverse_free_probe([f, g], 10)

    def test_certified_system(self):
        rng = np.random.default_rng(95)
        tau = math.log(9.0) + 1.6
        f, g = disjoint_pair(rng, math.log(2.0), tau, tau)
        assert inverse_free_probe([f, g], 10)
        report = enumerate_words([f, g], 12)
        assert report.elliptic_count == 0
        assert report.min_identity_distance > 10.0 * report.dedup_tol

    @pytest.mark.parametrize(
        "case", ["inverse-pair", "product-inverse", "section-one", "figure-two", "moved-partner-1", "moved-partner-2"]
    )
    def test_matches_the_per_row_reference(self, case):
        # The probe looks whole arrays up in the table; this is the per-row loop it replaced.
        def reference(F, max_len):
            rows = [row for _, mats in _Bfs(F, max_len, 2_000_000) for row in mats]
            index = {key(row): row for row in rows}
            for row in rows:
                a, b, c, d = row
                partner = index.get(key(canonical_rows(np.array([[d, -b, -c, a]]))[0]))
                if partner is None:
                    continue
                prod = np.array([[a, b], [c, d]]) @ np.array([[partner[0], partner[1]], [partner[2], partner[3]]])
                if np.max(np.abs(np.abs(prod) - np.eye(2))) < INVERSE_TOL:
                    return False
            return True

        f, g = section_one_pair()
        # Level 2 of `moved` keeps 14 of its 16 candidates, so q q, the only
        # partner of the last generator, moves to a new column.
        p, q = disjoint_pair(np.random.default_rng(98), 1.0, 2.0, 2.3)
        moved = [p, q, compose(p, q), inverse(compose(q, q))]
        F, max_len = {
            "inverse-pair": ([f, inverse(f)], 4),
            "product-inverse": ([f, g, inverse(compose(f, g))], 3),
            "section-one": ([f, g], 10),
            "figure-two": (figure_two(0.1), 5),
            "moved-partner-1": (moved, 1),
            "moved-partner-2": (moved, 2),
        }[case]
        assert inverse_free_probe(F, max_len) == reference(F, max_len)
        assert inverse_free_probe(F, max_len) == (case in ("section-one", "figure-two", "moved-partner-1"))


class TestChaosGame:
    def test_single_attractor(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        pts = chaos_game([f], 100, seed=3)
        assert all(is_infinity(p) for p in pts)
        assert pts.angles().tolist() == [0.0] * 100

    def test_leaves_a_common_fixed_point(self):
        # 2z attracts to infinity, which z/2 + 1 fixes too; the orbit starts
        # at 2, the attracting point of z/2 + 1, and fills [1, inf].
        F = section_one_pair()
        for seed in (1, 7, 91):
            pts = chaos_game(F, 2000, seed=seed)
            assert len({(p.x, p.y) for p in pts}) > 1
            assert all(p.value >= 1.0 for p in pts)
        assert chaos_game(F, 100, seed=1) != chaos_game(F, 100, seed=7)

    def test_empty_family_is_refused_before_drawing(self):
        with pytest.raises(ValueError, match="need at least one generator"):
            chaos_game([], 100, seed=1)

    def test_deterministic(self):
        rng = np.random.default_rng(96)
        f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15)
        a = chaos_game([f, g], 1000, seed=11)
        b = chaos_game([f, g], 1000, seed=11)
        assert a == b
        assert a != chaos_game([f, g], 1000, seed=12)

    def test_samples_fill_the_limit_interval(self):
        # The endpoint tails carry measure ~ delta^(log2 / tau), so only the
        # interior fill is quantitative at this sample count; the acceptance
        # suite records the endpoint behaviour.
        rng = np.random.default_rng(97)
        f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15)
        arc = crossing_limit_interval([f, g])
        pts = chaos_game([f, g], 50_000, seed=5)
        for p in pts:
            assert contains(arc, p) or min(
                p.angular_distance(arc.start), p.angular_distance(arc.end)
            ) < 1e-9
        offsets = sorted(((p.angle - arc.start.angle) % (2 * math.pi)) for p in pts)
        interior = [t for t in offsets if 0.1 * arc.span <= t <= 0.9 * arc.span]
        gaps = [b - a for a, b in zip(interior, interior[1:])]
        assert max(gaps) < 0.02
        assert offsets[0] < 0.05 * arc.span and offsets[-1] > 0.85 * arc.span

    def test_samples_stay_in_certified_union(self):
        from semicert import assemble_global

        F = figure_two(41.0)
        system = assemble_global(F)
        pts = chaos_game(F, 20_000, seed=9)
        for p in pts:
            assert any(
                contains(arc, p)
                or min(p.angular_distance(arc.start), p.angular_distance(arc.end)) < 1e-9
                for arc in system.union
            )

    @pytest.mark.parametrize("samples", [1, 7, 1023, 1024, 1025, 100_000])
    def test_returns_exactly_the_samples_asked_for(self, samples):
        pts = chaos_game(list(section_one_pair()), samples, seed=4)
        assert isinstance(pts, ChaosSamples)
        assert len(pts) == len(pts.x) == len(pts.y) == samples
        assert sum(1 for _ in pts) == samples

    @pytest.mark.parametrize("case", ["section-one", "crossing", "figure-two", "through-infinity"])
    def test_samples_are_canonical(self, case):
        pts = chaos_game(chaos_family(case), 5000, seed=2)
        assert np.allclose(pts.x**2 + pts.y**2, 1.0, rtol=0.0, atol=1e-15)
        assert ((pts.y > 0.0) | ((pts.y == 0.0) & (pts.x > 0.0))).all()
        assert all(BoundaryPoint.of(p.x, p.y).approx(p, 1e-15) for p in pts)
        if case == "through-infinity":
            assert any(is_infinity(p) for p in pts)

    @pytest.mark.parametrize(
        "case, samples", [("crossing", 3000), ("figure-two", 2500), ("section-one", 7), ("figure-two", 1)]
    )
    def test_matches_the_per_chain_scalar_loop(self, case, samples):
        F = chaos_family(case)
        got = list(chaos_game(F, samples, seed=5))
        want = reference_chaos(F, samples, seed=5)
        assert len(got) == len(want) == samples
        assert max(p.angular_distance(q) for p, q in zip(got, want)) <= 1e-12

    def test_angles_are_the_point_angles(self):
        pts = chaos_game(chaos_family("crossing"), 20_000, seed=6)
        angles = pts.angles()
        assert angles.dtype == np.float64
        assert angles.tolist() == [p.angle for p in pts]
