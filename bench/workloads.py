"""The three benchmark workloads: seeded inputs, closed-loop timing, checks.

One caller drives the library from one thread; the next request starts
only after the previous one has returned (closed loop, one client).  A
certify request takes one family from generators to certificate JSON
(`certify`, `certificate_to_dict`, sorted-key `json.dumps`).  An oracle
request is one evidence round: `enumerate_words`, `find_elliptic` and
`inverse_free_probe` on each oracle input, plus one chaos game.

Each workload has a fixed input set determined by the seed.  The timed
loop runs whole passes over it until the time budget is spent, so every
input is timed at least once; the first pass supplies the outputs that are
checked and digested, and every later pass must reproduce them byte for
byte.  Timings are scaled by the speed reference (see speed.py); a
per-input figure is the median of that input's scaled repeats.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import exact
import families as fam
from semicert import cli, criteria_engine, search_oracle
from speed import NOMINAL_S, SpeedReference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# Input sizes; "tiny" is for the self-test only.
SCALES = {
    "full": {
        "assembly_count": 48,
        "assembly_n": 32,
        "verdict_cycles": 20,
        "s1_len": 24,
        "f2_len": 8,
        "f2_probe_len": 6,
        "chaos_samples": 100_000,
        "oracle_cli_len": 5,
        "cli_cases": 3,
        "cli_rounds": 3,
        "setup_runs": 5,
    },
    "tiny": {
        "assembly_count": 2,
        "assembly_n": 6,
        "verdict_cycles": 1,
        "s1_len": 10,
        "f2_len": 4,
        "f2_probe_len": 3,
        "chaos_samples": 2_000,
        "oracle_cli_len": 3,
        "cli_cases": 1,
        "cli_rounds": 1,
        "setup_runs": 1,
    },
}
# Counts pinned at the full oracle size: (words explored, distinct elements).
SECTION_ONE_PIN = {24: (341_790, 254_331)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class OracleInputs:
    evidence: list  # (label, maps, max_len, inverse_free_probe length)
    chaos_maps: list
    chaos_samples: int
    chaos_seed: int
    cli_maps: list
    cli_len: int


def make_inputs(workload: str, seed: int, scale: str):
    size = SCALES[scale]
    if workload == "assembly-large":
        return fam.assembly_large(seed, size["assembly_count"], size["assembly_n"])
    if workload == "verdict-mix":
        return fam.verdict_mix(seed, size["verdict_cycles"])
    if workload == "oracle":
        s1, f2 = fam.section_one_pair(), fam.figure_two(0.1)
        return OracleInputs(
            evidence=[
                # The CLI probes inverse-freeness to min(max_len, 10).  For
                # figure_two its per-word Python loop needs ~10 s at length
                # 8, so the probe stops at f2_probe_len there.
                ("section_one", s1, size["s1_len"], min(size["s1_len"], 10)),
                ("figure_two_0.1", f2, size["f2_len"], size["f2_probe_len"]),
            ],
            chaos_maps=s1,
            chaos_samples=size["chaos_samples"],
            chaos_seed=seed % 2**64,
            cli_maps=f2,
            cli_len=size["oracle_cli_len"],
        )
    raise ValueError(f"unknown workload {workload!r}")


def input_count(workload: str, inputs) -> int:
    return 1 if workload == "oracle" else len(inputs)


# --- requests ------------------------------------------------------------------


def certify_request(family: fam.Family) -> str:
    cert = criteria_engine.certify(list(family.maps))
    return json.dumps(criteria_engine.certificate_to_dict(cert), sort_keys=True)


def oracle_request(inp: OracleInputs, parts: list, between) -> tuple[dict, list]:
    """One evidence round; appends (call, start, seconds) per call to `parts`.

    `between` runs between calls, outside their timings.
    """

    def timed(key, fn, *args, **kwargs):
        between()
        start = perf_counter()
        result = fn(*args, **kwargs)
        parts.append((key, start, perf_counter() - start))
        return result

    out = {}
    for label, maps, max_len, probe_len in inp.evidence:
        report = timed("enumerate_words", search_oracle.enumerate_words, maps, max_len)
        first = timed("find_elliptic", search_oracle.find_elliptic, maps, max_len)
        probe = timed("inverse_free_probe", search_oracle.inverse_free_probe, maps, probe_len)
        out[label] = (report, first, probe)
    points = timed("chaos_game", search_oracle.chaos_game, inp.chaos_maps, inp.chaos_samples, seed=inp.chaos_seed)
    return out, points


def oracle_text(inp: OracleInputs, raw: tuple[dict, list]) -> str:
    """Sorted-key JSON summary of one evidence round (built outside the timing)."""
    evidence, points = raw
    out = {}
    for label, (report, first, probe) in evidence.items():
        out[label] = {
            "words_explored": report.words_explored,
            "distinct_elements": report.distinct_elements,
            "duplicate_classes": report.duplicate_classes,
            "min_identity_distance": report.min_identity_distance,
            "nearest_word": list(report.nearest_word.letters) if report.nearest_word else None,
            "elliptic_count": report.elliptic_count,
            "elliptic_words": [list(w.letters) for w in report.elliptic_words],
            "first_elliptic_word": list(first.letters) if first else None,
            "inverse_free_probe": probe,
        }
    out["chaos"] = {
        "samples": len(points),
        "seed": inp.chaos_seed,
        "points_sha256": hashlib.sha256(repr([(p.x, p.y) for p in points]).encode()).hexdigest(),
        "escaped": sum(1 for p in points if p.y > 0.0 and p.x < p.y * (1.0 - 1e-12)),
    }
    return json.dumps(out, sort_keys=True)


# --- the timed loop ------------------------------------------------------------


@dataclass
class LoopResult:
    times: list = field(default_factory=list)  # raw seconds per request, in order
    scaled: list = field(default_factory=list)  # the same, scaled by the speed reference
    index: list = field(default_factory=list)  # input index per request
    parts: list = field(default_factory=list)  # scaled seconds per call, per request
    raised: list = field(default_factory=list)  # (input index, message)
    first: dict = field(default_factory=dict)  # input index -> first output text
    mismatched: int = 0

    def per_input(self) -> dict:
        """Median scaled seconds of each input's repeats (input index -> seconds)."""
        repeats: dict = {}
        for t, i in zip(self.scaled, self.index):
            repeats.setdefault(i, []).append(t)
        return {i: statistics.median(v) for i, v in repeats.items()}


def run_loop(workload, inputs, seconds, full_pass, speed: SpeedReference, tracer=None, reference=None) -> LoopResult:
    """Closed loop over the fixed inputs until `seconds` have passed.

    With `full_pass` every input runs at least once.  Outputs are compared
    with `reference` (input index -> text) when given, else with the first
    output of the same input in this loop.
    """
    res, timed_parts = LoopResult(), []
    count = input_count(workload, inputs)
    begin = perf_counter()
    k = 0
    while k == 0 or (full_pass and k < count) or perf_counter() - begin < seconds:
        i = k % count
        k += 1
        speed.maybe_checkpoint()
        parts: list = []
        try:
            if tracer is None:
                raw = _request(workload, inputs, i, parts, speed.maybe_checkpoint)
            else:
                with tracer.span("request", i):
                    raw = _request(workload, inputs, i, parts, speed.maybe_checkpoint)
            text = oracle_text(inputs, raw) if workload == "oracle" else raw
        except Exception as exc:  # every failure is counted, and the loop goes on
            res.raised.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        res.times.append(sum(t for _, _, t in parts))
        res.index.append(i)
        timed_parts.append(parts)
        expected = (reference or res.first).get(i)
        if expected is None:
            res.first[i] = text
        elif expected != text:
            res.mismatched += 1
    speed.checkpoint()
    for parts in timed_parts:
        scaled: dict = {}
        for key, start, seconds in parts:
            scaled[key] = scaled.get(key, 0.0) + seconds * speed.scale(start)
        res.parts.append(scaled)
        res.scaled.append(sum(scaled.values()))
    return res


def _request(workload, inputs, i, parts, between):
    if workload == "oracle":
        return oracle_request(inputs, parts, between)
    start = perf_counter()
    text = certify_request(inputs[i])
    parts.append(("certify", start, perf_counter() - start))
    return text


# --- correctness -----------------------------------------------------------------


def check_certify(inputs, first: dict) -> tuple[dict, list]:
    """Exact re-check of every first-pass certificate: (problems per input, kinds)."""
    problems, kinds = {}, []
    for i, family in enumerate(inputs):
        text = first.get(i)
        if text is None:
            kinds.append((family.cls, "raised"))
            continue
        payload = json.loads(text)
        kinds.append((family.cls, payload["kind"]))
        found = exact.check_certificate(family.maps, payload, family.truth)
        if found:
            problems[i] = found
    return problems, kinds


def check_oracle(inp: OracleInputs, text: str) -> list:
    """Independent facts about one evidence round."""
    out, problems = json.loads(text), []
    for label, maps, max_len, _ in inp.evidence:
        ev = out[label]
        if ev["words_explored"] != ev["distinct_elements"] + ev["duplicate_classes"]:
            problems.append(f"{label}: words explored != distinct + duplicates")
        for word in ev["elliptic_words"] + ([ev["first_elliptic_word"]] if ev["first_elliptic_word"] else []):
            if not exact.is_elliptic(exact.word_matrix(maps, [(g, 1) for g in word])):
                problems.append(f"{label}: reported elliptic word {word} is not elliptic")
        if label == "section_one":
            # Upper-triangular generators: every word is affine, never elliptic,
            # and the verified interval (1, inf) keeps the identity away.
            pin = SECTION_ONE_PIN.get(max_len)
            if pin and (ev["words_explored"], ev["distinct_elements"]) != pin:
                problems.append(f"section_one: counts {ev['words_explored']}, {ev['distinct_elements']} != {pin}")
            if ev["elliptic_count"] or ev["first_elliptic_word"] or not ev["inverse_free_probe"]:
                problems.append("section_one: elliptic word or inverse pair reported")
            if not ev["min_identity_distance"] > 0.1:
                problems.append("section_one: semigroup approaches the identity")
        else:
            # Five generators in general position: the semigroup is free to
            # this length, so every word is distinct, and tau = 0.1 is below
            # the lower gate, so elliptic words exist.
            words = sum(5**level for level in range(1, max_len + 1))
            if (ev["words_explored"], ev["distinct_elements"]) != (words, words):
                problems.append(f"{label}: expected {words} distinct words")
            if not ev["elliptic_count"] or not ev["first_elliptic_word"]:
                problems.append(f"{label}: no elliptic word found")
    chaos = out["chaos"]
    if chaos["samples"] != inp.chaos_samples or chaos["escaped"]:
        problems.append(f"chaos: {chaos['escaped']} samples left the verified interval [1, inf]")
    return problems


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def outcome(workload, inputs, loop: LoopResult) -> dict:
    """Attempts, failures, digest and verdict counts of a loop."""
    if workload == "oracle":
        problems = {0: check_oracle(inputs, loop.first[0])} if 0 in loop.first else {}
        kinds = []
    else:
        problems, kinds = check_certify(inputs, loop.first)
    problems = {i: p for i, p in problems.items() if p}
    texts = [loop.first.get(i, "raised") for i in range(input_count(workload, inputs))]
    out = {
        "attempted": len(loop.index) + len(loop.raised),
        "failed": sum(1 for i in loop.index if i in problems) + len(loop.raised) + loop.mismatched,
        "digest": digest(texts),
        "problems": [f"input {i}: {p}" for i, ps in sorted(problems.items()) for p in ps]
        + [f"input {i} raised {msg}" for i, msg in loop.raised[:20]]
        + ([f"{loop.mismatched} outputs differed from the first pass"] if loop.mismatched else []),
    }
    if kinds:
        out["decided"] = sum(1 for _, kind in kinds if kind in exact.IMPLIED_TRUTH)
        table: dict = {}
        for cls, kind in kinds:
            table.setdefault(cls, {}).setdefault(kind, 0)
            table[cls][kind] += 1
        out["kinds_by_class"] = table
        if workload == "verdict-mix":
            out["readme_quickstart_kind"] = kinds[0][1]
    return out


# --- subprocess and CLI timings ------------------------------------------------------


def scaled_wall(speed: SpeedReference, cmd) -> tuple[float, subprocess.CompletedProcess]:
    """Scaled wall seconds of one subprocess, between two speed checkpoints."""
    speed.checkpoint()
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
    elapsed = perf_counter() - start
    speed.checkpoint()
    return elapsed * speed.scale(start), proc


def setup_seconds(speed, workload: str, seed: int, scale: str, runs: int) -> list:
    """Fresh interpreters that import semicert and build the inputs, then exit."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    cmd += ["--scale", scale]
    return [_checked(*scaled_wall(speed, cmd)) for _ in range(runs)]


def import_seconds(speed, runs: int) -> list:
    return [_checked(*scaled_wall(speed, [sys.executable, "-c", "import semicert.cli"])) for _ in range(runs)]


def _checked(seconds: float, proc: subprocess.CompletedProcess) -> float:
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args[1:]} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return seconds


def cli_cases(workload, inputs, scale: str) -> list:
    """(generators, extra CLI arguments, expected kind) for the CLI timings.

    The certify workloads time the first few families of their seed-0 input
    set, the same in every run, so the figure does not move with the mix of
    family sizes that a seed happens to draw.
    """
    size = SCALES[scale]
    if workload == "oracle":
        return [(inputs.cli_maps, ["--max-words", str(inputs.cli_len)], "not_semidiscrete")]
    if workload == "assembly-large":
        families = fam.assembly_large(0, size["cli_cases"], size["assembly_n"])
    else:
        families = fam.verdict_mix(0, 1)[: size["cli_cases"]]
    return [(f.maps, [], criteria_engine.certify(list(f.maps)).kind) for f in families]


def write_generators(path: Path, maps) -> None:
    gens = [{"matrix": [f.a, f.b, f.c, f.d]} for f in maps]
    path.write_text(json.dumps({"schema": 1, "model": "half-plane", "generators": gens}))


def cli_timings(speed, cases, rounds: int, workdir: Path, in_process: bool) -> tuple[list, int, list]:
    """Fastest scaled seconds of `semicert certify` per case over `rounds` runs.

    Runs `python -m semicert.cli certify` as a subprocess, or the same
    command in-process through click's test runner.  Returns the per-case
    seconds, the number of runs, and the problems found in the outputs.
    """
    from click.testing import CliRunner

    runner = CliRunner()
    times: list = [[] for _ in cases]
    problems: list = []
    for k, (maps, _, _) in enumerate(cases):
        write_generators(workdir / f"cli{k}.json", maps)
    for _ in range(rounds):
        for k, (_, extra, kind) in enumerate(cases):
            args = ["certify", "--input", str(workdir / f"cli{k}.json"), *extra]
            if in_process:
                speed.checkpoint()
                start = perf_counter()
                result = runner.invoke(cli.main, args)
                times[k].append((perf_counter() - start) * speed.scale(start))
                code, stdout = result.exit_code, result.stdout.encode()
            else:
                seconds, proc = scaled_wall(speed, [sys.executable, "-m", "semicert.cli", *args])
                times[k].append(seconds)
                code, stdout = proc.returncode, proc.stdout
            problems += _cli_problems(k, code, stdout, kind)
    return [min(t) for t in times], rounds * len(cases), problems


def _cli_problems(k, code, stdout: bytes, kind) -> list:
    if code != (2 if kind == "inconclusive" else 0):
        return [f"cli case {k}: exit code {code}"]
    got = json.loads(stdout)["kind"]
    return [] if got == kind else [f"cli case {k}: kind {got} != {kind}"]


# --- one benchmark run ------------------------------------------------------------------


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One run; returns the result record (metrics, checks, provenance)."""
    size = SCALES[scale]
    inputs = make_inputs(workload, seed, scale)
    speed = SpeedReference()
    if workload != "oracle":
        certify_request(inputs[0])  # warm-up, untimed
    record = {"workload": workload, "seed": seed, "trace": int(trace), "scale": scale}
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if trace:
            _traced(record, workload, inputs, seconds, size, speed, workdir)
        else:
            _untraced(record, workload, inputs, seconds, size, speed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["speed_reference_s"] = {"nominal": NOMINAL_S, "median": statistics.median(speed.seconds)}
    record["provenance"] = provenance(workload, seed, inputs)
    return record


def _add_cli(record, runs, problems) -> None:
    record["problems"] += problems
    record["attempted"] += runs
    record["failed"] += len(problems)


def _untraced(record, workload, inputs, seconds, size, speed, workdir) -> None:
    setup = setup_seconds(speed, workload, record["seed"], record["scale"], size["setup_runs"])
    loop = run_loop(workload, inputs, seconds, True, speed)
    record.update(outcome(workload, inputs, loop))
    cases = cli_cases(workload, inputs, record["scale"])
    cli_s, runs, problems = cli_timings(speed, cases, size["cli_rounds"], workdir, in_process=False)
    _add_cli(record, runs, problems)
    per_input = list(loop.per_input().values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_p50_ms": (1e3 * statistics.median(per_input), "ms"),
        "requests_per_s": (len(per_input) / sum(per_input), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "failed_fraction": (record["failed"] / record["attempted"], "ratio"),
        "cli_p50_s": (statistics.median(cli_s), "s"),
    }
    if workload == "oracle":
        total = {key: sum(p[key] for p in loop.parts) for key in loop.parts[0]}
        rounds = len(loop.parts)
        words = sum(json.loads(loop.first[0])[label]["words_explored"] for label, *_ in inputs.evidence)
        extra["oracle_s"] = (sum(total[k] for k in ("enumerate_words", "find_elliptic", "inverse_free_probe")) / rounds, "s")
        extra["bfs_words_per_s"] = (words * rounds / total["enumerate_words"], "1/s")
        extra["chaos_samples_per_s"] = (inputs.chaos_samples * rounds / total["chaos_game"], "1/s")
    else:
        extra["decided_fraction"] = (record["decided"] / len(inputs), "ratio")
    if workload == "verdict-mix":
        p90 = quantile(per_input, 0.9)
        extra["certify_p90_ms"] = (1e3 * p90, "ms")
        record["p90_inputs_beyond"] = sum(1 for t in per_input if t > p90)
    record["timing"] = {
        "requests": len(loop.times),
        "inputs": len(per_input),
        "raw_p50_ms": 1e3 * statistics.median(loop.times),
        "raw_requests_per_s": len(loop.times) / sum(loop.times),
        "setup_runs_s": setup,
        "cli_case_s": cli_s,
    }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["workload_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}


def _traced(record, workload, inputs, seconds, size, speed, workdir) -> None:
    from tracing import Tracer, layer_metrics

    base = run_loop(workload, inputs, seconds / 3.0, True, speed)
    record.update(outcome(workload, inputs, base))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, inputs, 2.0 * seconds / 3.0, False, speed, tracer=tracer, reference=base.first)
    finally:
        tracer.uninstall()
    record["attempted"] += len(traced.index) + len(traced.raised)
    record["failed"] += len(traced.raised) + traced.mismatched
    if traced.mismatched or traced.raised:
        record["problems"].append(f"traced outputs: {traced.mismatched} differed, {len(traced.raised)} raised")
    cases = cli_cases(workload, inputs, record["scale"])
    invoke_s, runs, problems = cli_timings(speed, cases, size["cli_rounds"], workdir, in_process=True)
    _add_cli(record, runs, problems)
    imports = import_seconds(speed, size["cli_rounds"])

    # Counts are per family, or per evidence set (one per oracle input).
    evidence_sets = len(inputs.evidence) if workload == "oracle" else 1
    metrics = layer_metrics(tracer, units=len(traced.times) * evidence_sets, busy=sum(traced.times))
    words = distinct = 0
    if workload == "oracle":
        first = json.loads(base.first[0])
        words = sum(first[label]["words_explored"] for label, *_ in inputs.evidence)
        distinct = sum(first[label]["distinct_elements"] for label, *_ in inputs.evidence)
    metrics["search_oracle.words_explored"] = (words / evidence_sets, "count")
    metrics["search_oracle.distinct_ratio"] = (distinct / words if words else 0.0, "ratio")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.invoke_s"] = (statistics.median(invoke_s), "s")
    # Tracing overhead on the inputs both loops timed.
    fast, slow = base.per_input(), traced.per_input()
    p50_untraced = statistics.median(fast[i] for i in slow)
    p50_traced = statistics.median(slow.values())
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced - p50_untraced) / p50_untraced, "%")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    record["trace_overhead"] = {
        "untraced_p50_ms": 1e3 * p50_untraced,
        "traced_p50_ms": 1e3 * p50_traced,
        "overhead_ms": 1e3 * (p50_traced - p50_untraced),
        "traced_requests": len(traced.times),
    }
    record["functions"] = tracer.table()
    record["spans_recorded"] = len(tracer.spans)
    record["spans_dropped"] = tracer.dropped_spans
    spans = OUT / f"SPANS_{workload}_seed{record['seed']}.jsonl"
    tracer.write_spans(spans)
    record["spans_file"] = str(spans.relative_to(ROOT))


def provenance(workload: str, seed: int, inputs) -> dict:
    import numpy

    out = {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_pinning": {k: v for k, v in sorted(os.environ.items()) if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
    }
    if workload == "verdict-mix":
        counts: dict = {}
        for family in inputs:
            counts[family.cls] = counts.get(family.cls, 0) + 1
        out["family_counts"] = counts
    elif workload == "assembly-large":
        out["family_counts"] = {"schottky": len(inputs)}
        out["generators_per_family"] = len(inputs[0].maps)
    return out


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"
