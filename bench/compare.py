"""Compare benchmark records of a base and a head commit.

    python3 bench/compare.py BASE.json [BASE.json ...] -- HEAD.json [HEAD.json ...]

Records are the files that bench/run.py writes to bench/out/ (copy them
away before switching commits).  For each workload the script compares
the median of every untraced metric over the given files.  It fails (exit
code 1) when a head median is worse than the base median by more than the
metric's bound, or when the certificate digest of any (workload, seed)
pair differs between the two sides: a faster run that emits a different
certificate is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Workload-specific metrics: (better, bound as a share of the base median).
# A bound of 0 means any change for the worse fails.
WORKLOAD_METRICS = {
    "certify_p90_ms": ("lower", 0.25),
    "cli_p50_s": ("lower", 0.25),
    "oracle_s": ("lower", 0.25),
    "bfs_words_per_s": ("higher", 0.25),
    "chaos_samples_per_s": ("higher", 0.25),
    "decided_fraction": ("higher", 0.0),
    "failed_fraction": ("lower", 0.0),
}


def load(paths) -> list[dict]:
    records = [json.loads(Path(p).read_text()) for p in paths]
    return [r for r in records if r["trace"] == 0]


def bounds() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update(WORKLOAD_METRICS)
    return out


def values(records, workload: str) -> dict:
    out: dict = {}
    for r in records:
        if r["workload"] == workload:
            for name, m in {**r["metrics"], **r.get("workload_metrics", {})}.items():
                out.setdefault(name, []).append(m["value"])
    return out


def compare(base: list[dict], head: list[dict]) -> list[str]:
    """Human-readable lines; lines starting with FAIL are regressions."""
    lines, limits = [], bounds()
    digests: dict = {}
    for side, records in (("base", base), ("head", head)):
        for r in records:
            digests.setdefault((r["workload"], r["seed"]), {}).setdefault(side, set()).add(r["digest"])
    for (workload, seed), sides in sorted(digests.items()):
        seen = sides.get("base", set()) | sides.get("head", set())
        if len(seen) > 1:
            lines.append(f"FAIL {workload} seed {seed}: certificate digests differ {sorted(d[:12] for d in seen)}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in head}):
        b, h = values(base, workload), values(head, workload)
        for name in sorted(b.keys() & h.keys()):
            better, bound = limits.get(name, ("lower", 0.25))
            mb, mh = statistics.median(b[name]), statistics.median(h[name])
            worse = (mh - mb) if better == "lower" else (mb - mh)
            share = worse / abs(mb) if mb else (1.0 if worse > 0 else 0.0)
            verdict = "FAIL" if share > bound else "ok  "
            lines.append(f"{verdict} {workload:15s} {name:20s} base {mb:.6g}  head {mh:.6g}  worse by {100 * share:+.1f}% (bound {100 * bound:.0f}%)")
    return lines


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, head = load(argv[:cut]), load(argv[cut + 1 :])
    if not base or not head:
        print("error: need untraced records on both sides", file=sys.stderr)
        return 2
    lines = compare(base, head)
    print("\n".join(lines))
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
