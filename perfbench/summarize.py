"""Fold benchmark result files into one BENCH file and print its tables.

    python3 perfbench/summarize.py OUT.json RESULT.json...

Each RESULT.json is a file that run.py wrote under .perfbench/results/.  For
every workload OUT.json keeps the median of each end-to-end metric over its
untraced runs, the per-layer metrics and self-time shares of its traced
runs (median over runs), the seeds, the machine and the provenance.  The
same numbers are printed as Markdown tables.
"""
from __future__ import annotations

import json
import statistics
import sys


def fold(results: list[dict]) -> dict:
    out: dict = {"machine": results[0]["machine"], "provenance": results[0]["provenance"],
                 "workloads": {}}
    for r in results:
        w = out["workloads"].setdefault(r["workload"], {
            "sizes": r["sizes"], "seeds": {"untraced": [], "traced": []},
            "end_to_end": {}, "per_layer": {}, "layer_self_share": {}, "correct": True})
        w["correct"] = w["correct"] and r["correct"]
        w["seeds"]["traced" if r["trace"] else "untraced"].append(r["seed"])
        if r["trace"]:
            groups = (("per_layer", r["per_layer"]), ("layer_self_share", {
                k: {"value": v, "unit": "fraction"} for k, v in r["layer_self_share"].items()}))
        else:
            groups = (("end_to_end", r["end_to_end"]),)
        for group, metrics in groups:
            for name, m in metrics.items():
                w[group].setdefault(name, {"values": [], "unit": m["unit"]})["values"].append(
                    m["value"])
    for w in out["workloads"].values():
        for group in ("end_to_end", "per_layer", "layer_self_share"):
            for m in w[group].values():
                m["median"] = statistics.median(m["values"])
    return out


def tables(bench: dict) -> str:
    lines = []
    for name, w in bench["workloads"].items():
        lines += [f"### {name}", "", "| metric | median | unit | runs |", "|---|---|---|---|"]
        for group in ("end_to_end", "per_layer", "layer_self_share"):
            for metric, m in w[group].items():
                if m["median"]:
                    lines.append(f"| {metric} | {m['median']:.4g} | {m['unit']} | "
                                 f"{len(m['values'])} |")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    results = []
    for path in argv[1:]:
        with open(path) as fh:
            results.append(json.load(fh))
    bench = fold(results)
    with open(argv[0], "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(tables(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
