"""Compare two results files written with --results.

For each workload and each metric: both medians and quartiles over the
runs in each file, the ratio change/base with its base, and whether the
change is worse than the base by more than the metric's bound from
BENCHMARK.json. Metrics without a bound (per-layer, ungated) show the
ratio only.
"""

import json
import statistics


def load(path):
    """{(workload, trace): {metric: ([values], unit)}} from a JSON-lines file."""
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            table = runs.setdefault(key, {})
            figures = dict(record["metrics"])
            figures.update(record.get("ungated", {}))
            for name, metric in figures.items():
                values, _ = table.setdefault(name, ([], metric["unit"]))
                values.append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path, change_path, benchmark_path):
    with open(benchmark_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
              if m["better"] == "higher"}
    base, change = load(base_path), load(change_path)
    verdict = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(next(iter(base[key].values()))[0])} "
              f"base runs, {len(next(iter(change[key].values()))[0])} change runs")
        print(f"  {'metric':<30} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'ratio':>8}  verdict")
        for name in sorted(set(base[key]) & set(change[key])):
            (b_values, unit), (c_values, _) = base[key][name], change[key][name]
            b1, b2, b3 = quartiles(b_values)
            c1, c2, c3 = quartiles(c_values)
            ratio = c2 / b2 if b2 else float("nan")
            text = "no bound"
            if name in gated and b2:
                bound = gated[name]["bound"]
                worse = (b2 - c2) / b2 if name in higher else (c2 - b2) / b2
                if worse > bound:
                    text = f"WORSE by {worse:.1%} > bound {bound:.1%}"
                    verdict = 1
                else:
                    text = f"within bound {bound:.1%}"
            print(f"  {name:<30} {b2:>14.6g} [{b1:.6g}, {b3:.6g}] "
                  f"{c2:>14.6g} [{c1:.6g}, {c3:.6g}] {ratio:>8.4f}  {text} "
                  f"(base {b2:.6g} {unit})")
    return verdict
