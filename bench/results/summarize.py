"""Summarizes result sets written by collect.sh as Markdown tables.

    python3 bench/results/summarize.py SET.jsonl [SECOND_SET.jsonl]

For each workload and metric it prints the median, the quartiles and the
interquartile range as a share of the median, computed as
statistics.quantiles(values, n=4) gives them. End-to-end metrics are
checked against their bound in BENCHMARK.json: the spread must stay
within the bound (setup_s excepted), and, given a second set, the second
median may not be worse than the first by more than the bound. Given a
second set of the same seeds, every simulated (sim) metric must also be
identical between the sets. Run it from the repository root.
"""

import collections
import json
import statistics
import sys


def load(path):
    by = collections.defaultdict(lambda: collections.defaultdict(list))
    for line in open(path):
        row = json.loads(line)
        res = row["result"]
        if not res["correct"] or res["failed"]:
            sys.exit(f"{path}: {row['workload']} seed {row['seed']} failed")
        for name, m in res["metrics"].items():
            by[row["workload"]][name].append(m["value"])
    return by


def main():
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in sys.argv[1:]]
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in sets[0]:
            continue
        first = sets[0][w]
        print(f"\n### {w} (n={len(next(iter(first.values())))})\n")
        head = "| metric | median | q1 | q3 | IQR/median | bound | verdict |"
        if len(sets) > 1:
            head += " second median | shift |"
        print(head)
        print("|" + "---|" * (head.count("|") - 1))
        for name in sorted(first):
            vs = first[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            verdict = ""
            if b:
                verdict = "ok" if name == "setup_s" or spread <= b["bound"] else "SPREAD"
                if name != "setup_s" and spread > b["bound"] / 3:
                    verdict += " (>1/3 bound)"
            row = f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread * 100:.2f}% | {b['bound'] if b else '-'} | {verdict} |"
            if len(sets) > 1 and w in sets[1]:
                vs2 = sets[1][w][name]
                med2 = statistics.median(vs2)
                shift = (med2 - med) / med if med else 0.0
                worse = shift if not b or b["better"] == "lower" else -shift
                flag = " WORSE" if b and worse > b["bound"] else ""
                if name.startswith("sim"):
                    flag += " identical" if vs2 == vs else " DIFFERENT"
                row += f" {med2:.6g} | {shift * 100:+.2f}%{flag} |"
                ok = ok and "WORSE" not in flag and "DIFFERENT" not in flag
            ok = ok and "SPREAD" not in verdict
            print(row)
    if not ok:
        sys.exit("some metric is outside its bound")


if __name__ == "__main__":
    main()
