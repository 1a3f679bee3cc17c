"""Regenerate perfbench/reference.json, the committed instance pool.

    python3 perfbench/make_reference.py

Each stratum lists interchangeable variants of about the same cost; a
run picks one variant per stratum from its seed.  For every variant
this script records the SHA-256 of its input graph without comment
lines (for `sparse-decide`, of the whole file `drisk gen` writes) and the answers the gate compares against,
after checking those answers with the gate's own BFS.  Two kinds of
variant are left out of the pool and listed under "excluded" with the
reason: one slower than COST_CAP_S here, so no instance runs longer
than a few seconds, and a `sparse-decide` one whose kernel does not
answer YES, since that workload is the decide-by-dual-witness path
(the removal pipeline is measured by `kernel-shrink`).

Run it only when the pool itself changes: the reference values pin the
answers of the commit that produced them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from drisk import cli  # noqa: E402

COST_CAP_S = 5.0


def _grid_shapes(side: int, spread: int):
    shapes = [(side, side)]
    for j in range(1, spread + 1):
        shapes += [(side - j, side + j), (side + j, side - j)]
    return shapes


def _grid(rows: int, cols: int):
    return ["grid", "--rows", str(rows), "--cols", str(cols)]


def _bucket(n: int, d: int, seed: int):
    return ["bucket", "--n", str(n), "--d", str(d), "--seed", str(seed)]


def _gnm(n: int, m: int, seed: int):
    return ["gnm", "--n", str(n), "--m", str(m), "--seed", str(seed)]


def strata():
    """workload -> [(stratum id, [variant, ...])]

    Each list holds over 100 strata so that the 90th percentile has at
    least ten instances above it; sizes are skewed small so that a pass
    fits the run length more than once."""
    sparse = []

    def bucket_stratum(n, d, rep=0, reps=6):
        seeds = range(rep * reps + 1, rep * reps + reps + 1)
        sparse.append((f"bucket-n{n}-d{d}-{rep}", [
            {"id": f"bucket-n{n}-d{d}-s{s}", "gen": _bucket(n, d, s), "r": 2, "k": 5}
            for s in seeds]))

    for n in range(500, 570, 10):
        for d, reps in ((3, 7), (4, 4), (5, 2)):
            for rep in range(reps):
                bucket_stratum(n, d, rep)
    for n in (570, 580):
        bucket_stratum(n, 3)
    for n in (500, 560):
        bucket_stratum(n, 6)
    for n, d in ((850, 3), (850, 6), (1100, 4), (1300, 5), (1500, 3), (1800, 4), (2000, 3)):
        bucket_stratum(n, d)
    for side in (30, 36, 40):
        sparse.append((f"grid-{side}", [
            {"id": f"grid-{a}x{b}", "gen": _grid(a, b), "r": 2, "k": 5}
            for a, b in _grid_shapes(side, 2)]))

    shrink = []
    for p0 in (16, 24, 32, 48, 64):
        ps = (16, 17, 18) if p0 == 16 else (p0 - 2, p0 - 1, p0)
        shrink.append((f"twins-p{p0}", [
            {"id": f"twins-p{p}", "input": {"twins": [p, 9]}, "r": 2, "k": 3,
             "alpha_below_k": True}
            for p in ps]))
    grid_sides = [(side, rep) for side in range(10, 15) for rep in range(3)] + [(16, 0)]
    for side, rep in grid_sides:
        shapes = _grid_shapes(side, 3)[:3] if rep == 0 else _grid_shapes(side, 3)[1 + 2 * rep:3 + 2 * rep]
        shrink.append((f"sweep-grid-{side}-{rep}", [
            {"id": f"sweep-grid-{a}x{b}", "input": {"gen": _grid(a, b)}, "r": 2, "k": None}
            for a, b in shapes]))
    bucket_sizes = [(n, rep) for n in range(100, 140, 10) for rep in range(21)] + [(200, 0)]
    for n, rep in bucket_sizes:
        shrink.append((f"sweep-bucket-n{n}-{rep}", [
            {"id": f"sweep-bucket-n{n}-s{s}", "input": {"gen": _bucket(n, 3, s)}, "r": 2, "k": None}
            for s in range(rep * 4 + 1, rep * 4 + 5)]))

    exact = []

    def add(sid, specs, solve):
        exact.append((sid, [
            {"id": f"{sid}-{vid}", "input": spec, "solve": solve} for vid, spec in specs]))

    def seeded(make, reps=4, rep=0):
        return [(f"s{s}", make(s)) for s in range(rep * reps + 1, rep * reps + reps + 1)]

    lim = ["--limit", "80"]
    # the heavier searches and LPs
    for n in (12, 16, 20):
        add(f"lp-gnm{n}-r1", seeded(lambda s: {"gen": _gnm(n, n * 3 // 2, s)}), ["lp", "--r", "1"])
    for n in (16, 20):
        add(f"lp-bucket{n}-r2", seeded(lambda s: {"gen": _bucket(n, 3, s)}), ["lp", "--r", "2"])
    for rows, cols in ((3, 4), (4, 5)):
        add(f"lp-grid{rows}x{cols}-r1", [(f"{a}x{b}", {"gen": _grid(a, b)}) for a, b in ((rows, cols), (cols, rows))],
            ["lp", "--r", "1"])
    add("lp-sub2gnm8-r2", seeded(lambda s: {"gen": _gnm(8, 10, s), "subdivide": 2}), ["lp", "--r", "2"])
    for rows, cols in ((7, 8), (8, 8)):
        add(f"alpha-grid{rows}x{cols}-r2", [(f"{a}x{b}", {"gen": _grid(a, b)}) for a, b in ((rows, cols), (cols, rows))],
            ["alpha", "--r", "2", *lim])
    add("alpha-sub3gnm12-r2", seeded(lambda s: {"gen": _gnm(12, 18, s), "subdivide": 3}), ["alpha", "--r", "2", *lim])
    add("alpha-bucket64-r2", seeded(lambda s: {"gen": _bucket(64, 3, s)}), ["alpha", "--r", "2", *lim])
    add("alpha-gnm60-r1", seeded(lambda s: {"gen": _gnm(60, 90, s)}), ["alpha", "--r", "1", *lim])
    add("gamma-grid7x8-r1", [("7x8", {"gen": _grid(7, 8)}), ("8x7", {"gen": _grid(8, 7)})], ["gamma", "--r", "1", *lim])
    add("gamma-grid8x8-r2", [("8x8", {"gen": _grid(8, 8)})], ["gamma", "--r", "2", *lim])
    add("gamma-bucket40-r1", seeded(lambda s: {"gen": _bucket(40, 3, s)}), ["gamma", "--r", "1", *lim])
    add("gamma-bucket64-r2", seeded(lambda s: {"gen": _bucket(64, 3, s)}), ["gamma", "--r", "2", *lim])
    add("gamma-sub2gnm16-r1", seeded(lambda s: {"gen": _gnm(16, 24, s), "subdivide": 2}), ["gamma", "--r", "1", *lim])
    for n in (48, 56, 64):
        add(f"vc2-bucket{n}-r2", seeded(lambda s: {"gen": _bucket(n, 3, s)}), ["vc2", "--r", "2", *lim])
    add("vc2-grid6x8-r2", [("6x8", {"gen": _grid(6, 8)}), ("8x6", {"gen": _grid(8, 6)})], ["vc2", "--r", "2", *lim])
    add("vc2-grid8x8-r2", [("8x8", {"gen": _grid(8, 8)})], ["vc2", "--r", "2", *lim])
    add("vc2-gnm40-r2", seeded(lambda s: {"gen": _gnm(40, 60, s)}), ["vc2", "--r", "2", *lim])
    for k, r in ((6, 1), (6, 2), (7, 1), (7, 2), (8, 1)):
        add(f"minor-ladder2x{k}-r{r}", [(f"p{s}", {"ladder": [k, s]}) for s in range(1, 5)],
            ["minor", "--t", "4", "--r", str(r)])
    add("minor-grid4x4-r1", [("4x4", {"gen": _grid(4, 4)})], ["minor", "--t", "4", "--r", "1"])
    # many short instances, where the command-line glue weighs most
    for rep in range(5):
        for n in (8, 10, 12):
            add(f"lp-gnm{n}-r1-{rep}", seeded(lambda s: {"gen": _gnm(n, n * 3 // 2, s)}, rep=rep + 1),
                ["lp", "--r", "1"])
        for n in (30, 40, 50):
            add(f"alpha-gnm{n}-r2-{rep}", seeded(lambda s: {"gen": _gnm(n, n * 3 // 2, s)}, rep=rep),
                ["alpha", "--r", "2", *lim])
        for n in (20, 28, 36):
            add(f"gamma-bucket{n}-r1-{rep}", seeded(lambda s: {"gen": _bucket(n, 3, s)}, rep=rep),
                ["gamma", "--r", "1", *lim])
        for n in (20, 30, 40):
            add(f"vc2-gnm{n}-r1-{rep}", seeded(lambda s: {"gen": _gnm(n, n * 3 // 2, s)}, rep=rep + 1),
                ["vc2", "--r", "1", *lim])
        for k in (5, 6):
            add(f"minor-ladder2x{k}-r1-{rep}", [(f"p{s}", {"ladder": [k, s]}) for s in range(4 * rep + 5, 4 * rep + 9)],
                ["minor", "--t", "4", "--r", "1"])
    for rows, cols in ((5, 5), (5, 6), (6, 6), (6, 7), (7, 7)):
        add(f"gamma-grid{rows}x{cols}-r2", [(f"{a}x{b}", {"gen": _grid(a, b)}) for a, b in {(rows, cols), (cols, rows)}],
            ["gamma", "--r", "2", *lim])
        add(f"alpha-grid{rows}x{cols}-r1", [(f"{a}x{b}", {"gen": _grid(a, b)}) for a, b in {(rows, cols), (cols, rows)}],
            ["alpha", "--r", "1", *lim])
    return {"sparse-decide": sparse, "kernel-shrink": shrink, "exact-oracles": exact}


def _expect(solve_out: dict, problem: str) -> dict:
    if problem in ("alpha", "gamma"):
        return {"value": solve_out["value"]}
    if problem == "lp":
        return {"value": solve_out["cover_optimum"]}
    if problem == "vc2":
        return {"value": solve_out["dimension"]}
    return {"found": solve_out["found"]}


def evaluate(workload: str, variant: dict, workdir: str) -> dict:
    """Fill in sha256 and reference answers, time the chain, and gate it."""
    inst = workloads.make_instance(cli.main, workload, variant, workdir)
    if workload != "sparse-decide":
        variant["sha256"] = gate.graph_digest(inst.path)
    started = time.perf_counter()
    steps = [workloads.call(cli.main, argv) for argv in inst.steps]
    variant["cost_s"] = round(time.perf_counter() - started, 4)
    if any(s.rc != 0 for s in steps):
        raise SystemExit(f"{inst.id}: {[(s.rc, s.exc) for s in steps]}")
    if workload == "sparse-decide":
        variant["sha256"] = gate.sha256_file(inst.path)
    if workload == "sparse-decide":
        variant["tag"] = json.loads(steps[1].out)["outputs"]["tag"]
    if workload == "exact-oracles":
        variant["expect"] = _expect(json.loads(steps[0].out)["outputs"], variant["solve"][0])
    reason = workloads.check(inst, steps)
    if reason:
        raise SystemExit(f"{inst.id}: reference fails the gate: {reason}")
    return variant


def _one_item_per_line(doc: dict) -> str:
    """JSON with one excluded entry or stratum per line, which keeps the
    file small and its diffs readable."""
    def items(seq, indent):
        return ",\n".join(indent + json.dumps(x, sort_keys=True) for x in seq)

    head = "".join(f" {json.dumps(k)}: {json.dumps(doc[k])},\n" for k in ("cost_cap_s", "note"))
    pools = ",\n".join(f"  {json.dumps(w)}: [\n{items(strata, '   ')}\n  ]"
                       for w, strata in sorted(doc["workloads"].items()))
    return (f"{{\n{head} \"excluded\": [\n{items(doc['excluded'], '  ')}\n ],\n"
            f" \"workloads\": {{\n{pools}\n }}\n}}\n")


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    pool: dict = {}
    excluded = []
    try:
        for workload, items in strata().items():
            pool[workload] = []
            for sid, variants in items:
                kept = []
                for variant in variants:
                    evaluate(workload, variant, workdir)
                    reason = None
                    if variant["cost_s"] > COST_CAP_S:
                        reason = f"slower than {COST_CAP_S} s"
                    elif variant.pop("tag", "YES") != "YES":
                        reason = "kernel does not answer YES"
                    if reason:
                        excluded.append({"workload": workload, "id": variant["id"],
                                         "cost_s": variant["cost_s"], "reason": reason})
                    else:
                        kept.append(variant)
                    print(workload, variant["id"], variant["cost_s"], flush=True)
                if kept:
                    pool[workload].append({"stratum": sid, "variants": kept})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "note": "Generated by perfbench/make_reference.py; cost_s is one run of the chain "
                "when the pool was made and only informs stratum sizing.",
        "cost_cap_s": COST_CAP_S,
        "excluded": excluded,
        "workloads": pool,
    }
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"), "w") as fh:
        fh.write(_one_item_per_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
