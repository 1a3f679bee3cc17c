"""Workload instances: how each committed pool entry becomes input files
and a chain of `drisk` command lines, and how its outputs are checked.

A pool entry (one "variant" in reference.json) names its input, the
command line arguments, and the reference values the gate compares
against.  Inputs are written by the benchmark itself (twin stars,
ladders) or by `drisk gen` at set-up; in `sparse-decide` the `gen` call
is part of the timed instance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import gate

WORKLOADS = ("sparse-decide", "kernel-shrink", "exact-oracles")


@dataclass
class Step:
    """One CLI invocation: exit code (None when it raised), stdout, and
    the exception it raised, if any."""

    rc: Optional[int]
    out: str
    exc: Optional[str] = None


def call(main: Callable, argv: List[str]) -> Step:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback breaks the 0/2/3 exit-code contract
            return Step(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Step(rc, out.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def twin_stars(p: int, bridge: int):
    """Two K_{1,p} stars with centers 0 and p+1 joined by a path of
    `bridge` edges; returns (n, edges, leaves)."""
    edges = [(0, i) for i in range(1, p + 1)]
    c2 = p + 1
    edges += [(c2, i) for i in range(p + 2, 2 * p + 2)]
    prev, nxt = 0, 2 * p + 2
    for _ in range(bridge - 1):
        edges.append((prev, nxt))
        prev, nxt = nxt, nxt + 1
    edges.append((prev, c2))
    leaves = list(range(1, p + 1)) + list(range(p + 2, 2 * p + 2))
    return nxt, edges, leaves


def ladder(k: int, relabel: int):
    """The 2 x k ladder with vertex ids shuffled by a seeded permutation."""
    n = 2 * k
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    perm = list(range(n))
    random.Random(relabel).shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def build_input(main: Callable, spec: dict, path: str) -> Optional[str]:
    """Write the input file named by spec; returns the member-set file
    when the spec fixes one."""
    if "twins" in spec:
        n, edges, leaves = twin_stars(*spec["twins"])
        gate.write_edge_list(path, n, edges)
        a_file = path + ".a"
        with open(a_file, "w") as fh:
            fh.write("".join(f"{v}\n" for v in leaves))
        return a_file
    if "ladder" in spec:
        n, edges = ladder(*spec["ladder"])
        gate.write_edge_list(path, n, edges)
        return None
    if "subdivide" in spec:
        base = path + ".base"
        _gen(main, spec["gen"], base)
        _gen(main, ["subdivision", "--input", base, "--r", str(spec["subdivide"])], path)
    else:
        _gen(main, spec["gen"], path)
    return None


def _gen(main: Callable, args: List[str], path: str) -> None:
    step = call(main, ["gen", *args, "--out", path])
    if step.rc != 0:
        raise RuntimeError(f"gen {args} failed at set-up: {step.exc or step.rc}")


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    """One timed unit: a fixed chain of CLI invocations on one pool entry."""

    workload: str
    variant: dict
    path: str
    a_file: Optional[str]
    steps: List[List[str]]
    k: Optional[int] = None

    @property
    def id(self) -> str:
        return f"{self.workload}/{self.variant['id']}"


def make_instance(main: Callable, workload: str, variant: dict, workdir: str) -> Instance:
    """Write the variant's inputs (except what a timed `gen` writes) and
    lay out its command chain."""
    path = os.path.join(workdir, variant["id"] + ".txt")
    if workload == "sparse-decide":
        r, k = variant["r"], variant["k"]
        steps = [["gen", *variant["gen"], "--out", path],
                 ["kernel", "--input", path, "--r", str(r), "--k", str(k)]]
        return Instance(workload, variant, path, None, steps, k)
    a_file = build_input(main, variant["input"], path)
    members = ["--a-file", a_file] if a_file else []
    if workload == "kernel-shrink":
        r = variant["r"]
        k = variant["k"]
        if k is None:
            adj = gate.read_adjacency(path)
            k = len(gate.greedy_scattered(adj, range(len(adj)), r)) + 1
        prefix = path[:-4]
        steps = [["kernel", "--input", path, *members, "--r", str(r), "--k", str(k),
                  "--out-prefix", prefix],
                 ["verify-cert", "--input", path, *members, "--log", prefix + ".log.json"]]
        return Instance(workload, variant, path, a_file, steps, k)
    if workload == "exact-oracles":
        problem, *rest = variant["solve"]
        steps = [["solve", problem, "--input", path, *rest]]
        return Instance(workload, variant, path, a_file, steps)
    raise ValueError(f"unknown workload {workload!r}")


def _members(inst: Instance, n: int) -> List[int]:
    if inst.a_file is None:
        return list(range(n))
    with open(inst.a_file) as fh:
        return [int(line) for line in fh if line.strip()]


def _arg(argv: List[str], flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def check(inst: Instance, steps: List[Step]) -> Optional[str]:
    """Reason the instance's outputs are wrong, or None."""
    for argv, step in zip(inst.steps, steps):
        if step.exc is not None:
            return f"{argv[0]} raised {step.exc}"
        if step.rc != 0:
            return f"{argv[0]} exited {step.rc}"
    if len(steps) != len(inst.steps):
        return "chain stopped early"
    reports = [json.loads(s.out) for s in steps]
    v = inst.variant
    if inst.workload == "sparse-decide":
        got = gate.sha256_file(inst.path)
        if got != v["sha256"] or reports[0]["outputs"]["out_digest"] != v["sha256"]:
            return "gen output differs from its committed SHA-256"
    elif gate.graph_digest(inst.path) != v["sha256"]:
        return "input graph differs from its committed SHA-256"
    adj = gate.read_adjacency(inst.path)
    if inst.workload == "exact-oracles":
        argv = inst.steps[0]
        return gate.check_solve(argv[1], reports[0]["outputs"], adj, _arg(argv, "--r", 1), v["expect"])
    kern = reports[1] if inst.workload == "sparse-decide" else reports[0]
    out = kern["outputs"]
    members = _members(inst, len(adj))
    reason = gate.check_kernel(out, adj, members, v["r"], inst.k, v.get("alpha_below_k", False))
    if reason or inst.workload == "sparse-decide":
        return reason
    replay = reports[1]["outputs"]
    reason = gate.check_replay(replay)
    if reason is None and out["tag"] == "KERNEL" and replay["final_members"] != out["b"]:
        reason = "replayed log does not end at the kernel members"
    return reason


def kernel_residual(inst: Instance, steps: List[Step]) -> Optional[float]:
    """|Y|/k of the instance's kernel step (0 for YES or NO), or None
    when the instance runs no kernel."""
    for argv, step in zip(inst.steps, steps):
        if argv[0] == "kernel" and step.rc == 0:
            out = json.loads(step.out)["outputs"]
            return len(out["y"]) / inst.k if out["tag"] == "KERNEL" else 0.0
    return None


def pick(reference: dict, workload: str, seed: int) -> List[dict]:
    """One variant per stratum, chosen and ordered by the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(stratum["variants"]) for stratum in reference[workload]]
    rng.shuffle(chosen)
    return chosen


# Warm-up inputs: small instances of every command the workload runs,
# none of them in any timed list.
WARMUP = {
    "sparse-decide": [
        {"id": "warm-bucket", "gen": ["bucket", "--n", "200", "--d", "3", "--seed", "1"], "r": 2, "k": 5},
        {"id": "warm-grid", "gen": ["grid", "--rows", "12", "--cols", "12"], "r": 2, "k": 5},
    ],
    "kernel-shrink": [
        {"id": "warm-twins", "input": {"twins": [6, 9]}, "r": 2, "k": 3},
        {"id": "warm-grid", "input": {"gen": ["grid", "--rows", "6", "--cols", "7"]}, "r": 2, "k": None},
    ],
    "exact-oracles": [
        {"id": f"warm-{p}", "input": {"gen": ["grid", "--rows", "3", "--cols", "4"]}, "solve": [p, *extra]}
        for p, extra in (("lp", ["--r", "1"]), ("alpha", ["--r", "2"]), ("gamma", ["--r", "1"]),
                         ("vc2", ["--r", "2"]), ("minor", ["--t", "4"]))
    ],
}
