"""The benchmark's own correctness gate.

Every check here re-derives its answer with plain breadth-first search
on an adjacency list this file parses itself, so a defect shared by
drisk's graph code and its verifiers cannot pass unnoticed.  Each check
returns None when the output is correct and a short reason otherwise.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def graph_digest(path: str) -> str:
    """SHA-256 of an edge-list file without its comment lines, which may
    name the directory the file was written from."""
    with open(path) as fh:
        body = "".join(line for line in fh if not line.startswith("c"))
    return hashlib.sha256(body.encode()).hexdigest()


def read_adjacency(path: str) -> List[List[int]]:
    """Adjacency lists of an edge-list file (`p n m` header, `e u v` lines)."""
    adj: List[List[int]] = []
    with open(path) as fh:
        for raw in fh:
            parts = raw.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                adj = [[] for _ in range(int(parts[1]))]
            elif parts[0] == "e":
                u, v = int(parts[1]), int(parts[2])
                adj[u].append(v)
                adj[v].append(u)
    return adj


def write_edge_list(path: str, n: int, edges: Iterable[Sequence[int]]) -> None:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    lines = [f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def bfs(adj: List[List[int]], sources: Iterable[int], cutoff: Optional[int] = None,
        allowed: Optional[set] = None) -> Dict[int, int]:
    """Distances to the nearest source, stopping at cutoff; when allowed
    is given the search never leaves it."""
    dist = {s: 0 for s in sources}
    frontier = list(dist)
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist and (allowed is None or w in allowed):
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def is_independent(adj: List[List[int]], members: Iterable[int], r: int) -> bool:
    """True iff the members are pairwise more than r apart."""
    mem = set(members)
    for u in mem:
        near = bfs(adj, [u], r)
        if any(w in mem for w in near if w != u):
            return False
    return True


def dominates(adj: List[List[int]], dom: Iterable[int], members: Iterable[int], r: int) -> bool:
    reach = bfs(adj, dom, r)
    return all(v in reach for v in members)


def greedy_scattered(adj: List[List[int]], members: Sequence[int], r: int) -> List[int]:
    """Ascending-id greedy set of members pairwise more than r apart."""
    alive = set(members)
    picked = []
    for v in sorted(members):
        if v in alive:
            picked.append(v)
            alive -= set(bfs(adj, [v], r))
    return picked


def has_scattered_subset(adj: List[List[int]], members: Sequence[int], r: int, k: int,
                         allowed: Optional[set] = None) -> bool:
    """Exhaustive search: do k members lie pairwise more than r apart?"""
    mem = list(members)
    near = {u: set(bfs(adj, [u], r, allowed)) for u in mem}
    return any(
        all(b not in near[a] for a, b in combinations(group, 2))
        for group in combinations(mem, k)
    )


# ---------------------------------------------------------------------------
# per-report checks


def check_kernel(out: dict, adj: List[List[int]], members: Sequence[int], r: int, k: int,
                 alpha_below_k: bool) -> Optional[str]:
    """YES needs a valid witness; NO needs the benchmark's own greedy to
    find fewer than k scattered members; KERNEL needs b inside y, and when the instance is
    known to have no k scattered members, a small b must not have them
    either inside G[y]."""
    tag = out["tag"]
    mem = set(members)
    if tag == "YES":
        wit = out["witness"] or []
        if len(wit) < k or not set(wit) <= mem:
            return "YES witness too small or outside A"
        if not is_independent(adj, wit, r):
            return "YES witness not r-independent"
        return None
    if tag == "NO":
        if len(greedy_scattered(adj, members, r)) >= k:
            return "NO answer but k scattered members exist"
        return None
    if tag != "KERNEL":
        return f"unknown kernel tag {tag!r}"
    y, b = set(out["y"]), out["b"]
    if not set(b) <= y or not set(b) <= mem:
        return "kernel members not inside Y and A"
    if alpha_below_k and len(b) <= 16 and has_scattered_subset(adj, b, r, k, allowed=y):
        return "kernel has k scattered members but the instance does not"
    return None


def check_replay(out: dict) -> Optional[str]:
    if out.get("valid") is not True or out.get("failures"):
        return "verify-cert replay not valid"
    return None


def check_solve(problem: str, out: dict, adj: List[List[int]], r: int,
                expect: dict) -> Optional[str]:
    """Compare a solve report with the committed reference and re-check
    its witness."""
    n = len(adj)
    allv = range(n)
    if problem == "alpha":
        wit = out["witness"]
        if out["value"] != expect["value"] or len(wit) != out["value"]:
            return f"alpha {out['value']} != reference {expect['value']}"
        if not is_independent(adj, wit, r):
            return "alpha witness not r-independent"
    elif problem == "gamma":
        wit = out["witness"]
        if out["value"] != expect["value"] or len(wit) != out["value"]:
            return f"gamma {out['value']} != reference {expect['value']}"
        if not dominates(adj, wit, allv, r):
            return "gamma witness does not dominate"
    elif problem == "lp":
        if out["cover_optimum"] != expect["value"] or out["packing_optimum"] != expect["value"]:
            return f"lp {out['cover_optimum']}/{out['packing_optimum']} != reference {expect['value']}"
    elif problem == "vc2":
        if out["dimension"] != expect["value"]:
            return f"vc2 {out['dimension']} != reference {expect['value']}"
        return _check_pair_witness(adj, r, out["witness"], out["dimension"])
    elif problem == "minor":
        if out["found"] != expect["found"]:
            return f"minor found={out['found']} != reference {expect['found']}"
        if out["found"]:
            return _check_minor(adj, out["branch_sets"], r)
    else:
        return f"unknown problem {problem!r}"
    return None


def _check_pair_witness(adj, r, witness, dim) -> Optional[str]:
    if witness is None:
        return None if dim == 0 else "vc2 witness missing"
    mem = witness["members"]
    if len(mem) != dim:
        return "vc2 witness size differs from dimension"
    by_pair = {(a, b): v for a, b, v in witness["pair_witnesses"]}
    mset = set(mem)
    for a, b in combinations(sorted(mem), 2):
        v = by_pair.get((a, b))
        if v is None or set(bfs(adj, [v], r)) & mset != {a, b}:
            return f"vc2 pair ({a},{b}) not realized by its ball"
    return None


def _check_minor(adj, branch_sets, r) -> Optional[str]:
    seen: set = set()
    for bs in branch_sets:
        s = set(bs)
        if not s or s & seen:
            return "minor branch sets empty or overlapping"
        seen |= s
        if not any(len(bfs(adj, [c], r, s)) == len(s) for c in s):
            return "minor branch set not connected within radius"
    for x, y in combinations(branch_sets, 2):
        ys = set(y)
        if not any(w in ys for v in x for w in adj[v]):
            return "minor branch sets not adjacent"
    return None
