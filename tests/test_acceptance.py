"""Acceptance suite: ten numbered criteria, one test per criterion.

Each test registers a FAIL verdict up front and flips it to PASS as its
last statement, so a crash anywhere inside leaves an honest FAIL in the
per-criterion block that conftest prints after the run.  Tolerances are
zero unless stated: every comparison is exact integer or exact rational.
"""

import math
import time
from fractions import Fraction

from conftest import record_criterion, record_note
import corpus

from drisk import (
    AnnotatedInstance,
    bucket_model,
    distances_from,
    girth,
    grid_graph,
    hardness_reduction,
    induced_subgraph,
    is_distance_dominating,
    is_distance_independent,
    pendant_construction,
)
from drisk.ballvc import balls_system, extract_minor_model, two_vc_dimension
from drisk.kernel import kernelize, verify_certificate
from drisk.oracle import (
    domination_number,
    find_clique_minor,
    independence_number,
    lp_domination,
    lp_packing,
    validate_minor_model,
)
from drisk.wcol import (
    dual_witness,
    greedy_ball_cover,
    harmonic,
    order_heuristic,
    wcol_given_order,
)

KERNEL_RADII = (1, 2, 3)
KERNEL_BUDGETS = (2, 3, 4, 5)


def test_criterion_01_lp_duality_chain():
    """On >= 100 instances (paths, cycles, grids, subdivided random graphs,
    n <= 24; r in {1,2}): the two fractional optima agree exactly and sit
    between the integer packing and covering numbers; total under 5 min."""
    record_criterion(1, "lp duality chain", "FAIL")
    started = time.perf_counter()
    instances = corpus.mid_corpus()
    named = [
        (name, g)
        for name, g in instances
        if name.startswith(("path", "cycle", "grid", "subdiv"))
    ]
    assert len(named) >= 100
    assert all(g.n <= 24 for _, g in instances)
    for name, g in instances:
        verts = tuple(range(g.n))
        for r in (1, 2):
            cover = lp_domination(g, verts, r)
            packing = lp_packing(g, verts, r)
            assert cover.value == packing.value, (name, r)
            alpha, _ = independence_number(g, verts, 2 * r)
            gamma, _ = domination_number(g, verts, r)
            assert alpha <= packing.value, (name, r)
            assert cover.value <= gamma, (name, r)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    record_note(
        f"criterion 01: {len(instances)} instances x 2 radii, "
        f"{elapsed:.1f}s"
    )
    record_criterion(1, "lp duality chain", "PASS")


def test_criterion_02_kernel_oracle_agreement():
    """On >= 200 instances (n <= 50, r in {1,2,3}, k in {2..5}) the
    decide-or-shrink outcome agrees with the exact oracle in 100% of
    cases; total under 15 min."""
    record_criterion(2, "kernel outcome agreement", "FAIL")
    started = time.perf_counter()
    runs = 0
    tags = {"YES": 0, "NO": 0, "KERNEL": 0}
    for name, g, members in corpus.kernel_corpus():
        assert g.n <= 50
        for r in KERNEL_RADII:
            alpha, _ = independence_number(g, members, r, limit=64)
            for k in KERNEL_BUDGETS:
                outcome = kernelize(AnnotatedInstance(g, members, r, k))
                runs += 1
                tags[outcome.tag] += 1
                if outcome.tag == "YES":
                    assert len(outcome.witness) >= k, (name, r, k)
                    assert is_distance_independent(g, outcome.witness, r)
                    assert alpha >= k, (name, r, k)
                elif outcome.tag == "NO":
                    assert alpha < k, (name, r, k)
                else:
                    sub, idmap = induced_subgraph(g, outcome.y)
                    small = tuple(idmap[v] for v in outcome.b)
                    kept, _ = independence_number(sub, small, r, limit=64)
                    assert (alpha >= k) == (kept >= k), (name, r, k)
    elapsed = time.perf_counter() - started
    assert runs >= 200
    assert elapsed < 900
    record_note(
        f"criterion 02: {runs} runs, outcomes {tags}, {elapsed:.1f}s"
    )
    record_criterion(2, "kernel outcome agreement", "PASS")


def test_criterion_03_irrelevance_soundness():
    """Every certificate emitted by the criterion-2 sweep on instances with
    n <= 40 is replayed against the exact oracle: each removal preserves
    min(alpha, k) for every tested k, with zero violations."""
    record_criterion(3, "irrelevance soundness", "FAIL")
    checked = 0
    for name, g, members in corpus.kernel_corpus():
        if g.n > 40:
            continue
        for r in KERNEL_RADII:
            for k in KERNEL_BUDGETS:
                outcome = kernelize(AnnotatedInstance(g, members, r, k))
                current = list(members)
                for victim, cert in outcome.removal_log:
                    before = tuple(current)
                    assert verify_certificate(g, before, cert), (name, r, k)
                    assert victim in cert.l_prime
                    current.remove(victim)
                    after = tuple(current)
                    full, _ = independence_number(g, before, r, limit=64)
                    pruned, _ = independence_number(g, after, r, limit=64)
                    for budget in KERNEL_BUDGETS:
                        assert min(full, budget) == min(pruned, budget), (
                            name, r, k, budget, victim,
                        )
                    checked += 1
    assert checked > 0
    record_note(f"criterion 03: {checked} certified removals replayed")
    record_criterion(3, "irrelevance soundness", "PASS")


def test_criterion_04_minor_exclusion_bounds_shattering():
    """Wherever exhaustive search certifies that no K_t occurs as a
    low-depth minor (t <= 4, r <= 2, n <= 14), the pair-shattering
    dimension of the ball system stays <= t-1; every pair-shattered
    witness found converts into a validated minor model."""
    record_criterion(4, "minor exclusion bounds shattering", "FAIL")
    exclusions = 0
    extracted = 0
    for name, g in corpus.small_corpus():
        assert g.n <= 14
        for r in (1, 2):
            dim, witness = two_vc_dimension(balls_system(g, r))
            if witness is not None and len(witness.members) >= 2:
                model = extract_minor_model(g, r, witness)
                validate_minor_model(g, model)
                assert len(model.branch_sets) == len(witness.members)
                extracted += 1
            for t in (2, 3, 4):
                if find_clique_minor(g, t, r) is None:
                    exclusions += 1
                    assert dim <= t - 1, (name, r, t, dim)
    assert exclusions >= 50
    assert extracted >= 25
    record_note(
        f"criterion 04: {exclusions} certified exclusions, "
        f"{extracted} witnesses extracted"
    )
    record_criterion(4, "minor exclusion bounds shattering", "PASS")


def test_criterion_05_pendant_identities():
    """For every connected corpus graph with n <= 7 and r in {2,3}: the
    pendant construction raises the radius-r domination number by exactly
    one over radius-1 domination, and the exact fractional packing optimum
    by exactly one over its radius-1 value."""
    record_criterion(5, "pendant construction identities", "FAIL")
    tiny = corpus.tiny_connected()
    assert len(tiny) >= 20
    for name, g in tiny:
        assert 2 <= g.n <= 7
        verts = tuple(range(g.n))
        gamma_one, _ = domination_number(g, verts, 1)
        base_lp = lp_packing(g, verts, 1)
        for r in (2, 3):
            pend = pendant_construction(g, r)
            pverts = tuple(range(pend.graph.n))
            gamma_r, _ = domination_number(pend.graph, pverts, r, limit=128)
            assert gamma_r == gamma_one + 1, (name, r)
            lifted = lp_packing(pend.graph, pverts, r)
            assert lifted.value == base_lp.value + 1, (name, r)
    record_note(f"criterion 05: {len(tiny)} graphs x radii (2, 3)")
    record_criterion(5, "pendant construction identities", "PASS")


def test_criterion_06_reduction_distance_properties():
    """For every connected corpus graph with n <= 7 and r in {1,2}: base
    vertices are far apart in the reduction exactly when they are
    non-adjacent in the source; all non-base pairs stay strictly closer
    than the separation threshold; and the reduction's independence number
    at radius 6r-1 equals the source's at radius 1, plus one."""
    record_criterion(6, "reduction distance properties", "FAIL")
    for name, g in corpus.tiny_connected():
        base_dist = {u: distances_from(g, u, None) for u in range(g.n)}
        alpha_one, _ = independence_number(g, range(g.n), 1)
        for r in (1, 2):
            inst = hardness_reduction(g, r)
            h = inst.graph
            originals = inst.o_set
            assert sorted(originals) == list(range(g.n))
            threshold = 6 * r
            for i, u in enumerate(originals):
                reach = distances_from(h, u, None)
                for v in originals[i + 1:]:
                    far_in_base = base_dist[u][v] >= 2
                    assert far_in_base == (reach[v] >= threshold), (
                        name, r, u, v,
                    )
            outside = [u for u in range(h.n) if u not in set(originals)]
            for i, u in enumerate(outside):
                reach = distances_from(h, u, None)
                for v in outside[i + 1:]:
                    assert reach[v] < threshold, (name, r, u, v)
            lifted, _ = independence_number(
                h, range(h.n), threshold - 1, limit=256
            )
            assert lifted == alpha_one + 1, (name, r)
    record_criterion(6, "reduction distance properties", "PASS")


def test_criterion_07_trimmed_regular_samples():
    """50 seeded samples per (d, n) in {3..6} x {200, 1000}: every trimmed
    graph is simple with maximum degree <= d and girth >= d; on each
    n = 200 sample the fractional cover optimum is certified <= 2n/d by
    rationalizing a float LP solution, and >= n/(d+1) by the uniform
    packing that maximum degree <= d makes feasible."""
    record_criterion(7, "trimmed regular-sample properties", "FAIL")
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    def certified_cover_upper(g):
        """An exact rational upper bound on the fractional cover optimum:
        solve in floats, convert to rationals, then scale by the worst
        closed-ball total so the scaled weights certifiably cover."""
        mat = lil_matrix((g.n, g.n))
        for v in range(g.n):
            mat[v, v] = -1.0
            for u in g.adjacency[v]:
                mat[v, u] = -1.0
        res = linprog(
            np.ones(g.n), A_ub=mat.tocsr(), b_ub=-np.ones(g.n),
            bounds=(0, 1), method="highs",
        )
        assert res.status == 0
        weights = [
            Fraction(max(x, 0.0)).limit_denominator(10**9) for x in res.x
        ]
        worst = min(
            weights[v] + sum(weights[u] for u in g.adjacency[v])
            for v in range(g.n)
        )
        total = sum(weights)
        return total / worst if worst < 1 else total

    removed_stats = {}
    for degree in (3, 4, 5, 6):
        for n in (200, 1000):
            removed = []
            for seed in range(50):
                sample = bucket_model(n, degree, seed)
                g = sample.g
                # no loop and no repeated edge survives the trim
                assert all(u < v for u, v in g.edges)
                assert len(set(g.edges)) == len(g.edges)
                assert all(g.degree(v) <= degree for v in range(g.n))
                assert girth(g, degree) >= degree
                removed.append(sample.removed_edges)
                if n == 200:
                    upper = certified_cover_upper(g)
                    assert upper <= Fraction(2 * n, degree), (degree, seed)
                    # max degree <= d makes the uniform 1/(d+1) packing
                    # feasible, so the cover optimum is >= n/(d+1)
                    assert all(
                        Fraction(g.degree(v) + 1, degree + 1) <= 1
                        for v in range(g.n)
                    )
                    assert upper >= Fraction(n, degree + 1), (degree, seed)
            removed_stats[(degree, n)] = sum(removed) / len(removed)
    lines = ", ".join(
        f"d={d} n={n}: {avg:.1f}" for (d, n), avg in removed_stats.items()
    )
    record_note(f"criterion 07: mean trimmed edges per sample: {lines}")
    record_criterion(7, "trimmed regular-sample properties", "PASS")


def test_criterion_08_weak_coloring_duality_bound():
    """On every small-corpus instance the integer domination number is at
    most the squared weak coloring number (heuristic order, radius 2r+1)
    times the integer independence number at radius 2r+1; the paired
    dominating-set / spread-witness construction satisfies all three of
    its postconditions on every run."""
    record_criterion(8, "weak coloring duality bound", "FAIL")
    for name, g in corpus.small_corpus():
        verts = tuple(range(g.n))
        order = order_heuristic(g)
        for r in (1, 2):
            wide, _ = wcol_given_order(g, order, 2 * r + 1)
            gamma, _ = domination_number(g, verts, r)
            alpha, _ = independence_number(g, verts, 2 * r + 1)
            assert gamma <= wide * wide * alpha, (name, r)
            dominating, witness = dual_witness(g, verts, r, order)
            assert is_distance_dominating(g, dominating, verts, 2 * r + 1)
            assert is_distance_independent(g, witness, 2 * r + 1)
            assert len(dominating) <= wide * len(witness), (name, r)
    record_criterion(8, "weak coloring duality bound", "PASS")


def test_criterion_09_greedy_cover_guarantee():
    """On every small-corpus instance the greedy ball cover is within the
    harmonic-number factor of the exact fractional optimum (rational
    comparison), hence within the stated (1 + ln|A|) factor."""
    record_criterion(9, "greedy cover guarantee", "FAIL")
    for name, g in corpus.small_corpus():
        verts = tuple(range(g.n))
        for r in (1, 2, 3):
            picks = greedy_ball_cover(g, verts, r)
            optimum = lp_domination(g, verts, r).value
            assert len(picks) <= harmonic(len(verts)) * optimum, (name, r)
            assert len(picks) <= (1 + math.log(len(verts))) * float(optimum)
    record_criterion(9, "greedy cover guarantee", "PASS")


def test_criterion_10_performance_smoke():
    """Decide-or-shrink on a 10,000-vertex grid (r=2, k=5) finishes in
    under 60 seconds; kernel size over budget is logged across a size
    sweep."""
    record_criterion(10, "performance smoke", "FAIL")
    g = grid_graph(100, 100)
    verts = tuple(range(g.n))
    started = time.perf_counter()
    outcome = kernelize(AnnotatedInstance(g, verts, 2, 5))
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    assert outcome.tag == "YES"
    assert len(outcome.witness) >= 5
    assert is_distance_independent(g, outcome.witness, 2)
    record_note(
        f"criterion 10: 100x100 grid r=2 k=5 -> {outcome.tag} "
        f"in {elapsed:.2f}s"
    )

    sweep = []
    for side in (6, 8, 10, 12):
        grid = grid_graph(side, side)
        gverts = tuple(range(grid.n))
        _, witness = dual_witness(grid, gverts, 1)
        k = len(witness) + 1
        out = kernelize(AnnotatedInstance(grid, gverts, 2, k))
        size = len(out.y) if out.tag == "KERNEL" else grid.n
        sweep.append(f"grid{side}x{side} k={k}: {out.tag} |Y|/k={size / k:.2f}")
    for p in (5, 8, 12, 16):
        twin = corpus.twin_stars(p, 9)
        leaves = corpus.twin_star_leaves(p)
        out = kernelize(AnnotatedInstance(twin, leaves, 2, 3))
        size = len(out.y) if out.tag == "KERNEL" else twin.n
        sweep.append(f"twins{p} k=3: {out.tag} |Y|/k={size / 3:.2f}")
    for line in sweep:
        record_note("criterion 10 sweep: " + line)
    record_criterion(10, "performance smoke", "PASS")
