"""Command line front end: instance generation, exact solvers and LP
bounds, kernelization, certificate verification, duality reports, and
batch benchmarking.

Reports are JSON with a schema marker; every rational is rendered as a
"num/den" string, every emitted vertex set is re-validated before it is
written, and a rerun with identical inputs and seed produces the same
bytes (wall-clock timing only appears under --timing).  Exit codes:
0 solved, 2 oracle refusal (instance above a hard limit), 3 bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .ballvc import balls_system, restrict_system, two_vc_dimension
from .generators import (
    FAMILIES,
    _family,
    bucket_model,
    exact_subdivision,
    hardness_reduction,
    pendant_construction,
)
from .graph import (
    AnnotatedInstance,
    Graph,
    GraphError,
    is_distance_dominating,
    is_distance_independent,
    vset,
)
from .graphio import (
    read_edge_list,
    read_vertex_set,
    sidecar_path,
    write_edge_list,
    write_pairs,
    write_vertex_set,
)
from .kernel import (
    IrrelevanceCertificate,
    KernelOutcome,
    KernelPolicy,
    check_certificate,
    kernelize,
)
from .oracle import (
    OracleLimitError,
    domination_number,
    find_clique_minor,
    independence_number,
    lp_domination,
)
from .uqw import find_uqw
from .wcol import duality_report

EXIT_OK = 0
EXIT_ORACLE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors must land on exit code 3, not argparse's 2."""

    def error(self, message):
        raise GraphError(message)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_members(g: Graph, a_file: Optional[str]) -> Tuple[int, ...]:
    if a_file is None:
        return tuple(range(g.n))
    return vset(read_vertex_set(a_file), g)


def _report(command: str, digests: Dict[str, str], parameters: dict,
            outputs: dict, seed: Optional[int] = None,
            started: Optional[float] = None) -> dict:
    rep = {
        "schema": 1,
        "command": command,
        "input_digest": digests,
        "parameters": parameters,
        "outputs": outputs,
        "seed": seed,
    }
    if started is not None:
        rep["wall_time_s"] = time.perf_counter() - started
    return rep


def _cert_to_json(cert: IrrelevanceCertificate) -> dict:
    return {
        "z": list(cert.z),
        "s": list(cert.s),
        "l_prime": list(cert.l_prime),
        "r": cert.r,
        "d": cert.d,
    }


def _cert_from_json(data: dict) -> IrrelevanceCertificate:
    try:
        return IrrelevanceCertificate(
            z=tuple(int(v) for v in data["z"]),
            s=tuple(int(v) for v in data["s"]),
            l_prime=tuple(int(v) for v in data["l_prime"]),
            r=int(data["r"]),
            d=int(data["d"]),
        )
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed certificate: {exc}")


def _outcome_to_json(outcome: KernelOutcome) -> dict:
    return {
        "tag": outcome.tag,
        "r": outcome.r,
        "k": outcome.k,
        "y": list(outcome.y),
        "b": list(outcome.b),
        "witness": None if outcome.witness is None else list(outcome.witness),
        "removal_log": [
            {"removed": v, "certificate": _cert_to_json(c)}
            for v, c in outcome.removal_log
        ],
    }


# ---------------------------------------------------------------------------
# gen


def _build_parser() -> _Parser:
    top = _Parser(prog="drisk", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instance files")
    gen.add_argument("kind", choices=[*FAMILIES, "subdivision", "pendant", "hardness"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--leaves", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--r", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--input", help="base graph for derived constructions")
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="exact values, LP bounds, witnesses")
    solve.add_argument("problem", choices=[
        "alpha", "gamma", "lp", "vc2", "minor", "duality", "uqw",
    ])
    solve.add_argument("--input", required=True)
    solve.add_argument("--a-file")
    solve.add_argument("--r", type=int, default=1)
    solve.add_argument("--t", type=int, help="clique size for minor search")
    solve.add_argument("--m", type=int, help="target size for uqw")
    solve.add_argument("--s-max", type=int, default=3)
    solve.add_argument("--limit", type=int, help="oracle size cutoff")
    solve.add_argument("--no-lp", action="store_true",
                       help="skip the exact LP inside duality reports")
    solve.add_argument("--timing", action="store_true")
    solve.add_argument("--out")

    kern = sub.add_parser("kernel", help="shrink an instance or decide it")
    kern.add_argument("--input", required=True)
    kern.add_argument("--a-file")
    kern.add_argument("--r", type=int, required=True)
    kern.add_argument("--k", type=int, required=True)
    kern.add_argument("--target", type=int, help="closure projection target")
    kern.add_argument("--closure-cap", type=int)
    kern.add_argument("--s-max", type=int, default=3)
    kern.add_argument("--uqw-m", type=int)
    kern.add_argument("--max-rounds", type=int)
    kern.add_argument("--out-prefix", help="write Y/B files and removal log")
    kern.add_argument("--timing", action="store_true")
    kern.add_argument("--out")

    ver = sub.add_parser("verify-cert", help="replay removal certificates")
    ver.add_argument("--input", required=True)
    ver.add_argument("--a-file")
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--cert", help="single certificate JSON file")
    group.add_argument("--log", help="removal log JSON file to replay")
    ver.add_argument("--out")

    bench = sub.add_parser("bench", help="run a manifest, emit CSV")
    bench.add_argument("--manifest", required=True)
    bench.add_argument("--out")
    return top


def _cmd_gen(args) -> int:
    kind = args.kind
    seed = args.seed
    special: List[Tuple[str, int]] = []
    comments = [f"generated by drisk gen {kind}"]
    if kind in ("subdivision", "pendant", "hardness"):
        if not args.input or args.r is None:
            raise GraphError(f"gen {kind} needs --input and --r")
        base = read_edge_list(args.input)
        if kind == "subdivision":
            g, _ = exact_subdivision(base, args.r)
        elif kind == "pendant":
            built = pendant_construction(base, args.r)
            g = built.graph
            special = [("x", built.x), ("y", built.y)]
        else:
            built = hardness_reduction(base, args.r)
            g = built.graph
            special = [("x", built.x), ("y", built.y),
                       ("o_count", len(built.o_set))]
        comments.append(f"base {args.input} r {args.r}")
    else:
        names = FAMILIES[kind][1]
        if any(getattr(args, p) is None for p in names):
            need = " and ".join(f"--{p}" for p in names if p != "seed")
            raise GraphError(f"gen {kind} needs {need}")
        params = {p: getattr(args, p) for p in names}
        if kind == "bucket":
            sample = bucket_model(**params)
            g = sample.g
            comments.append(
                f"n {sample.n} d {sample.d} seed {seed} trimmed {sample.removed_edges}"
            )
        else:
            g = _family(kind, params)
        if kind == "gnm":
            comments.append(f"n {args.n} m {args.m} seed {seed}")
    write_edge_list(g, args.out, comments=comments)
    if special:
        write_pairs(special, sidecar_path(args.out, "special"))
    outputs = {"n": g.n, "m": g.m, "out": args.out,
               "out_digest": _sha256(args.out)}
    digests = {"input": _sha256(args.input)} if args.input else {}
    params = {"kind": kind, "seed": seed}
    for key in ("n", "m", "rows", "cols", "leaves", "d", "r"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = _report("gen", digests, params, outputs, seed=seed)
    sys.stdout.write(_dump(report))
    return EXIT_OK


def _solve_outputs(args, g: Graph, members: Tuple[int, ...]) -> dict:
    problem = args.problem
    r = args.r
    if problem == "alpha":
        limit = args.limit if args.limit is not None else 40
        value, witness = independence_number(g, members, r, limit=limit)
        if not is_distance_independent(g, witness, r):
            raise RuntimeError("internal: invalid independence witness")
        return {"value": value, "witness": list(witness)}
    if problem == "gamma":
        limit = args.limit if args.limit is not None else 40
        value, witness = domination_number(g, members, r, limit=limit)
        if not is_distance_dominating(g, witness, members, r):
            raise RuntimeError("internal: invalid domination witness")
        return {"value": value, "witness": list(witness)}
    if problem == "lp":
        cover = lp_domination(g, members, r)
        packing = cover.dual
        return {
            "cover_optimum": _rat(cover.value),
            "packing_optimum": _rat(packing.value),
            "duality_gap_zero": cover.value == packing.value,
        }
    if problem == "vc2":
        limit = args.limit if args.limit is not None else 24
        system = balls_system(g, r)
        if args.a_file is not None:
            system = restrict_system(system, members)
        dim, witness = two_vc_dimension(system, limit=limit)
        out = {"dimension": dim, "witness": None}
        if witness is not None:
            out["witness"] = {
                "members": list(witness.members),
                "pair_witnesses": [
                    [a, b, v]
                    for (a, b), v in sorted(witness.pair_witnesses.items())
                ],
            }
        return out
    if problem == "minor":
        if args.t is None:
            raise GraphError("solve minor needs --t")
        limit = args.limit if args.limit is not None else 16
        model = find_clique_minor(g, args.t, r, vertex_limit=limit)
        return {
            "found": model is not None,
            "branch_sets": None if model is None
            else [list(bs) for bs in model.branch_sets],
        }
    if problem == "duality":
        rep = duality_report(g, members, r, include_lp=not args.no_lp)
        if not is_distance_dominating(g, rep.dominating_set, members, r):
            raise RuntimeError("internal: invalid dominating set")
        if not is_distance_independent(g, rep.independent_witness, 2 * r + 1):
            raise RuntimeError("internal: invalid independent witness")
        return {
            "dominating_set": list(rep.dominating_set),
            "independent_witness": list(rep.independent_witness),
            "wcol_value": rep.wcol_value,
            "lp_value": None if rep.lp_value is None else _rat(rep.lp_value),
            "greedy_bound": _rat(rep.greedy_bound),
            "order": list(rep.order.sequence),
        }
    if problem == "uqw":
        if args.m is None:
            raise GraphError("solve uqw needs --m")
        found = find_uqw(g, members, r, args.m, args.s_max)
        if found is None:
            return {"found": False, "s": None, "b": None}
        return {"found": True, "s": list(found.s), "b": list(found.b)}
    raise GraphError(f"unknown problem {problem!r}")


def _cmd_solve(args) -> int:
    started = time.perf_counter() if args.timing else None
    g = read_edge_list(args.input)
    members = _load_members(g, args.a_file)
    digests = {"input": _sha256(args.input)}
    if args.a_file:
        digests["a_file"] = _sha256(args.a_file)
    outputs = _solve_outputs(args, g, members)
    params = {"problem": args.problem, "r": args.r}
    for key in ("t", "m", "limit"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.problem == "uqw":
        params["s_max"] = args.s_max
    report = _report("solve", digests, params, outputs, started=started)
    _emit(_dump(report), args.out)
    return EXIT_OK


def _replay_log(g: Graph, members: Tuple[int, ...], entries: List[dict]) -> dict:
    if not isinstance(entries, list):
        raise GraphError("malformed removal log: expected a list of entries")
    current = list(members)
    failures: List[dict] = []
    for index, entry in enumerate(entries):
        try:
            cert = _cert_from_json(entry["certificate"])
            removed = int(entry["removed"])
        except TypeError as exc:
            raise GraphError(f"malformed removal log entry {index}: {exc}")
        reason = check_certificate(g, current, cert)
        if reason is None and removed not in cert.l_prime:
            reason = "removed vertex outside the certified class"
        if reason is not None:
            failures.append({"index": index, "reason": reason})
            break
        current.remove(removed)
    return {
        "valid": not failures,
        "checked": len(entries) if not failures else failures[0]["index"],
        "failures": failures,
        "final_members": current,
    }


def _cmd_verify_cert(args) -> int:
    g = read_edge_list(args.input)
    members = _load_members(g, args.a_file)
    digests = {"input": _sha256(args.input)}
    if args.a_file:
        digests["a_file"] = _sha256(args.a_file)
    if args.cert:
        with open(args.cert) as fh:
            data = json.load(fh)
        cert = _cert_from_json(data)
        reason = check_certificate(g, members, cert)
        outputs = {"valid": reason is None, "failing": reason}
        digests["cert"] = _sha256(args.cert)
    else:
        with open(args.log) as fh:
            data = json.load(fh)
        entries = data["entries"] if isinstance(data, dict) else data
        outputs = _replay_log(g, members, entries)
        digests["log"] = _sha256(args.log)
    report = _report("verify-cert", digests, {}, outputs)
    _emit(_dump(report), args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    started = time.perf_counter() if args.timing else None
    g = read_edge_list(args.input)
    members = _load_members(g, args.a_file)
    digests = {"input": _sha256(args.input)}
    if args.a_file:
        digests["a_file"] = _sha256(args.a_file)
    policy = KernelPolicy(
        closure_target=args.target,
        closure_max_additions=args.closure_cap,
        uqw_s_max=args.s_max,
        uqw_m=args.uqw_m,
        max_rounds=args.max_rounds,
    )
    inst = AnnotatedInstance(g, members, args.r, args.k)
    outcome = kernelize(inst, policy)
    # Emitted sets are re-validated, and the removal log is replayed from
    # its serialized form, before anything is written.
    if outcome.tag == "YES":
        assert outcome.witness is not None
        if len(outcome.witness) < args.k or not is_distance_independent(
            g, outcome.witness, args.r
        ):
            raise RuntimeError("internal: YES witness failed revalidation")
    serial = _outcome_to_json(outcome)
    if outcome.removal_log:
        replay = _replay_log(g, members, serial["removal_log"])
        if not replay["valid"]:
            raise RuntimeError("internal: removal log failed replay")
    if outcome.tag == "KERNEL" and not set(outcome.b) <= set(outcome.y):
        raise RuntimeError("internal: kernel members not inside Y")
    params = {"r": args.r, "k": args.k, "s_max": args.s_max}
    for key in ("target", "closure_cap", "uqw_m", "max_rounds"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = _report("kernel", digests, params, serial, started=started)
    _emit(_dump(report), args.out)
    if args.out_prefix:
        write_vertex_set(outcome.y, f"{args.out_prefix}.y")
        write_vertex_set(outcome.b, f"{args.out_prefix}.b")
        log = {
            "schema": 1,
            "graph_digest": digests["input"],
            "a": list(members),
            "r": args.r,
            "k": args.k,
            "entries": serial["removal_log"],
        }
        with open(f"{args.out_prefix}.log.json", "w") as fh:
            fh.write(_dump(log))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

_BENCH_COLUMNS = [
    "name", "n", "m", "r", "k", "task", "outcome",
    "y_size", "b_size", "y_over_k", "lp_value", "witness_size",
    "seconds", "error",
]


def _bench_graph(row: dict) -> Graph:
    if "input" in row:
        return read_edge_list(row["input"])
    fam = row["family"]
    return _family(fam["kind"], fam)


def _bench_row(row: dict) -> Dict[str, str]:
    out = {col: "" for col in _BENCH_COLUMNS}
    started = time.perf_counter()
    try:
        if not isinstance(row, dict):
            raise GraphError(f"bench row {row!r} is not an object")
        out["name"] = str(row.get("name", ""))
        g = _bench_graph(row)
        members = (
            vset(read_vertex_set(row["a_file"]), g)
            if "a_file" in row
            else tuple(range(g.n))
        )
        r = int(row.get("r", 1))
        task = row.get("task", "kernel")
        out.update(n=str(g.n), m=str(g.m), r=str(r), task=task)
        if task == "kernel":
            k = int(row["k"])
            out["k"] = str(k)
            outcome = kernelize(
                AnnotatedInstance(g, members, r, k),
                KernelPolicy(
                    closure_target=row.get("target"),
                    uqw_s_max=int(row.get("s_max", 3)),
                    max_rounds=row.get("max_rounds"),
                ),
            )
            out["outcome"] = outcome.tag
            if outcome.tag == "KERNEL":
                out["y_size"] = str(len(outcome.y))
                out["b_size"] = str(len(outcome.b))
                out["y_over_k"] = f"{len(outcome.y) / k:.6g}"
            elif outcome.tag == "YES":
                out["witness_size"] = str(len(outcome.witness or ()))
        elif task == "duality":
            rep = duality_report(g, members, r)
            out["outcome"] = "ok"
            out["y_size"] = str(len(rep.dominating_set))
            out["witness_size"] = str(len(rep.independent_witness))
            if rep.lp_value is not None:
                out["lp_value"] = _rat(rep.lp_value)
        elif task == "lp":
            cover = lp_domination(g, members, r)
            packing = cover.dual
            out["outcome"] = (
                "equal" if cover.value == packing.value else "gap"
            )
            out["lp_value"] = _rat(cover.value)
        else:
            raise GraphError(f"unknown bench task {task!r}")
    except Exception as exc:  # per-row failures recorded, run continues
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["seconds"] = f"{time.perf_counter() - started:.3f}"
    return out


def _cmd_bench(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    rows = manifest["rows"] if isinstance(manifest, dict) else manifest
    if not isinstance(rows, list):
        raise GraphError("malformed bench manifest: expected a list of rows")
    lines = [",".join(_BENCH_COLUMNS)]
    for row in rows:
        done = _bench_row(row)
        lines.append(",".join(done[col].replace(",", ";") for col in _BENCH_COLUMNS))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "verify-cert":
            return _cmd_verify_cert(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise GraphError(f"unknown command {args.command!r}")
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
