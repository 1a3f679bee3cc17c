"""Command line front end: instance generation, exact solvers and LP
bounds, kernelization, certificate verification and duality reports.

Reports are JSON with a schema marker; every rational is rendered as a
"num/den" string, every emitted answer is checked once, by the function
that produces it, before it is written, and a rerun with identical
inputs and seed produces the same bytes (wall-clock timing only appears
under --timing).  Exit codes: 0 solved, 1 internal error (a failed
self-check), 2 oracle refusal (instance above a hard limit), 3 bad input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from .ballvc import two_vc_dimension
from .generators import (
    FAMILIES,
    _family,
    exact_subdivision,
    hardness_reduction,
    pendant_construction,
)
from .graph import Graph, GraphError, vset
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
EXIT_INTERNAL = 1
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
    """The bytes of json.dumps(report, indent=2, sort_keys=True) + "\\n".
    That call skips CPython's C encoder once an indent is set, so the
    shapes every report is made of are written here: str-keyed dicts in
    key order, lists and tuples, with one join for a run of ints."""
    return _encode(report, "\n") + "\n"


def _encode(value, nl: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it at
    the depth whose line break and indent is nl."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        # the C function json.dumps calls for a str
        return encode_basestring_ascii(value)
    inner = nl + "  "
    if (kind is list or kind is tuple) and value:
        if all(type(v) is int for v in value):
            items = map(str, value)
        else:
            items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict and value and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _encode(value[k], inner)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    # other leaves and shapes (floats, None, int keys, empty containers):
    # json.dumps writes no raw line break inside a string, so every one
    # in its text is a line break of the layout
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(args) -> Tuple[Graph, Tuple[int, ...], Dict[str, str]]:
    """The --input graph, the --a-file members and the digests of both."""
    g = read_edge_list(args.input)
    if args.a_file is None:
        members = tuple(range(g.n))
    else:
        members = vset(read_vertex_set(args.a_file), g)
    digests = {"input": _sha256(args.input)}
    if args.a_file:
        digests["a_file"] = _sha256(args.a_file)
    return g, members, digests


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


def _json_int(value, what: str) -> int:
    # not int(): it would read "27" or 2.75, and a bool is an int subclass
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _json_ids(value, what: str) -> Tuple[int, ...]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise TypeError(f"{what} must be a list of integers, got {json.dumps(value)}")
    return tuple(value)


def _cert_from_json(data: dict) -> IrrelevanceCertificate:
    try:
        return IrrelevanceCertificate(
            z=_json_ids(data["z"], "z"),
            s=_json_ids(data["s"], "s"),
            l_prime=_json_ids(data["l_prime"], "l_prime"),
            r=_json_int(data["r"], "r"),
            d=_json_int(data["d"], "d"),
        )
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed certificate: {exc}")


def _outcome_to_json(outcome: KernelOutcome) -> dict:
    # tuples dump as lists; not dataclasses.asdict, which copies every id
    return {
        **vars(outcome),
        "removal_log": [
            {"certificate": vars(c), "removed": batch} for c, batch in outcome.removal_log
        ],
    }


# ---------------------------------------------------------------------------
# gen


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args leaves the parser as it was, and
    # no argument has a mutable default or an append action.
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
    gen.add_argument("--seed", type=int, help="for gnm and bucket (default 0)")
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
    solve.add_argument("--s-max", type=int, help="deletion budget for uqw (default 3)")
    solve.add_argument("--limit", type=int, help="oracle size cutoff")
    solve.add_argument("--no-lp", action="store_true", default=None,
                       help="skip the exact LP inside duality reports")
    solve.add_argument("--timing", action="store_true")
    solve.add_argument("--out")

    kern = sub.add_parser("kernel", help="shrink an instance or decide it")
    kern.add_argument("--input", required=True)
    kern.add_argument("--a-file")
    kern.add_argument("--r", type=int, required=True)
    kern.add_argument("--k", type=int, required=True)
    kern.add_argument("--target", type=int, help="closure projection target")
    kern.add_argument("--s-max", type=int, default=3)
    kern.add_argument("--max-rounds", type=int, help="cap on removals")
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
    return top


def _cmd_gen(args) -> int:
    kind = args.kind
    seed = 0 if args.seed is None else args.seed
    special: List[Tuple[str, int]] = []
    comments = [f"generated by drisk gen {kind}"]
    derived = kind in ("subdivision", "pendant", "hardness")
    reads = ("input", "r") if derived else FAMILIES[kind][1]
    options = ("n", "m", "rows", "cols", "leaves", "d", "r", "seed")
    for key in (*options, "input"):
        if getattr(args, key) is not None and key not in reads:
            raise GraphError(f"gen {kind} takes no --{key}")
    if derived:
        if not args.input or args.r is None:
            raise GraphError(f"gen {kind} needs --input and --r")
        base = read_edge_list(args.input)
        if kind == "subdivision":
            g = exact_subdivision(base, args.r)
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
        params = {p: seed if p == "seed" else getattr(args, p) for p in names}
        if None in params.values():
            need = " and ".join(f"--{p}" for p in names if p != "seed")
            raise GraphError(f"gen {kind} needs {need}")
        g = built = _family(kind, params)
        if kind == "bucket":
            g = built.g
            comments.append(
                f"n {built.n} d {built.d} seed {seed} trimmed {built.removed_edges}"
            )
        elif kind == "gnm":
            comments.append(f"n {args.n} m {args.m} seed {seed}")
    write_edge_list(g, args.out, comments=comments)
    if special:
        write_pairs(special, sidecar_path(args.out, "special"))
    outputs = {"n": g.n, "m": g.m, "out": args.out,
               "out_digest": _sha256(args.out)}
    digests = {"input": _sha256(args.input)} if args.input else {}
    params = {"kind": kind, "seed": seed}
    for key in options:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = _report("gen", digests, params, outputs, seed=seed)
    sys.stdout.write(_dump(report))
    return EXIT_OK


# the solve options that only some problems read, and those problems;
# the first three are recorded among a report's parameters
_SOLVE_OPTIONS = {
    "limit": ("alpha", "gamma", "vc2", "minor"), "t": ("minor",), "m": ("uqw",),
    "s_max": ("uqw",), "no_lp": ("duality",),
    "a_file": ("alpha", "gamma", "lp", "vc2", "duality", "uqw"),
}


def _uqw_s_max(args) -> int:
    return 3 if args.s_max is None else args.s_max


def _solve_outputs(args, g: Graph, members: Tuple[int, ...]) -> dict:
    problem = args.problem
    r = args.r
    for key, problems in _SOLVE_OPTIONS.items():
        if getattr(args, key) is not None and problem not in problems:
            raise GraphError(f"solve {problem} takes no --{key.replace('_', '-')}")
    # each producer refuses its own radius and limit; without --limit
    # each oracle applies its own default cap
    caps = {} if args.limit is None else {"limit": args.limit}
    if problem in ("alpha", "gamma"):
        oracle = independence_number if problem == "alpha" else domination_number
        value, witness = oracle(g, members, r, **caps)
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
        dim, witness = two_vc_dimension(g, members, r, **caps)
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
        model = find_clique_minor(g, args.t, r, **caps)
        return {
            "found": model is not None,
            "branch_sets": None if model is None
            else [list(bs) for bs in model.branch_sets],
        }
    if problem == "duality":
        rep = duality_report(g, members, r, include_lp=not args.no_lp)
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
        found = find_uqw(g, members, r, args.m, _uqw_s_max(args))
        if found is None:
            return {"found": False, "s": None, "b": None}
        return {"found": True, "s": list(found.s), "b": list(found.b)}
    raise GraphError(f"unknown problem {problem!r}")


def _cmd_solve(args) -> int:
    started = time.perf_counter() if args.timing else None
    g, members, digests = _load_instance(args)
    outputs = _solve_outputs(args, g, members)
    params = {"problem": args.problem, "r": args.r}
    for key in ("limit", "t", "m"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.problem == "uqw":
        params["s_max"] = _uqw_s_max(args)
    report = _report("solve", digests, params, outputs, started=started)
    _emit(_dump(report), args.out)
    return EXIT_OK


def _entry_batch(entry) -> Tuple[IrrelevanceCertificate, Tuple[int, ...]]:
    """A schema-1 entry, one removal with its own certificate, as a batch."""
    return _cert_from_json(entry["certificate"]), (_json_int(entry["removed"], "removed"),)


def _batch(entry) -> Tuple[IrrelevanceCertificate, Tuple[int, ...]]:
    """A schema-2 batch: one certificate and the members it removes."""
    if not isinstance(entry, dict):
        raise TypeError(f"expected an object, got {json.dumps(entry)}")
    removed = _json_ids(entry["removed"], "removed")
    if not removed:
        raise TypeError("removed must not be empty")
    return _cert_from_json(entry["certificate"]), removed


# per log schema: the header key of its list, that list's items and
# the reader that makes each item a (certificate, removed) batch
_LOG_SCHEMAS = {1: ("entries", "entry", _entry_batch), 2: ("batches", "batch", _batch)}


def _replay_log(g: Graph, members: Tuple[int, ...], items, schema: int) -> dict:
    """Replay the log's batches from members.  Each batch's certificate
    is checked in full against the members it is applied to; each
    removal then only needs its victim among the class members left and
    at least |s|+2 of those.  A schema-1 entry is a batch of one, so its
    replay is the full check.  Failures carry flat removal indexes."""
    key, item, read = _LOG_SCHEMAS[schema]
    if not isinstance(items, list):
        raise GraphError(f"malformed removal log: expected a list of {key}")
    current = list(members)
    reason = None
    index = 0
    for position, entry in enumerate(items):
        try:
            cert, removed = read(entry)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed removal log {item} {position}: {exc}")
        reason = check_certificate(g, current, cert)
        live = set(cert.l_prime)
        for victim in removed:
            if reason is not None:
                break
            if victim not in live:
                reason = "removed vertex outside the certified class"
            elif len(live) < len(cert.s) + 2:
                reason = "size"
            else:
                live.remove(victim)
                index += 1
        if reason is not None:
            break
        gone = set(removed)
        current = [v for v in current if v not in gone]
    return {
        "valid": reason is None,
        "checked": index,
        "failures": [] if reason is None else [{"index": index, "reason": reason}],
        "final_members": current,
    }


def _load_json(path: str, what: str):
    """The JSON value in the file at path.  A value nested too deep to
    decode is bad input, refused as a malformed what."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise GraphError(f"malformed {what}: {exc}")


def _cmd_verify_cert(args) -> int:
    g, members, digests = _load_instance(args)
    if args.cert:
        cert = _cert_from_json(_load_json(args.cert, "certificate"))
        reason = check_certificate(g, members, cert)
        outputs = {"valid": reason is None, "failing": reason}
        digests["cert"] = _sha256(args.cert)
    else:
        data = _load_json(args.log, "removal log")
        # a bare list is a schema-1 log without its header
        header = data if isinstance(data, dict) else {"schema": 1, "entries": data}
        schema = header.get("schema", 1)
        if type(schema) is not int or schema not in _LOG_SCHEMAS:
            raise GraphError(f"removal log schema {json.dumps(schema)} is not supported")
        for name, have in (("graph_digest", digests["input"]), ("a", list(members))):
            if header.get(name, have) != have:
                raise GraphError(f"removal log {name} does not match the loaded input")
        outputs = _replay_log(g, members, header.get(_LOG_SCHEMAS[schema][0]), schema)
        digests["log"] = _sha256(args.log)
    report = _report("verify-cert", digests, {}, outputs)
    _emit(_dump(report), args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    started = time.perf_counter() if args.timing else None
    g, members, digests = _load_instance(args)
    policy = KernelPolicy(closure_target=args.target, uqw_s_max=args.s_max,
                          max_rounds=args.max_rounds)
    outcome = kernelize(g, members, args.r, args.k, policy)
    serial = _outcome_to_json(outcome)
    params = {"r": args.r, "k": args.k, "s_max": args.s_max}
    for key in ("target", "max_rounds"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = _report("kernel", digests, params, serial, started=started)
    if args.out_prefix:  # written first, so a bad prefix emits no report
        write_vertex_set(outcome.y, f"{args.out_prefix}.y")
        write_vertex_set(outcome.b, f"{args.out_prefix}.b")
        log = {
            "schema": 2,
            "graph_digest": digests["input"],
            "a": list(members),
            "r": args.r,
            "k": args.k,
            "batches": serial["removal_log"],
        }
        with open(f"{args.out_prefix}.log.json", "w") as fh:
            fh.write(_dump(log))
    _emit(_dump(report), args.out)
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
        raise GraphError(f"unknown command {args.command!r}")
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:  # a failed self-check
        print(f"internal error: {str(exc).removeprefix('internal: ')}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
