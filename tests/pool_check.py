"""Check that a revision and this checkout give the same outputs on
every entry of the benchmark pool.

    python tests/pool_check.py REV

extracts REV with `git archive` into a temporary directory, then runs
every variant of every workload in perfbench/reference.json, first with
the drisk of REV and then with the drisk of this checkout's src/.  Each
entry runs in one fixed work directory, emptied before it, so the paths
that reports record agree between the trees.  An entry's fingerprint is
the SHA-256 of each step's exit code, stdout and exception (the chain
stops at the first step that does not exit 0, as in perfbench/run.py)
and of the name and bytes of every file the entry wrote.  Prints the
ids whose fingerprints differ and exits 1 when any do, else 0.

perfbench/workloads.py of this checkout lays out each entry's inputs
and command chain; it is imported, not changed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def load_main(src: str) -> Callable:
    """drisk.cli.main imported afresh from the package under src."""
    for name in [m for m in sys.modules if m == "drisk" or m.startswith("drisk.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("drisk.cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"drisk imported from {cli.__file__}, not from {src}")
    return cli.main


def fingerprint(main: Callable, workload: str, variant: dict, workdir: str) -> str:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    h = hashlib.sha256()
    try:
        inst = workloads.make_instance(main, workload, variant, workdir)
    except Exception as exc:
        h.update(f"set-up raised {type(exc).__name__}: {exc}".encode())
    else:
        for argv in inst.steps:
            step = workloads.call(main, argv)
            h.update(json.dumps([step.rc, step.out, step.exc]).encode())
            if step.rc != 0:
                break
    for folder, dirs, files in os.walk(workdir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            h.update(os.path.relpath(path, workdir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_pool(src: str, pool: dict, workdir: str) -> Dict[str, List[str]]:
    """Fingerprints by workload/id; an id listed twice gets two."""
    main = load_main(src)
    prints: Dict[str, List[str]] = {}
    for workload, strata in pool.items():
        for stratum in strata:
            for variant in stratum["variants"]:
                key = f"{workload}/{variant['id']}"
                prints.setdefault(key, []).append(
                    fingerprint(main, workload, variant, workdir)
                )
    return prints


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/pool_check.py REV", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        pool = json.load(fh)["workloads"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        os.makedirs(tree)
        archive = os.path.join(tmp, "tree.tar")
        subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, argv[0]], check=True)
        subprocess.run(["tar", "-xf", archive, "-C", tree], check=True)
        workdir = os.path.join(tmp, "work")
        base = run_pool(os.path.join(tree, "src"), pool, workdir)
        here = run_pool(os.path.join(ROOT, "src"), pool, workdir)
    differ = sorted(k for k in base.keys() | here.keys() if base.get(k) != here.get(k))
    entries = sum(map(len, here.values()))
    print(f"{entries} pool entries, {len(here)} ids: {len(differ)} differ")
    for key in differ:
        print(key)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
