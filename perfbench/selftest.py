"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check that tracing wraps every public drisk function wherever it is
bound, that self time is exact on a synthetic span tree, and that a run
prints exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import unittest

import run
import spans


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return float(self.times.pop(0))


class WrapEverywhere(unittest.TestCase):
    def setUp(self):
        run.import_drisk()
        self.originals = spans.public_functions()
        self.log = spans.SpanLog()
        self.uninstall = spans.install(self.log)

    def tearDown(self):
        self.uninstall()

    def test_no_public_function_left_unwrapped(self):
        self.assertGreater(len(self.originals), 60)
        for mod in spans.drisk_modules():
            for key, obj in vars(mod).items():
                self.assertNotIn(id(obj), self.originals, f"{mod.__name__}.{key} still unwrapped")
                if inspect.isfunction(obj) and obj.__module__.startswith("drisk") and not key.startswith("_"):
                    self.assertTrue(hasattr(obj, "__perfbench_original__"), f"{mod.__name__}.{key}")

    def test_each_binding_gets_the_same_wrapper(self):
        mods = {m.__name__: m for m in spans.drisk_modules()}
        for fn, name in self.originals.values():
            home = getattr(mods[fn.__module__], fn.__name__)
            self.assertIs(home.__perfbench_original__, fn, name)
            for mod in mods.values():
                bound = vars(mod).get(fn.__name__)
                if getattr(bound, "__perfbench_original__", None) is fn:
                    self.assertIs(bound, home, f"{mod.__name__}.{fn.__name__}")
        self.assertIs(mods["drisk.kernel"].induced_subgraph, mods["drisk.graph"].induced_subgraph)
        self.assertIs(mods["drisk"].kernelize, mods["drisk.cli"].kernelize)

    def test_uninstall_restores_originals(self):
        self.uninstall()
        self.uninstall = lambda: None
        for mod in spans.drisk_modules():
            for key, obj in vars(mod).items():
                self.assertFalse(hasattr(obj, "__perfbench_original__"), f"{mod.__name__}.{key}")

    def test_calls_through_the_cli_nest_under_main(self):
        cli = sys.modules["drisk.cli"]
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main(["gen", "path", "--n", "6", "--out", os.path.join(tmp, "p.txt")]), 0)
        names = [self.log.names[n] for n in self.log.name]
        main_idx = names.index("cli.main")
        for name in ("generators.path_graph", "graphio.write_edge_list"):
            self.assertEqual(self.log.parent[names.index(name)], main_idx, name)
        metrics = spans.layer_metrics(self.log, 1)
        self.assertGreater(metrics["graphio.bytes"], 0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # A [0,10] holds B [1,3] and C [4,8]; C holds D [5,6].
        log = spans.SpanLog(FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
        a = log.open(log.name_id("kernel.kernelize"))
        b = log.open(log.name_id("wcol.dual_witness"))
        log.close(b)
        c = log.open(log.name_id("kernel.remove_irrelevant"))
        d = log.open(log.name_id("projections.closure"))
        log.close(d)
        log.close(c)
        log.close(a)
        self.assertEqual(list(spans.self_times(log)), [4.0, 2.0, 3.0, 1.0])
        m = spans.layer_metrics(log, 2)
        self.assertEqual(m["kernel.self_s"], (4.0 + 3.0) / 2)
        self.assertEqual(m["kernel.rounds"], 0.5)

    def test_scale_applies_to_seconds_only(self):
        # instance 0 has one span in each of two passes, [0,2] and [3,4]
        log = spans.SpanLog(FakeClock([0, 2, 3, 4]))
        log.current_instance = 0
        for p in (0, 1):
            log.current_pass = p
            log.close(log.open(log.name_id("graph.induced_subgraph")))
        m = spans.layer_metrics(log, 2, scale=[[0.5, 3.0]])
        self.assertEqual(m["graph.induced_subgraph_s"], (2 * 0.5 + 1 * 3.0) / 2)
        self.assertEqual(m["graph.self_s"], (2 * 0.5 + 1 * 3.0) / 2)
        self.assertEqual(m["graph.induced_subgraph_calls"], 1.0)

    def test_generator_spans_per_next(self):
        log = spans.SpanLog(FakeClock(range(100)))

        def rungs():
            yield 1
            yield 2

        traced = spans.wrap(rungs, "uqw.scattered_ladder", log)
        self.assertEqual(list(traced()), [1, 2])
        self.assertEqual(len(log), 3)  # two yields and the final StopIteration
        self.assertEqual(spans.layer_metrics(log, 1)["uqw.ladder_rungs"], 2.0)

    def test_nested_bfs_counts_once(self):
        log = spans.SpanLog()
        inner = spans.wrap(lambda g, s, c=None: {0: 0, 1: 1}, "graph.distances_from", log)
        outer = spans.wrap(lambda g, s, c: tuple(sorted(inner(g, s, c))), "graph.ball", log)
        outer(None, 0, 1)
        m = spans.layer_metrics(log, 1)
        self.assertEqual((m["graph.bfs_calls"], m["graph.bfs_vertices"]), (1.0, 2.0))


class MetricNames(unittest.TestCase):
    def declared(self, key):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[key]}

    def printed(self, trace: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "exact-oracles", "--seed", "0", "--seconds", "0",
                           "--trace", str(trace)])
        self.assertEqual(rc, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return {k: v["unit"] for k, v in result["metrics"].items()}

    def test_end_to_end(self):
        self.assertEqual(self.printed(0), self.declared("end_to_end"))

    def test_per_layer(self):
        self.assertEqual(self.printed(1), self.declared("per_layer"))


if __name__ == "__main__":
    unittest.main()
