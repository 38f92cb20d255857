"""Self-tests of the benchmark's own logic (no build, no measurement).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import re
import statistics
import struct
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the module under test sits next to this file)


def flip_lowest_bit(value):
    bits = struct.unpack("<Q", struct.pack("<d", value))[0] ^ 1
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def span(span_id, parent, name, category, dur_ns):
    return {"name": name, "cat": category, "ph": "X",
            "args": {"id": span_id, "parent": parent, "dur_ns": dur_ns}}


class AggregationTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        # quantiles(n=4) of 1..10 (exclusive method): 2.75, 5.5, 8.25.
        self.assertAlmostEqual(run.quartile_spread(values), 5.5 / 5.5)
        values = [10.2, 9.8, 10.0, 10.4, 9.9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartile_spread(values), (q3 - q1) / q2)


class SeedTest(unittest.TestCase):
    def test_validate_repetitions_cycle_through_five_partition_seeds(self):
        seeds = [run.rep_seed("validate_cold", 7, r) for r in range(7)]
        self.assertEqual(seeds, [7, 1007, 2007, 3007, 4007, 7, 1007])
        self.assertEqual(run.rep_seed("validate_warm", 1, 0), 1)

    def test_replay_repetitions_keep_the_run_seed(self):
        self.assertEqual({run.rep_seed("replay_100k", 7, r) for r in range(7)},
                         {7})


class LedgerTest(unittest.TestCase):
    EVENTS = [
        span(1, 0, "serial_pass", "phase", 10_000),
        span(2, 1, "medium/64pe", "scenario", 9_000),
        span(3, 2, "mesh.deck", "layer", 1_000),
        span(4, 2, "partition.multilevel", "layer", 5_000),
        span(5, 4, "partition.fm", "layer", 2_000),
        span(6, 2, "simapp.run", "layer", 2_500),
        span(7, 1, "large/128pe", "scenario", 700),
        span(8, 7, "simapp.run", "layer", 600),
        span(9, 0, "sim.oracle", "check", 4_000),
    ]

    def test_self_time_excludes_children(self):
        self_ns = run.span_self_ns(self.EVENTS)
        self.assertEqual(self_ns[4], 3_000)
        self.assertEqual(self_ns[2], 500)
        self.assertEqual(self_ns[1], 300)

    def test_layers_plus_unattributed_close_each_scenario_wall(self):
        ledgers = run.scenario_ledgers(self.EVENTS)
        self.assertEqual([l["name"] for l in ledgers],
                         ["medium/64pe", "large/128pe"])
        for ledger in ledgers:
            self.assertEqual(
                sum(ledger["layers"].values()) + ledger["unattributed_ns"],
                ledger["wall_ns"])
        self.assertEqual(ledgers[0]["unattributed_ns"], 500)
        self.assertEqual(ledgers[0]["layers"]["partition.fm"], 2_000)

    def test_layer_seconds_sum_self_times_by_layer(self):
        seconds = run.layer_seconds(self.EVENTS)
        self.assertAlmostEqual(seconds["simapp.run_s"], 3_100e-9)
        self.assertAlmostEqual(seconds["partition.multilevel_s"], 3_000e-9)
        self.assertAlmostEqual(seconds["obs.unattributed_s"], 600e-9)
        self.assertEqual(seconds["partition.rcb_s"], 0)


class PinnedCheckTest(unittest.TestCase):
    def setUp(self):
        with open(HERE / "pinned.json") as handle:
            self.pinned = json.load(handle)
        self.scenarios = [
            {"name": name, "failed": False, **values}
            for name, values in self.pinned["scenarios"].items()]
        self.replay = dict(self.pinned["replay_100k"], failures=0)

    def test_pinned_values_pass(self):
        self.assertEqual(run.check_scenarios(self.scenarios, self.pinned), 0)
        self.assertEqual(run.check_replay(self.replay, self.pinned), 0)

    def test_one_flipped_bit_is_one_failure(self):
        for key in ("measured_s", "predicted_s"):
            scenarios = copy.deepcopy(self.scenarios)
            scenarios[4][key] = flip_lowest_bit(scenarios[4][key])
            self.assertEqual(run.check_scenarios(scenarios, self.pinned), 1)
        replay = dict(self.replay)
        replay["makespan_s"] = flip_lowest_bit(replay["makespan_s"])
        self.assertEqual(run.check_replay(replay, self.pinned), 1)
        replay = dict(self.replay, events=self.replay["events"] ^ 1)
        self.assertEqual(run.check_replay(replay, self.pinned), 1)

    def test_other_seeds_check_failures_and_the_oracle(self):
        scenarios = copy.deepcopy(self.scenarios)
        scenarios[0]["failed"] = True
        self.assertEqual(run.check_scenarios(scenarios, None), 1)
        oracle = dict(self.replay, compute_s=1.5, rank_digest="00ff")
        replay = dict(oracle, events=oracle["events"] + 7)
        self.assertEqual(run.check_replay(replay, None, oracle), 0)
        replay["rank_digest"] = "00fe"
        self.assertEqual(run.check_replay(replay, None, oracle), 1)

    def test_cache_discipline(self):
        cold = {"campaign.partition_cache.misses": 14,
                "campaign.partition_cache.hits": 1}
        self.assertEqual(run.discipline_violations("validate_cold", cold), [])
        self.assertEqual(
            len(run.discipline_violations(
                "validate_cold", dict(cold, **{"campaign.partition_cache.hits": 2}))),
            1)
        warm = dict(cold, **{"partition_store.hits": 14})
        self.assertEqual(run.discipline_violations("validate_warm", warm), [])
        warm["partition.multilevel.calls"] = 1
        self.assertEqual(len(run.discipline_violations("validate_warm", warm)), 1)


class CatalogTest(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json") as handle:
            self.spec = json.load(handle)

    def test_metric_names_and_units_match_benchmark_json(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]},
            run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)

    def test_catalog_lists_every_metric_and_workload(self):
        catalog = (HERE / "METRICS.md").read_text()
        rows = set(re.findall(r"^\| `([^`]+)` \|", catalog, re.MULTILINE))
        self.assertEqual(rows - set(run.WORKLOADS),
                         set(run.END_TO_END) | set(run.PER_LAYER))
        for workload in run.WORKLOADS:
            self.assertIn(f"`{workload}`", catalog)
        for metric in self.spec["end_to_end"]:
            row = re.search(rf"^\| `{metric['name']}` \|.*\| ([0-9.]+) \|$",
                            catalog, re.MULTILINE)
            self.assertEqual(float(row.group(1)), metric["bound"], metric["name"])


if __name__ == "__main__":
    unittest.main()
