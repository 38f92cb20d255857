#!/usr/bin/env python3
"""The krakmodel benchmark: one workload, measured end to end or per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and the layer each metric belongs to are catalogued
in perfbench/METRICS.md. The script builds perfbench/krakperf (CMake,
Release) into $CARGO_TARGET_DIR (default .bench_build), then drives it
as a closed loop from this single process: one krakperf process per
repetition, each one set-up plus its timed section (validate_warm: three
sweeps), until S seconds have passed and at least MIN_REPS repetitions
are in. Each metric is the median over the repetitions (wall_s and
cpu_s: over the timed sections).

--trace 0 reports the end-to-end metrics, measured with spans off.
--trace 1 makes one untraced and one traced repetition and reports the
per-layer metrics; the traced one writes its spans as Chrome trace-event
JSON (open at https://ui.perfetto.dev) under <build dir>/traces/.

Repetitions of a validate_* run sample five partition seeds derived
from N (see SEED_SAMPLES). Outputs are checked on every repetition:
against the values pinned from BENCH_PR10.json for seed 1, against the
single-thread oracle and for zero campaign failures on other seeds, and
against the cache discipline each workload promises. The last stdout
line is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("validate_cold", "validate_warm", "replay_100k")
MIN_REPS = 3
MAX_REPS = 12
# A repetition is not started once this much of the run has passed, so a
# run ends well inside 180 s even with the oracle check after it.
REP_DEADLINE_S = 100.0
REP_TIMEOUT_S = 150.0
# The partition seed changes a validation sweep's work by up to ~10%
# (FM passes), so repetition r of a validate_* run uses the seed
# N + SEED_STRIDE * (r % SEED_SAMPLES): a run's median averages over
# several partitions instead of betting on one. A replay's seed only
# sets measurement noise, so its repetitions all use N.
SEED_SAMPLES = 5
SEED_STRIDE = 1000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "mesh.deck_s": "s",
    "partition.multilevel_s": "s",
    "partition.fm.moves": "count",
    "partition.fm.passes": "count",
    "partition.fm.proposals_reused": "count",
    "partition.rcb_s": "s",
    "partition.stats_s": "s",
    "core.store_load_s": "s",
    "core.partition_cache.hits": "count",
    "core.partition_cache.misses": "count",
    "core.partition_store.hits": "count",
    "core.model.predict_s": "s",
    "core.campaign.critical_path_s": "s",
    "core.campaign.utilization": "ratio",
    "core.campaign.speedup_vs_serial": "ratio",
    "simapp.run_s": "s",
    "sim.ns_per_event": "ns/event",
    "sim.events": "count",
    "sim.p2p_messages": "count",
    "sim.mailbox.probes": "count",
    "sim.probes_per_message": "ratio",
    "sim.max_queue_depth": "count",
    "sim.parallel.epochs": "count",
    "sim.parallel.empty_epochs": "count",
    "sim.parallel.cross_shard_messages": "count",
    "sim.coordinator_s": "s",
    "sim.sort_s": "s",
    "sim.inject_s": "s",
    "sim.barrier_wait_s": "s",
    "sim.coordinator_serial_fraction": "ratio",
    "sim.oracle_s": "s",
    "sim.speedup_vs_oracle": "ratio",
    "obs.trace_overhead": "s",
    "obs.unattributed_s": "s",
}

# Span names the traced process gives its layer calls -> metric names.
LAYER_SPANS = {
    "mesh.deck": "mesh.deck_s",
    "partition.multilevel": "partition.multilevel_s",
    "partition.rcb": "partition.rcb_s",
    "partition.stats": "partition.stats_s",
    "core.store_load": "core.store_load_s",
    "core.model.predict": "core.model.predict_s",
    "simapp.run": "simapp.run_s",
}

# Registry counters of the sweep (names as src/ registers them) -> metrics.
SWEEP_COUNTERS = {
    "partition.fm.moves": "partition.fm.moves",
    "partition.fm.passes": "partition.fm.passes",
    "partition.fm.proposals_reused": "partition.fm.proposals_reused",
    "campaign.partition_cache.hits": "core.partition_cache.hits",
    "campaign.partition_cache.misses": "core.partition_cache.misses",
    "partition_store.hits": "core.partition_store.hits",
}

# What one sweep must show in the registry: 15 scenarios over 14 distinct
# configurations (medium@128 is in Tables 5 and 6), none of them left in
# the cache by calibration; the warm sweep never runs the partitioner.
SWEEP_SCENARIOS = 15
DISCIPLINE = {
    "validate_cold": {
        "campaign.partition_cache.misses": 14,
        "campaign.partition_cache.hits": 1,
        "partition_store.hits": 0,
    },
    "validate_warm": {
        "campaign.partition_cache.misses": 14,
        "campaign.partition_cache.hits": 1,
        "partition_store.hits": 14,
        "partition_store.misses": 0,
        "partition.multilevel.calls": 0,
    },
}

# Replay fields that must equal the oracle's bit for bit (the event count
# is engine mechanics and legitimately differs between the engines).
ORACLE_FIELDS = ("makespan_s", "compute_s", "p2p_messages", "p2p_bytes",
                 "failures", "rank_digest")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


# --- aggregation ------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# --- output checks ----------------------------------------------------

def same_bits(a, b):
    """Exact equality; floats compare by their IEEE-754 bit pattern."""
    if isinstance(a, float) or isinstance(b, float):
        try:
            return struct.pack("<d", a) == struct.pack("<d", b)
        except struct.error:
            return False
    return a == b


def check_scenarios(scenarios, pinned):
    """Failed operations among one sweep's scenarios: a campaign failure,
    or, when `pinned` is given (seed 1), any measured or predicted value
    that differs from BENCH_PR10.json in a single bit."""
    failed = 0
    for scenario in scenarios:
        bad = scenario["failed"]
        if pinned is not None:
            want = pinned["scenarios"].get(scenario["name"])
            bad = bad or want is None or not all(
                same_bits(scenario[key], want[key])
                for key in ("measured_s", "predicted_s"))
        failed += int(bool(bad))
    if pinned is not None and len(scenarios) != len(pinned["scenarios"]):
        failed += abs(len(pinned["scenarios"]) - len(scenarios))
    return failed


def check_replay(replay, pinned=None, oracle=None):
    """1 if the replay mismatches the pinned seed-1 values or the oracle."""
    if replay.get("failures", 0) != 0:
        return 1
    if pinned is not None and not all(
            same_bits(replay[key], value)
            for key, value in pinned["replay_100k"].items()):
        return 1
    if oracle is not None and not all(
            same_bits(replay[key], oracle[key]) for key in ORACLE_FIELDS):
        return 1
    return 0


def discipline_violations(workload, counters):
    expected = DISCIPLINE.get(workload, {})
    return [f"{name}: {counters.get(name, 0)} (expected {want})"
            for name, want in expected.items()
            if counters.get(name, 0) != want]


def outputs_of(section):
    """The values a timed section computed, for identity across them."""
    if "replay" in section:
        return section["replay"]
    return [(s["name"], s["measured_s"], s["predicted_s"])
            for s in section["scenarios"]]


# --- spans ------------------------------------------------------------

def span_self_ns(events):
    """id -> self time in ns: the span's duration minus its children's."""
    child_ns = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + event["args"]["dur_ns"]
    return {event["args"]["id"]: event["args"]["dur_ns"] -
            child_ns.get(event["args"]["id"], 0) for event in events}


def scenario_ledgers(events):
    """Per scenario span: its wall, the self time of every span under it
    summed by name, and its own self time as unattributed_ns. The parts
    sum to the wall exactly (integer nanoseconds)."""
    self_ns = span_self_ns(events)
    parent = {e["args"]["id"]: e["args"]["parent"] for e in events}
    ledgers = {e["args"]["id"]: {"name": e["name"],
                                 "wall_ns": e["args"]["dur_ns"],
                                 "layers": {},
                                 "unattributed_ns": self_ns[e["args"]["id"]]}
               for e in events if e["cat"] == "scenario"}
    for event in events:
        ancestor = parent[event["args"]["id"]]
        while ancestor and ancestor not in ledgers:
            ancestor = parent[ancestor]
        if ancestor:
            layers = ledgers[ancestor]["layers"]
            layers[event["name"]] = (layers.get(event["name"], 0) +
                                     self_ns[event["args"]["id"]])
    return list(ledgers.values())


def layer_seconds(events):
    """Metric name -> summed self seconds of that layer's spans, wherever
    they sit (replay_100k builds its inputs in set-up, outside any
    scenario), plus obs.unattributed_s over the scenario spans."""
    self_ns = span_self_ns(events)
    totals = {metric: 0 for metric in LAYER_SPANS.values()}
    unattributed = 0
    for event in events:
        span_id = event["args"]["id"]
        if event["cat"] == "scenario":
            unattributed += self_ns[span_id]
        elif event["name"] in LAYER_SPANS:
            totals[LAYER_SPANS[event["name"]]] += self_ns[span_id]
    seconds = {metric: ns * 1e-9 for metric, ns in totals.items()}
    seconds["obs.unattributed_s"] = unattributed * 1e-9
    return seconds


# --- running krakperf -------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build krakperf; return the binary's path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no krakmodel sources next to {HERE}")
    binary_dir = build_dir() / "krakperf"
    binary_dir.mkdir(parents=True, exist_ok=True)
    log_path = binary_dir / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (binary_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(binary_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(binary_dir), "--target", "krakperf",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return binary_dir / "krakperf"


def run_krakperf(binary, workload, seed, mode, trace_out=None):
    """One krakperf process; returns its JSON result."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--mode", mode]
    store = None
    if workload == "validate_warm":
        store = build_dir() / "store" / str(os.getpid())
        command += ["--store", str(store)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"krakperf timed out: {' '.join(command)}") from error
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"krakperf failed ({done.returncode}): "
                         f"{' '.join(command)}\n{done.stderr.strip()}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"krakperf printed nothing: {' '.join(command)}")
    return json.loads(lines[-1])


def load_pinned(seed):
    if seed != 1:
        return None
    with open(HERE / "pinned.json") as handle:
        return json.load(handle)


class Tally:
    """Attempted and failed operations, plus whatever makes a run wrong
    without being an operation (broken cache discipline, divergence)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def sweep(self, workload, section, pinned):
        scenarios = section["scenarios"]
        self.attempted += len(scenarios)
        self.failed += check_scenarios(scenarios, pinned)
        if len(scenarios) != SWEEP_SCENARIOS:
            self.problems.append(f"sweep ran {len(scenarios)} scenarios")
        self.problems += discipline_violations(workload, section["counters"])

    def replay(self, section, pinned, oracle):
        self.attempted += 1
        self.failed += check_replay(section["replay"], pinned, oracle)

    def identical(self, sections):
        first = outputs_of(sections[0])
        for section in sections[1:]:
            if outputs_of(section) != first:
                self.problems.append("timed sections computed different outputs")
                return

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def describe_host(rep):
    host = rep["host"]
    return (f"host: nproc={host['nproc']} "
            f"hardware_concurrency={host['hardware_concurrency']} "
            f"pool_width={host['pool_width']} shards={host['shards']} "
            f"compiler={host['compiler']!r} build_type={host['build_type']}")


def rep_seed(workload, seed, index):
    if workload == "replay_100k":
        return seed
    return seed + SEED_STRIDE * (index % SEED_SAMPLES)


def measure(binary, workload, seed, seconds):
    """--trace 0: repetitions until `seconds` have passed; medians."""
    tally = Tally()
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or (
            time.monotonic() - start < min(seconds, REP_DEADLINE_S) and
            len(reps) < MAX_REPS):
        reps.append(run_krakperf(binary, workload,
                                 rep_seed(workload, seed, len(reps)), "timed"))
    sections = [section for rep in reps for section in rep["timed"]]
    # Set-up and peak RSS are per process; walls are per timed section.
    samples = {
        "setup_s": [rep["setup_s"] for rep in reps],
        "wall_s": [section["wall_s"] for section in sections],
        "cpu_s": [section["cpu_s"] for section in sections],
        "peak_rss_mib": [rep["peak_rss_mib"] for rep in reps],
    }
    print(describe_host(reps[0]))
    for index, rep in enumerate(reps, 1):
        print(f"rep {index}: seed={rep['seed']} setup_s={rep['setup_s']!r} "
              f"peak_rss_mib={rep['peak_rss_mib']!r} " + " ".join(
                  f"wall_s={section['wall_s']!r} cpu_s={section['cpu_s']!r}"
                  for section in rep["timed"]))
    print(f"{len(reps)} reps, {len(sections)} timed sections; quartile "
          "spread " + " ".join(f"{name}={quartile_spread(values):.4f}"
                               for name, values in samples.items()))
    pinned = load_pinned(seed)
    if workload == "replay_100k":
        # Every repetition's timed replay is the first SimKrak::run of
        # its process, so it includes the first touch of its memory.
        oracle = None
        if pinned is None:
            oracle = run_krakperf(binary, workload, seed, "oracle")["replay"]
        for section in sections:
            tally.replay(section, pinned, oracle)
        tally.identical(sections)
    else:
        by_seed = {}
        for rep in reps:
            by_seed.setdefault(rep["seed"], []).extend(rep["timed"])
        for rep_seed_value, seed_sections in by_seed.items():
            for section in seed_sections:
                tally.sweep(workload, section, load_pinned(rep_seed_value))
            tally.identical(seed_sections)
    metrics = {name: median(samples[name]) for name in END_TO_END}
    return tally, metrics, END_TO_END


def per_layer(plain_wall_s, traced, events):
    """The per-layer metrics of one traced repetition (see METRICS.md)."""
    section = traced["timed"][0]
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(layer_seconds(events))
    counters = section.get("counters", {})
    for source, metric in SWEEP_COUNTERS.items():
        metrics[metric] = counters.get(source, 0)

    sim = traced["sim"]
    sim_counters = sim["counters"]
    metrics["sim.events"] = sim["events"]
    metrics["sim.p2p_messages"] = sim["p2p_messages"]
    metrics["sim.mailbox.probes"] = sim_counters.get("sim.mailbox.probes", 0)
    metrics["sim.max_queue_depth"] = sim["max_queue_depth"]
    for name in ("epochs", "empty_epochs", "cross_shard_messages"):
        metrics[f"sim.parallel.{name}"] = sim_counters.get(
            f"sim.parallel.{name}", 0)
    for name in ("coordinator_s", "sort_s", "inject_s", "barrier_wait_s",
                 "oracle_s"):
        metrics[f"sim.{name}"] = sim[name]
    if sim["events"]:
        metrics["sim.ns_per_event"] = (metrics["simapp.run_s"] * 1e9 /
                                       sim["events"])
    if sim["p2p_messages"]:
        metrics["sim.probes_per_message"] = (metrics["sim.mailbox.probes"] /
                                             sim["p2p_messages"])
    if sim["sharded_s"]:
        metrics["sim.coordinator_serial_fraction"] = (sim["coordinator_s"] /
                                                      sim["sharded_s"])
        metrics["sim.speedup_vs_oracle"] = sim["oracle_s"] / sim["sharded_s"]

    if "campaigns" in traced:
        campaigns = traced["campaigns"]
        # The campaigns run one after another, so the sweep can be no
        # shorter than the sum of each campaign's longest scenario.
        metrics["core.campaign.critical_path_s"] = sum(
            max(c["run_wall_s"]) for c in campaigns)
        busy = sum(sum(c["run_wall_s"]) for c in campaigns)
        capacity = sum(c["wall_s"] * c["threads"] for c in campaigns)
        metrics["core.campaign.utilization"] = busy / capacity
        serial_ns = sum(ledger["wall_ns"] for ledger in scenario_ledgers(events))
        metrics["core.campaign.speedup_vs_serial"] = (serial_ns * 1e-9 /
                                                      section["wall_s"])
    metrics["obs.trace_overhead"] = section["wall_s"] - plain_wall_s
    return metrics


def measure_traced(binary, workload, seed):
    """--trace 1: one untraced and one traced repetition."""
    pinned = load_pinned(seed)
    tally = Tally()
    plain = run_krakperf(binary, workload, seed, "timed")
    trace_path = build_dir() / "traces" / f"{workload}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    traced = run_krakperf(binary, workload, seed, "traced", trace_path)
    print(describe_host(traced))
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]

    sections = plain["timed"] + traced["timed"]
    if workload == "replay_100k":
        for section in sections:
            tally.replay(section, pinned, None)
        if not traced["sim"]["oracle_identical"]:
            tally.failed += 1
    else:
        for section in sections:
            tally.sweep(workload, section, pinned)
        # The serial pass recomputes every scenario layer by layer; it
        # must agree with the campaign sweep bit for bit.
        tally.attempted += len(traced["serial"])
        tally.failed += sum(
            int(a["failed"] or not same_bits(a["measured_s"], b["measured_s"])
                or not same_bits(a["predicted_s"], b["predicted_s"]))
            for a, b in zip(traced["serial"], traced["timed"][0]["scenarios"]))
        if not traced["sim"]["oracle_identical"]:
            tally.problems.append("a sharded scenario diverged from the oracle")
    tally.identical(sections)

    ledgers = scenario_ledgers(events)
    for ledger in ledgers:
        parts = ", ".join(f"{name} {ns * 1e-9:.6f}"
                          for name, ns in ledger["layers"].items())
        print(f"scenario {ledger['name']}: wall {ledger['wall_ns'] * 1e-9:.6f}"
              f" s = {parts}, unattributed "
              f"{ledger['unattributed_ns'] * 1e-9:.6f}")
        if sum(ledger["layers"].values()) + ledger["unattributed_ns"] != \
                ledger["wall_ns"]:
            tally.problems.append(f"ledger of {ledger['name']} does not close")
    print(f"trace: {trace_path} ({len(events)} spans)")
    return tally, per_layer(plain["timed"][0]["wall_s"], traced, events), PER_LAYER


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
        if args.trace:
            tally, metrics, units = measure_traced(binary, args.workload,
                                                   args.seed)
        else:
            tally, metrics, units = measure(binary, args.workload, args.seed,
                                            args.seconds)
    except (BenchError, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
