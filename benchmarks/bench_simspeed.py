"""Simulation-speed bench: lanes vs object-fast-forward vs reference.

Times a four-workload matrix through all three cycle loops (see
``docs/performance.md``):

* ``pchase.mem`` — a miss-dominated single-thread pointer chase.  Nearly
  every cycle is a DRAM stall, so the event horizon jumps almost all of
  them and both fast modes must beat the polling reference decisively.
* ``ilp.int8`` — dense independent ALU work on a scaled-out window
  (ROB 512 / IQ 256, the paper's scaling regime).  There are almost no
  idle cycles to skip, so this isolates per-instruction bookkeeping —
  the case the flat-lane engine exists for.
* ``branchy.mix`` — two SMT threads of branch-heavy work: frequent
  squashes stress recovery, the most state-rewriting path of all modes.
* ``smt4.dense`` — a dense four-thread mix through practical steering
  with a shelf, exercising the full SMT machinery (rotation, shelf
  FIFOs, SSRs) with all threads busy.

Traces are generated once and shared between all runs — trace synthesis
is pure Python and would otherwise swamp the loop timing.  Every mode
must stay bit-identical (same pickled :class:`SimResult`); each time is
the best of ``_ROUNDS`` interleaved repetitions to shrug off scheduler
noise.

Writes ``BENCH_simspeed.json`` at the repo root with wall-clock times,
per-mode speedups over the reference loop, and fast-forward jump
statistics (``scripts/check_simspeed_regression.py`` compares it against
the committed copy in CI).
"""

import json
import pickle
import time
from pathlib import Path

from repro.core import CoreConfig, Pipeline
from repro.trace import generate

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Best-of-N interleaved timing repetitions per (case, mode).
_ROUNDS = 3

#: The bench matrix.  ``length_mult`` scales the per-thread trace length
#: relative to the harness scale — the compute-bound case runs longer so
#: one-time setup (lane allocation, cache warmup) amortizes the way it
#: does in real experiments, and the pointer chase runs longer so its
#: lanes time (a few hundredths of a second at 1x) is long enough for
#: its gated ratio to hold still between runs.
_CASES = (
    {
        "name": "pchase.mem",
        "kind": "latency-bound",
        "workloads": ("pchase.mem",),
        "config": {"num_threads": 1},
        "length_mult": 4,
    },
    {
        "name": "ilp.int8",
        "kind": "compute-bound, scaled window (ROB 512 / IQ 256)",
        "workloads": ("ilp.int8",),
        "config": {"num_threads": 1, "rob_entries": 512, "iq_entries": 256,
                   "lq_entries": 64, "sq_entries": 64},
        "length_mult": 4,
    },
    {
        "name": "branchy.mix",
        "kind": "branch-heavy 2-thread SMT",
        "workloads": ("branchy.hard", "branchy.easy"),
        "config": {"num_threads": 2},
        "length_mult": 1,
    },
    {
        "name": "smt4.dense",
        "kind": "dense 4-thread SMT mix, practical steering + shelf",
        "workloads": ("ilp.int8", "mixed.int", "branchy.hard",
                      "gather.small"),
        "config": {"num_threads": 4, "steering": "practical",
                   "shelf_entries": 128},
        "length_mult": 1,
    },
)

#: The three loop implementations being compared.
_MODES = (
    ("reference", {"lanes": False, "fastforward": False}),
    ("object", {"lanes": False, "fastforward": True}),
    ("lanes", {"lanes": True}),
)

#: Floors asserted at non-smoke scales (the committed JSON documents the
#: measured numbers; these only catch gross regressions in-bench).
MIN_LATENCY_SPEEDUP = 2.0   # pchase.mem, both fast modes
MIN_LANES_SPEEDUP = 2.0     # ilp.int8, lane mode


def _run_case(case, length):
    cfg = CoreConfig(**case["config"])
    traces = [generate(w, length, seed=0) for w in case["workloads"]]
    times = {name: float("inf") for name, _ in _MODES}
    pipes = {}
    results = {}
    # Interleave the repetitions so drifting machine load hits every
    # mode evenly instead of whichever ran last.
    for _ in range(_ROUNDS):
        for mode, kwargs in _MODES:
            pipe = Pipeline(cfg, traces, **kwargs)
            t0 = time.perf_counter()
            result = pipe.run(stop="all")
            elapsed = time.perf_counter() - t0
            if elapsed < times[mode]:
                times[mode] = elapsed
            pipes[mode] = pipe
            results[mode] = result
    blob = pickle.dumps(results["reference"])
    for mode in ("object", "lanes"):
        assert pickle.dumps(results[mode]) == blob, \
            f"{case['name']}: {mode} result diverged from reference"
    return times, pipes, results


def test_simspeed_matrix(benchmark, scale):
    base_length = scale.instructions_per_thread
    report = {"scale": scale.name,
              "instructions_per_thread": base_length,
              "rounds": _ROUNDS,
              "workloads": {}}

    first = True
    for case in _CASES:
        length = base_length * case["length_mult"]
        if first:
            holder = {}

            def run_first():
                holder["out"] = _run_case(case, length)
                return holder["out"][2]["lanes"]

            benchmark.pedantic(run_first, rounds=1, iterations=1)
            times, pipes, results = holder["out"]
            first = False
        else:
            times, pipes, results = _run_case(case, length)

        ref_s = times["reference"]
        obj = pipes["object"]
        entry = {
            "kind": case["kind"],
            "workloads": list(case["workloads"]),
            "config": dict(case["config"]),
            "instructions": length * len(case["workloads"]),
            "cycles": results["lanes"].cycles,
            "reference_s": round(ref_s, 4),
            "object_s": round(times["object"], 4),
            "lanes_s": round(times["lanes"], 4),
            "speedup_object": round(ref_s / times["object"], 2),
            "speedup_lanes": round(ref_s / times["lanes"], 2),
            "ff_jumps": obj.ff_jumps,
            "ff_skipped_cycles": obj.ff_skipped_cycles,
            "skipped_fraction": round(
                obj.ff_skipped_cycles / max(1, obj.cycle), 4),
        }
        report["workloads"][case["name"]] = entry
        print(f"\n{case['name']} ({case['kind']}): "
              f"ref {ref_s:.3f}s, object {times['object']:.3f}s "
              f"({entry['speedup_object']:.2f}x), lanes "
              f"{times['lanes']:.3f}s ({entry['speedup_lanes']:.2f}x)")

    (REPO_ROOT / "BENCH_simspeed.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    if scale.name != "smoke":
        latency = report["workloads"]["pchase.mem"]
        assert latency["speedup_object"] >= MIN_LATENCY_SPEEDUP, \
            f"pchase.mem object speedup {latency['speedup_object']}x " \
            f"below {MIN_LATENCY_SPEEDUP}x bar"
        assert latency["speedup_lanes"] >= MIN_LATENCY_SPEEDUP, \
            f"pchase.mem lanes speedup {latency['speedup_lanes']}x " \
            f"below {MIN_LATENCY_SPEEDUP}x bar"
        compute = report["workloads"]["ilp.int8"]
        assert compute["speedup_lanes"] >= MIN_LANES_SPEEDUP, \
            f"ilp.int8 lanes speedup {compute['speedup_lanes']}x below " \
            f"{MIN_LANES_SPEEDUP}x bar"
