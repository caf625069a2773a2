"""The benchmark's input: the default-scale Fig. 10 grid for one seed.

Seed 0 is exactly the grid ``repro experiments fig10 --scale default``
runs: the first 8 of the 28 balanced-random mixes, in order.  Any other
seed swaps two of those mixes (which two is drawn from the seed).  A
mix's position is the trace seed of its threads, so the two moved mixes
replay new trace instances of their benchmarks while the groupings stay
the paper's.  Re-ordering all 8 mixes made ``campaign_s``, ``cpu_s``,
peak RSS and ``stp_err_pp`` spread 11-20% between seeds -- the work and
the STP gains depend on the trace instances -- which is more than any
useful regression bound.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Set, Tuple

from repro.harness.configs import EVALUATED_CONFIGS, base64_config
from repro.harness.runner import get_scale
from repro.trace.mixes import balanced_random_mixes

SCALE = get_scale("default")
LENGTH = SCALE.instructions_per_thread
CONFIGS = ("Base64", "Shelf64-cons", "Shelf64-opt", "Base128")
#: the paper's geomean STP gains over Base64 (Fig. 10), in percent.
PAPER_GAIN_PCT = {"Shelf64-cons": 8.6, "Shelf64-opt": 11.5}

Mix = Tuple[str, ...]


def mixes_for_seed(seed: int) -> List[Mix]:
    mixes = balanced_random_mixes()[:SCALE.num_mixes]
    if seed != 0:
        a, b = random.Random(seed).sample(range(len(mixes)), 2)
        mixes[a], mixes[b] = mixes[b], mixes[a]
    return mixes


def grid_points(mixes: Sequence[Mix]) -> List[tuple]:
    """The point specs ``fig10_stp.run`` asks for, without duplicates:
    every (config, mix) run plus the single-thread Base64 reference run
    of every mix slot.  Mix ``i`` runs with trace seed ``i``; the list
    itself is ordered as at seed 0, so a swap changes the traces two
    mixes replay but not the order a client submits the points in."""
    canonical = balanced_random_mixes()[:SCALE.num_mixes]
    order = sorted(range(len(mixes)), key=lambda i: canonical.index(mixes[i]))
    points = [(EVALUATED_CONFIGS[name](4), tuple(mixes[i]), LENGTH, i,
               "first") for i in order for name in CONFIGS]
    ref = base64_config(1)
    points += [(ref, (bench,), LENGTH, i + slot, "all")
               for i in order for slot, bench in enumerate(mixes[i])]
    return list(dict.fromkeys(points))


def config_name(config) -> str:
    if config.num_threads == 1:
        return "Base64-1t"
    return next(n for n in CONFIGS if EVALUATED_CONFIGS[n](4) == config)


def point_label(point: tuple) -> str:
    """``config|bench+bench|length|seed|stop`` -- also the key of the
    point's :class:`~repro.harness.campaign.CampaignPoint`."""
    config, benchmarks, length, seed, stop = point
    return (f"{config_name(config)}|{'+'.join(benchmarks)}|{length}|"
            f"{seed}|{stop}")


def unique_traces(mixes: Sequence[Mix]) -> Set[Tuple[str, int, int]]:
    """Every (benchmark, length, seed) trace the grid generates."""
    return {(bench, LENGTH, i + slot)
            for i, mix in enumerate(mixes)
            for slot, bench in enumerate(mix)}


def stp_err_pp(findings: dict) -> float:
    """Mean absolute distance, in percentage points, between the
    simulated and the paper's geomean STP gains of the shelf designs."""
    errs = [abs(100.0 * findings[f"stp_geomean_{name}"] - paper)
            for name, paper in PAPER_GAIN_PCT.items()]
    return sum(errs) / len(errs)


def stp_err_from_records(mixes: Sequence[Mix], records: dict) -> float:
    """:func:`stp_err_pp` computed from the grid's result records alone,
    by the arithmetic of ``fig10_stp.compute``."""
    from repro.metrics.throughput import geomean
    ref = base64_config(1)
    gains: Dict[str, List[float]] = {name: [] for name in CONFIGS[1:]}
    for i, mix in enumerate(mixes):
        singles = [records[point_label((ref, (bench,), LENGTH, i + slot,
                                        "all"))]["threads"][0]["cpi"]
                   for slot, bench in enumerate(mix)]

        def stp(name: str) -> float:
            point = (EVALUATED_CONFIGS[name](4), mix, LENGTH, i, "first")
            cpis = [t["cpi"] for t in records[point_label(point)]["threads"]]
            return sum(single / cpi for cpi, single in zip(cpis, singles)
                       if math.isfinite(cpi) and cpi > 0)

        base = stp("Base64")
        for name in gains:
            gains[name].append(stp(name) / base - 1.0)
    return stp_err_pp({f"stp_geomean_{name}":
                       geomean([1 + v for v in values]) - 1
                       for name, values in gains.items()})
