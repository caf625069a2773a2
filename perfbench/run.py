#!/usr/bin/env python3
"""Fig. 10 campaign benchmark: the paper's headline grid, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig10-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` makes the traced per-layer run instead
and prints the per-layer metrics.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  Metric names, units and
directions come from ``BENCHMARK.json``; see ``perfbench/README.md``.

Every repetition runs in a fresh interpreter (``campaign.py``) on its
own result store under ``.perfbench/`` in the checkout, which is removed
at exit; only the span file of a traced run stays there.  The measured
times are scaled to a reference host speed, which a ``calibrate.Probe``
samples while the repetitions run (see :func:`measure`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
#: the whole run, every child included, ends within this many seconds.
BUDGET_S = 170.0
#: setup_s is the median of at least this many fresh-interpreter set-ups.
SETUP_SAMPLES = 5
#: campaign_s and cpu_s are medians over at least this many repetitions.
MIN_REPS = 2
#: CPU seconds of one ``calibrate.Probe`` sample at the reference speed
#: every reported time is scaled to.  It is a unit, chosen so that the
#: scaled ``fig10-cold`` time about equals the raw one on the 2-vCPU VM
#: (Python 3.11) where the bounds were set, at that host's usual speed.
REF_LOOP_S = 0.0025


class ChildFailed(Exception):
    pass


def say(line: str) -> None:
    print(line, flush=True)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Children:
    """Starts ``campaign.py`` children against the run's deadline."""

    def __init__(self, workload: str, seed: int, jobs: int,
                 tmp: Path) -> None:
        self.workload, self.seed, self.jobs, self.tmp = \
            workload, seed, jobs, tmp
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.count = 0
        self.commit = git_commit()

    def run(self, mode: str, store: Path, workload: str = None,
            *flags: str) -> dict:
        """Run one child; returns its result with ``spawned_at`` added."""
        self.count += 1
        out = self.tmp / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "campaign.py"), mode,
               "--workload", workload or self.workload,
               "--seed", str(self.seed), "--jobs", str(self.jobs),
               "--out", str(out), "--commit", self.commit, *flags]
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        spawned_at = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(
                timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{mode} child overran the time budget")
        finally:
            # the child's pool workers share its session: none outlives it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.is_file():
            tail = err.decode(errors="replace").strip().splitlines()[-15:]
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n"
                              + "\n".join(tail))
        result = json.loads(out.read_text())
        result["spawned_at"] = spawned_at
        return result


def measure(kids: Children, seconds: float) -> tuple:
    """Repeat the workload in fresh interpreters for about *seconds*
    (the warm prefill not included), then take extra set-up samples;
    returns (metrics, attempted, failed, failure notes, environment).

    A :class:`~calibrate.Probe` samples the host's speed all along.
    Every time is multiplied by ``REF_LOOP_S`` over the mean sample of
    its own interval, so it reads as seconds at the speed of the host
    the bounds were set on.  A shared host whose speed drifts moves the
    probe and the workload alike; the ratio stays."""
    warm = kids.workload == "fig10-warm"
    warm_store = kids.tmp / "warm-store"
    reps, setups, notes = [], [], []
    attempted = failed = 0
    reference = None
    if warm:
        # untimed prefill: the cold grid fills the store every rep reads.
        prefill = kids.run("run", warm_store, "fig10-cold")
        reference = prefill["digest"]
        attempted += prefill["attempted"]
        failed += prefill["failed"]
        notes += prefill["notes"]
    probe = Probe()
    probe.start()
    try:
        start = time.monotonic()
        while True:
            began = time.monotonic()
            store = warm_store if warm else kids.tmp / f"store-{len(reps)}"
            flags = ["--expect-hits"] if warm else []
            if not reps:
                flags.append("--spot-check")
            rep = kids.run("run", store, None, *flags)
            if not warm:
                shutil.rmtree(store, ignore_errors=True)
            reps.append(rep)
            setups.append(rep)
            attempted += rep["attempted"]
            failed += rep["failed"]
            notes += rep["notes"]
            reference = reference or rep["digest"]
            if rep["digest"] != reference:
                failed += rep["attempted"] - rep["failed"]
                notes.append(f"rep {len(reps)} records digest "
                             f"{rep['digest']} != {reference}")
            cost = time.monotonic() - began
            if len(reps) >= MIN_REPS and \
                    time.monotonic() + cost > start + seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            store = warm_store if warm else kids.tmp / "setup-store"
            setups.append(kids.run("setup", store))
    finally:
        probe.finish()
    errs = {rep["stp_err_pp"] for rep in reps}
    if len(errs) != 1:
        notes.append(f"stp_err_pp differs between reps: {sorted(errs)}")
        failed += 1

    def scaled(seconds: float, start: float, end: float) -> float:
        return seconds * REF_LOOP_S / probe.loop_s(start, end)

    for got in setups:
        got["setup_s"] = got["ready_at"] - got["spawned_at"]
        got["setup_scaled"] = scaled(got["setup_s"], got["spawned_at"],
                                     got["ready_at"])
    for rep in reps:
        end = rep["ready_at"] + rep["campaign_s"]
        rep["campaign_scaled"] = scaled(rep["campaign_s"], rep["ready_at"],
                                        end)
        rep["cpu_scaled"] = scaled(rep["cpu_s"], rep["spawned_at"], end)
    median = lambda key, got: statistics.median(g[key] for g in got)  # noqa
    metrics = {"campaign_s": median("campaign_scaled", reps),
               "cpu_s": median("cpu_scaled", reps),
               "setup_s": median("setup_scaled", setups),
               # the run's peak: which worker holds which traces varies.
               "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
               "stp_err_pp": reps[0]["stp_err_pp"]}
    say(f"perfbench {kids.workload}: {len(reps)} reps, "
        f"{len(setups)} set-ups, results digest {reference}")
    loops = [cpu for _, cpu in probe.samples]
    say(f"  host speed: probe loop {statistics.median(loops) * 1e3:.3f} ms "
        f"CPU (median of {len(loops)}) vs reference {REF_LOOP_S * 1e3} ms;"
        f" unscaled medians campaign_s {median('campaign_s', reps):.4f} s,"
        f" cpu_s {median('cpu_s', reps):.4f} s, setup_s "
        f"{median('setup_s', setups):.4f} s")
    say("  campaign_s per rep, scaled (unscaled): " + ", ".join(
        f"{r['campaign_scaled']:.4f} ({r['campaign_s']:.4f})" for r in reps))
    return metrics, attempted, failed, notes, reps[0]["env"]


def trace(kids: Children) -> tuple:
    spans = WORK / f"spans-{kids.workload}-seed{kids.seed}.jsonl"
    got = kids.run("trace", kids.tmp / "base-store", None,
                   "--scratch", str(kids.tmp), "--spans", str(spans))
    say(f"perfbench {kids.workload} traced: results digest "
        f"{got['digest']}, traced {got['traced_s']:.2f} s vs untraced "
        f"{got['untraced_s']:.2f} s; spans in {spans.relative_to(ROOT)}")
    if got["missing_hooks"]:
        say(f"  hooks not installed (absent in this version): "
            f"{', '.join(got['missing_hooks'])}")
    say("  self time by layer (traced one-job pass):")
    for layer, seconds in got["rollup"].items():
        say(f"    {layer:<12} {seconds:9.3f} s")
    return got["layer"], got["attempted"], len(got["notes"]), \
        got["notes"], got["env"]


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Fig. 10 campaign benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "experiments" / "fig10_stp.py").is_file():
        print("perfbench: no simulator sources under src/repro; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    jobs = os.cpu_count() or 1
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    kids = Children(args.workload, args.seed, jobs, tmp)
    try:
        if args.trace:
            values, attempted, failed, notes, env = trace(kids)
        else:
            values, attempted, failed, notes, env = measure(kids,
                                                            args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    say(f"perfbench env: {json.dumps(env, sort_keys=True)}")
    for note in notes:
        say(f"  FAILED: {note}")
    failed = min(failed, attempted)
    say(f"  failed_frac = {failed}/{attempted} = "
        f"{failed / max(attempted, 1):.4g}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        say(f"  {m['name']:<26} {values[m['name']]:>14.6g} {m['unit']:<9}"
            f" ({m['better']} is better)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
