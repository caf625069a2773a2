"""How fast the host runs Python while the benchmark runs.

Shared hosts change speed by half or more within seconds: the same
instructions take more CPU time, so ``cpu_s`` moves with ``campaign_s``.
A :class:`Probe` thread in ``run.py`` samples that speed all through a
run: every ``PERIOD_S`` seconds it runs a fixed loop and records the
thread CPU time the loop took.  ``run.py`` divides each measured time by
the mean sample of its own interval, so a time and its scale come from
the same seconds of the host.

The loop shares nothing with the simulator -- it imports nothing from
``src/`` -- so a change to the program cannot speed it up.  It is shaped
like the simulator's cycle loop (slotted objects, a rotating window,
dict counters, data-dependent branches).
"""

from __future__ import annotations

import statistics
import threading
import time

#: rounds of one sample's loop: about 3 ms of CPU on a 2-vCPU VM.
ROUNDS = 20
#: seconds between samples: about 3% of one CPU.
PERIOD_S = 0.1
#: samples this far outside an interval still count for it, so that a
#: short interval (a 0.25 s set-up) has some twenty samples.
MARGIN_S = 1.0
WINDOW = 512
TABLE_BITS = 16


class Slot:
    __slots__ = ("tag", "ready", "age")

    def __init__(self, tag: int) -> None:
        self.tag, self.ready, self.age = tag, 0, 0


def work(rounds: int) -> int:
    window = [Slot(i * 2654435761 & 0xFFFF) for i in range(WINDOW)]
    table: dict = {}
    mask = (1 << TABLE_BITS) - 1
    acc = 0
    for now in range(rounds):
        for slot in window:
            slot.age += 1
            if slot.ready <= now:
                key = (slot.tag * 31 + now * 7 + slot.age) & mask
                table[key] = table.get(key, 0) + slot.age
                slot.ready = now + (key & 3)
                slot.tag = (slot.tag + key) & 0xFFFF
            else:
                acc += slot.tag & 15
        window.append(window.pop(0))
    return (acc + sum(table.values()) + len(table)) & 0xFFFFFFFF


class Probe(threading.Thread):
    """Samples the host's speed until :meth:`finish`."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list = []  # (wall-clock stamp, loop CPU seconds)
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(PERIOD_S):
            t0 = time.thread_time()
            work(ROUNDS)
            self.samples.append((time.time(), time.thread_time() - t0))

    def finish(self) -> None:
        self.done.set()
        self.join()

    def loop_s(self, start: float, end: float) -> float:
        """Mean CPU seconds of a sample taken within the wall-clock
        interval [start, end], widened by ``MARGIN_S`` on both sides."""
        got = [cpu for stamp, cpu in self.samples
               if start - MARGIN_S <= stamp <= end + MARGIN_S]
        if not got:
            raise RuntimeError("no host-speed samples in the interval")
        return statistics.mean(got)
