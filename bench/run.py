"""Benchmark runner: one workload per fresh interpreter, one process, no threads.

    python3 bench/run.py --workload z-lattice --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

A run imports ``cotorsion`` from ``src/`` next to this directory, makes the
workload's inputs from the seed, then runs whole rounds of timed calls
until the timed calls add up to ``--seconds``.  Each call's result is
checked outside the timed region against the independent computations in
``ref.py``.  Times are calibrated against a fixed kernel to remove the
machine's speed drift (see ``calib.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times a fixed
number of rounds untraced, then the same rounds again on a fresh import
with every public library function wrapped by ``spans.Recorder``, and
prints the per-layer metrics plus the tracing overhead; the spans are
written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

import calib
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# set-ups per run; setup_s is their median
SETUP_REPEATS = 21
MODULES = ("arith", "intmat", "projline", "lattice2", "latenum", "quadring",
           "okproj", "okmodules", "dirichlet", "cli", "search")


def import_lib() -> SimpleNamespace:
    """A fresh copy of the library: every cotorsion module is executed anew."""
    for name in [n for n in sys.modules if n == "cotorsion" or n.startswith("cotorsion.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"cotorsion.{m}") for m in MODULES})


class Meter:
    """Times calls; counts attempted calls, failed calls and completed work.

    ``busy``, the samples and the tallies are calibrated seconds (see
    calib.py).  A call's calibrated time is known once the kernel has run
    after it, so they are complete after ``end_round``.  ``raw_busy`` is
    the plain sum of the timed calls and decides when a run ends.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.calibrator = calib.Calibrator()
        self.busy = 0.0
        self.raw_busy = 0.0
        self.samples = array("d")
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.tallies: dict[str, tuple[int, float]] = {}
        self.rss_mib = 0.0
        # (work, calibrated seconds) of each whole round
        self.rounds: list[tuple[int, float]] = []
        self._round_start = (0, 0.0)
        # (raw seconds, sample?, tally kind, tally units) of the calls since the last kernel run
        self._block: list[tuple[float, bool, str | None, int]] = []

    def run(self, kind: str, fn, *args, work: int = 1, sample: bool = True, tally: int = 0):
        """Call fn(*args) inside the timed region; exceptions propagate uncounted as work.

        ``tally`` units of work are added, with the call's time, to the
        per-kind total of ``kind``.
        """
        if self.calibrator.due():
            self._close_block()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.recorder is None:
                out = fn(*args)
            else:
                with self.recorder.span(f"bench.{kind}"):
                    out = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            self.calibrator.add(raw)
            self.raw_busy += raw
            self._block.append((raw, sample, kind if tally else None, tally))
        self.work += work
        return out

    def _close_block(self) -> None:
        scale = self.calibrator.close_block()
        for raw, sample, kind, units in self._block:
            seconds = raw * scale
            self.busy += seconds
            if sample:
                self.samples.append(seconds)
            if kind is not None:
                n, s = self.tallies.get(kind, (0, 0.0))
                self.tallies[kind] = (n + units, s + seconds)
        self._block.clear()

    def end_round(self) -> None:
        self._close_block()
        work, busy = self._round_start
        self.rounds.append((self.work - work, self.busy - busy))
        self._round_start = (self.work, self.busy)

    def rate(self) -> float:
        """Work per calibrated second: the median over rounds, so one stalled round does not move it."""
        return statistics.median(w / b for w, b in self.rounds)


def set_up(cls, oracle, seed: int):
    """The workload with the library loaded; returns (workload, median calibrated set-up seconds).

    The benchmark makes the inputs once, untimed.  The program's set-up, a
    fresh import plus building the library objects the inputs need, is
    timed SETUP_REPEATS times.
    """
    wl = cls(oracle, seed)
    wl.prepare()
    cal = calib.Calibrator()
    cal.close_block()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.load(import_lib())
        times.append((time.perf_counter() - t0) * cal.close_block())
    return wl, statistics.median(times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(wl, meter: Meter, seconds: float, rounds: int | None = None) -> int:
    """Whole rounds until the timed calls reach ``seconds``, or exactly ``rounds`` rounds.

    A timed run makes at least ``wl.base_rounds`` rounds and reads the peak
    RSS when that many are done.  A fixed round count still stops once the
    timed calls pass four times ``seconds``, so a much slower program
    cannot overrun the run's limit.
    """
    i = 0
    while True:
        if rounds is None:
            if i >= wl.base_rounds and meter.raw_busy >= seconds:
                break
        elif i >= rounds or meter.raw_busy >= 4 * seconds:
            break
        wl.run_round(i, meter)
        meter.end_round()
        i += 1
        if i == wl.base_rounds:
            meter.rss_mib = peak_rss_mib()
    wl.finish()
    return i


def end_to_end(wl, meter: Meter, setup_s: float) -> dict:
    s = meter.samples
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (meter.rss_mib, "MiB"),
        "ops_per_s": (meter.rate(), "1/s"),
        "op_p50_ms": (statistics.median(s) * 1000, "ms"),
        "op_tail_ms": (statistics.quantiles(s, n=100)[wl.tail_pct - 1] * 1000, "ms"),
    }


def per_layer(rec, busy_untraced: float, busy_traced: float) -> dict:
    out = {}
    for name, value in rec.metrics().items():
        last = name.rsplit(".", 1)[-1]
        unit = "s" if last in ("self_s", "s") else "count" if last in ("calls", "candidates") else "ratio"
        out[name] = (value, unit)
    out["trace.overhead_pct"] = (100 * (busy_traced - busy_untraced) / busy_untraced, "%")
    return out


def run_one(args) -> int:
    if not (SRC / "cotorsion").is_dir():
        print(f"no cotorsion package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import spans
    from ref import CheckFailed

    cls = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    oracle = import_lib()
    wl, setup_s = set_up(cls, oracle, args.seed)
    meter = Meter()
    try:
        if not args.trace:
            rounds = run_rounds(wl, meter, seconds=args.seconds)
            metrics = end_to_end(wl, meter, setup_s)
            extra = dict(wl.extra(meter), ops_per_s_uncalibrated=(meter.work / meter.raw_busy, "1/s"))
            attempted, failed = meter.attempted, meter.failed
        else:
            rounds = run_rounds(wl, meter, seconds=args.seconds, rounds=cls.base_rounds)
            lib = import_lib()
            traced_wl = cls(oracle, args.seed)
            traced_wl.prepare()
            traced_wl.load(lib)
            rec = spans.Recorder()
            rec.install(vars(lib))
            traced = Meter(rec)
            # exactly the rounds timed untraced, so the overhead compares equal work
            run_rounds(traced_wl, traced, seconds=float("inf"), rounds=rounds)
            metrics = per_layer(rec, meter.busy, traced.busy)
            extra = {"traced_busy_s": (traced.busy, "s"), "untraced_busy_s": (meter.busy, "s"),
                     "spans": (len(rec.span_name), "count")}
            path = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
            rec.write(path)
            print(f"spans written to {path.relative_to(HERE.parent)}")
            attempted, failed = meter.attempted + traced.attempted, meter.failed + traced.failed
    except Exception as exc:
        # a failed check, or a call that raised where no fault is expected
        if isinstance(exc, CheckFailed):
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": meter.attempted, "failed": meter.failed, "metrics": {}}))
        return 1
    print(f"  rounds {rounds}  timed {meter.raw_busy:.3f} s ({meter.busy:.3f} s calibrated)"
          f"  samples {len(meter.samples)}  op_tail_ms is p{wl.tail_pct}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<44} {value:>16.6f} {unit}")
    print(f"  attempted {attempted}  failed {failed}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = {}
        if proc.returncode or not result.get("correct"):
            status = 1
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        print(f"  {name:<10} correct {result.get('correct')}  attempted {result.get('attempted')}"
              f"  failed {result.get('failed')}")
        for metric, m in result.get("metrics", {}).items():
            print(f"    {metric:<44} {m['value']:>16.6f} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
