"""End-to-end benchmark of alexq: cold and warm classification, and the oracle.

    python3 perfbench/run.py --workload ladder-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; alexq is imported from ./src. One
closed-loop client runs one call at a time, each in a fresh interpreter
(perfbench/child.py), so a sample costs what one `alexq classify` costs a
user. No workload runs more than two processes at once.

Workloads (see perfbench/README.md for why each exists):

- ladder-cold: classify_order(16, 27, 48) and cross_validate(16, 27), each
  with a new empty cache directory, plus one pass of the ladder at jobs=2.
- ladder-warm: classify_order(16, 27, 48) with a cache filled during set-up.
- oracle-pairs: brute_force_isomorphic on seeded pairs of relabelled Cayley
  tables of class members of orders 16 and 27.

Times are scaled to a reference CPU speed (perfbench/speed.py), because
the machines this runs on share their cores.

Every report is checked against totals and digests recorded at the seed
commit, every oracle verdict against the classifier's class ids, and every
oracle witness is verified as an isomorphism of the two tables. With
--trace 1 the calls run once untraced and once with span tracing
(perfbench/tracing.py), and the per-layer metrics are printed instead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Details, per-call samples and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

LADDER = (16, 27, 48)
CROSS_VALIDATE_ORDERS = (16, 27)
# order 48 is left out: single order-48 pairs can take tens of seconds
ORACLE_ORDERS = (16, 27)
IMPORT_PROBES = 5
# short calls are the noisiest, so untraced passes repeat them
SHORT_REPEATS = [("classify", 16, 1)] * 2 + [("classify", 27, 1)]
# trace runs do a fixed amount of work: per-layer counts repeat exactly
WARM_TRACE_PASSES = 3
ORACLE_TRACE_BLOCKS = 60  # untraced and traced blocks of one pair per order
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s

# Report digests (sha256 of cli.report_to_json without its generated_by
# line) and totals, recorded at the seed commit. Order 16 has 9 connected
# classes, not the hand count of 8: the test suite shows three independent
# ways that 9 is right.
EXPECTED = {
    16: ((23, 9), "1d555ea55003abe755a7404462d27bfa2e602cc51db49dc28b21f1744287942d"),
    27: ((45, 30), "b4b8ae073c98a77300c982f8dd029bf977e6e80dc88977712690b4979178c8a2"),
    48: ((46, 9), "9df02ad9d7c0c1e53b0f4fb127cf94aada1b5c4fcaa8e4ce598bd1aaaecbded8"),
}
# (divisor chains, conjugacy classes) on (Z_p)^k; the two routes match one-to-one
CROSS_VALIDATE_COUNTS = {16: (14, 14), 27: (24, 24)}

END_TO_END_UNITS = {
    "order16_ms": "ms",
    "order27_ms": "ms",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
WORKLOADS = ("ladder-cold", "ladder-warm", "oracle-pairs")


class ChildError(Exception):
    pass


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.started = time.monotonic()
        self.out_dir = HERE / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=self.out_dir))
        self.attempted = 0
        self.failures: list[str] = []
        self.calls: list[dict] = []  # timed calls: kind, order, jobs, seconds, traced
        self.peak_rss_mb = 0.0
        self.env_info: dict = {}
        self.layers: dict[str, float] = {}
        self.absent: set[str] = set()
        self.spans: list[dict] = []
        self.traced_passes = 0
        self.over_limit = 0  # oracle pairs stopped at the child's PAIR_LIMIT_S
        env = dict(os.environ)
        env.pop("ALEXQ_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        env["PYTHONHASHSEED"] = "0"
        self.child_env = env

    # --- children ----------------------------------------------------------

    def spawn(self, job: dict) -> dict:
        """Run one child to completion and return its result object."""
        job = dict(job, src=str(self.root / "src"))
        if job.get("trace"):
            job["trace_out"] = str(self.work / f"spans-{len(self.spans)}.json")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 1:
            raise ChildError("out of time for this run")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=self.work,
            env=self.child_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildError(f"{job['kind']} timed out") from None
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            raise ChildError(f"{job['kind']} exited {proc.returncode}: {tail[0]}")
        result = json.loads(stdout.strip().splitlines()[-1])
        if job.get("trace"):
            self.absent.update(result["absent"])
            for key, value in result["layers"].items():
                self.layers[key] = self.layers.get(key, 0.0) + value
            path = Path(job["trace_out"])
            self.spans.append({"job": job, "spans": json.loads(path.read_text())})
            path.unlink()
        return result

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def record(self, kind: str, order: int, jobs: int, seconds: float, raw: float,
               traced: bool) -> None:
        self.calls.append(
            {"kind": kind, "order": order, "jobs": jobs, "s": seconds, "raw_s": raw,
             "traced": traced}
        )

    # --- operations --------------------------------------------------------

    def classify(self, order: int, jobs: int, cache_dir: Path | None = None,
                 traced: bool = False, report_out: Path | None = None) -> dict | None:
        """One checked classify_order call.

        cache_dir None runs cold in a new empty directory that is removed
        afterwards. A cold call must miss the cache on every carrier and
        store each one; a warm call must find every carrier stored.
        """
        cold = cache_dir is None or not cache_dir.exists()
        temporary = cache_dir is None
        if temporary:
            cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        before = sorted(cache_dir.glob("carrier-*.json"))
        what = f"classify_order({order}, jobs={jobs}, {'cold' if cold else 'warm'})"
        try:
            result = self.spawn(
                {
                    "kind": "classify",
                    "order": order,
                    "jobs": jobs,
                    "cache_dir": str(cache_dir),
                    "trace": traced,
                    "report_out": str(report_out) if report_out else None,
                }
            )
        except ChildError as exc:
            self.check(False, f"{what}: {exc}")
            return None
        after = sorted(cache_dir.glob("carrier-*.json"))
        if temporary:
            shutil.rmtree(cache_dir, ignore_errors=True)
        totals, digest = EXPECTED[order]
        carriers = result["carriers"]
        problems = []
        if tuple(result["totals"]) != totals:
            problems.append(f"totals {result['totals']} != {list(totals)}")
        if result["digest"] != digest:
            problems.append("report digest differs from the seed commit")
        if cold and (before or len(after) != carriers):
            problems.append(f"cold cache held {len(before)} entries, then {len(after)}, for {carriers} carriers")
        if not cold and (len(before) != carriers or after != before):
            problems.append(f"warm cache held {len(before)} entries for {carriers} carriers")
        self.check(not problems, f"{what}: {'; '.join(problems)}")
        return result

    def cross_validate(self, order: int, traced=False) -> dict | None:
        what = f"cross_validate({order})"
        try:
            result = self.spawn({"kind": "cross_validate", "order": order, "trace": traced})
        except ChildError as exc:
            self.check(False, f"{what}: {exc}")
            return None
        counts = tuple(result["counts"])
        self.check(
            result["ok"] and counts == CROSS_VALIDATE_COUNTS[order],
            f"{what}: ok={result['ok']}, counts {counts}",
        )
        return result

    def timed(self, op: tuple, traced: bool = False, cache_dir: Path | None = None) -> None:
        kind, order, jobs = op
        if kind == "classify":
            result = self.classify(order, jobs, cache_dir, traced)
        else:
            result = self.cross_validate(order, traced)
        if result is not None:
            self.record(kind, order, jobs, result["call_s"], result["raw_s"], traced)
            self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])

    # --- set-up and workloads ----------------------------------------------

    def import_probes(self) -> float:
        """Median child import time of alexq over several fresh interpreters."""
        times = []
        for _ in range(IMPORT_PROBES):
            result = self.spawn({"kind": "import"})
            times.append(result["import_s"])
            self.env_info = result["env"]
        return statistics.median(times)

    def fill(self, caches: dict[int, Path], reports: dict[int, Path] | None = None) -> float:
        """Cold-classify each order into caches[order]; returns the call time.

        With `reports`, each order's JSON report is written to reports[order].
        """
        spent = 0.0
        for order in caches:
            report = reports[order] if reports else None
            result = self.classify(order, 1, caches[order], report_out=report)
            if result is None:
                raise ChildError(f"set-up classification of order {order} failed")
            spent += result["call_s"]
        return spent

    def passes(self, ops: list[tuple], caches: dict[int, Path] | None = None,
               trace_passes: int = 1) -> None:
        """Closed loop over shuffled passes of ops until the time is up.

        With `caches`, each classify call uses the filled cache of its order.
        A trace run makes `trace_passes` passes instead, each call once
        untraced and then once traced.
        """
        deadline = time.monotonic() + self.seconds
        while True:
            order = list(ops)
            self.rng.shuffle(order)
            for op in order:
                cache_dir = caches[op[1]] if caches else None
                for traced in (False, True) if self.trace else (False,):
                    self.timed(op, traced, cache_dir)
            if self.trace:
                self.traced_passes += 1
                if self.traced_passes >= trace_passes:
                    return
            elif time.monotonic() >= deadline:
                return

    def run(self) -> float:
        """Set up and run the workload; returns the set-up time."""
        setup_s = self.import_probes()
        ladder = [("classify", n, 1) for n in LADDER]
        if self.workload == "ladder-cold":
            ops = ladder + [("cross_validate", n, 1) for n in CROSS_VALIDATE_ORDERS]
            if not self.trace:
                # spans from worker processes are lost, so trace runs skip jobs=2
                ops += SHORT_REPEATS + [("classify", n, 2) for n in LADDER]
            self.passes(ops)
        elif self.workload == "ladder-warm":
            caches = {n: self.work / f"warm-cache-{n}" for n in LADDER}
            setup_s += self.fill(caches)
            ops = ladder if self.trace else ladder + SHORT_REPEATS
            self.passes(ops, caches, trace_passes=WARM_TRACE_PASSES)
        else:
            setup_s += self.oracle()
        return setup_s

    def oracle(self) -> float:
        """Oracle pairs; returns the set-up time spent on classification and tables."""
        reports = {n: self.work / f"report-{n}.json" for n in ORACLE_ORDERS}
        spent = self.fill({n: self.work / f"oracle-cache-{n}" for n in ORACLE_ORDERS}, reports)
        job = {
            "kind": "oracle",
            "reports": {str(n): str(p) for n, p in reports.items()},
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
        }
        if self.trace:
            # blocks alternate same-class and random pairs, so each traced
            # stretch of two blocks has one of each
            job["plan"] = [t for _ in range(ORACLE_TRACE_BLOCKS // 2) for t in (False, False, True, True)]
            self.traced_passes = 1
        result = self.spawn(job)
        for order, seconds, raw, traced in result["samples"]:
            self.record("oracle_pair", order, 1, seconds, raw, traced)
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        self.over_limit = result["over_limit"]
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
        return spent + result["setup_s"]

    # --- metrics -----------------------------------------------------------

    def samples(self, kind: str, order: int | None = None, jobs: int = 1) -> list[float]:
        """Untraced call times of one kind, at one order or all of them."""
        return [
            c["s"]
            for c in self.calls
            if c["kind"] == kind
            and (order is None or c["order"] == order)
            and c["jobs"] == jobs
            and not c["traced"]
        ]

    def metrics(self) -> dict:
        kinds = sorted({(c["kind"], c["order"], c["jobs"]) for c in self.calls})
        medians = {k: statistics.median(self.samples(*k)) for k in kinds}
        main_kind = "oracle_pair" if self.workload == "oracle-pairs" else "classify"
        out = {}
        for order in ORACLE_ORDERS:
            if (main_kind, order, 1) not in medians:
                raise ChildError(f"no successful {main_kind} sample at order {order}")
            out[f"order{order}_ms"] = medians[main_kind, order, 1] * 1000
        out["pass_s"] = sum(medians.values())
        out["peak_rss_mb"] = self.peak_rss_mb
        return out

    def details(self) -> dict:
        """The named figures of perfbench/README.md, for people to read."""
        d = {"slowdown": statistics.median(c["raw_s"] / c["s"] for c in self.calls)}
        if self.workload == "oracle-pairs":
            values = sorted(self.samples("oracle_pair"))
            pct, tail = tail_percentile(values)
            d["oracle_pair_p50_ms"] = statistics.median(values) * 1000
            d[f"oracle_pair_tail_ms (p{pct:g} of {len(values)})"] = tail * 1000
            d["oracle_pairs_per_s"] = len(values) / sum(values)
            d["oracle_pairs_over_limit"] = self.over_limit
            for order in ORACLE_ORDERS:
                v = self.samples("oracle_pair", order)
                d[f"oracle_pair_{order}_p50_ms"] = statistics.median(v) * 1000
            return d
        for order in LADDER:
            v = self.samples("classify", order)
            d[f"classify_{order}_s"] = statistics.median(v) if v else None
        for order in CROSS_VALIDATE_ORDERS:
            v = self.samples("cross_validate", order)
            if v:
                d[f"cross_validate_{order}_s"] = statistics.median(v)
        jobs2 = [self.samples("classify", n, jobs=2) for n in LADDER]
        if all(jobs2):
            d["ladder_jobs2_s"] = sum(statistics.median(v) for v in jobs2)
        return d

    def trace_metrics(self) -> dict:
        """Per-layer metrics per traced pass (oracle-pairs: set-up and all blocks)."""
        passes = self.traced_passes
        out = tracing.finish({k: v / passes for k, v in self.layers.items()})
        untraced = sum(c["s"] for c in self.calls if not c["traced"]) / passes
        traced = sum(c["s"] for c in self.calls if c["traced"]) / passes
        out["bench.untraced_s"] = untraced
        out["bench.traced_s"] = traced
        out["bench.trace_overhead_s"] = traced - untraced
        return out


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(sorted_values)
    for pct in range(99, 0, -1):
        idx = min(n - 1, int(n * pct / 100))
        if n - idx - 1 >= 10:
            return float(pct), sorted_values[idx]
    return 100.0, sorted_values[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "alexq" / "__init__.py").is_file():
        print("error: run from the root of an alexq checkout (no src/alexq here)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        try:
            setup_s = bench.run()
            if args.trace:
                units = tracing.layer_metric_units()
                values = bench.trace_metrics()
                details = {}
            else:
                units = END_TO_END_UNITS
                values = dict(bench.metrics(), setup_s=setup_s)
                details = bench.details()
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": bench.env_info,
            "absent_layers": sorted(bench.absent),
            "metrics": values,
            "details": details,
            "failures": bench.failures,
            "calls": bench.calls,
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (bench.out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            (bench.out_dir / f"spans-{stem}.json").write_text(json.dumps(bench.spans))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    env = bench.env_info
    print(f"# {args.workload} seed={args.seed} nproc={env.get('nproc')} "
          f"python={env.get('python')} numpy={env.get('numpy')} backend={env.get('backend')}")
    if bench.absent:
        print(f"# absent layers: {', '.join(sorted(bench.absent))}")
    for failure in bench.failures[:20]:
        print(f"# FAILED: {failure}")
    for name, value in {**details, **values}.items():
        unit = units.get(name, "")
        print(f"{name:<40} {value!s:>22} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
