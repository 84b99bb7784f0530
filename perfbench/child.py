"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/child.py '<job as JSON>'

The job names one call into alexq (`import`, `classify`, `cross_validate`)
or the oracle loop (`oracle`). The child times the import of alexq and the
call itself, checks what it can check locally, and prints one JSON object
on its last stdout line. With "trace" set in the job it records spans
through `tracing.Tracer` and writes them to the job's "trace_out" file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402

# One pair in about 30,000 at order 27 took over a minute (a non-isomorphic
# pair with equal fingerprints, for some labellings only). Pairs are stopped
# at this limit, so that a run ends within its time.
PAIR_LIMIT_S = 10.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for workers, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024  # ru_maxrss is in KiB on Linux


def report_digest(text: str) -> str:
    """sha256 of a JSON report with its `generated_by` line left out."""
    body = "".join(
        line
        for line in text.splitlines(keepends=True)
        if not line.lstrip().startswith('"generated_by":')
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _classify(job, alexq) -> dict:
    from alexq import cli

    with speed.Timer() as timer:
        report = alexq.classify.classify_order(
            job["order"], jobs=job["jobs"], cache_dir=job["cache_dir"]
        )
    text = cli.report_to_json(report)
    if job.get("report_out"):
        Path(job["report_out"]).write_text(text, encoding="utf-8")
    return {
        "call_s": timer.seconds,
        "raw_s": timer.raw,
        "totals": list(report.totals),
        "digest": report_digest(text),
        "carriers": len(report.per_group_counts),
    }


def _cross_validate(job, alexq) -> dict:
    with speed.Timer() as timer:
        result = alexq.classify.cross_validate(job["order"])
    return {
        "call_s": timer.seconds,
        "raw_s": timer.raw,
        "ok": bool(result.ok),
        "counts": [result.spec_count, result.class_count],
    }


# --- oracle pairs ----------------------------------------------------------


def _relabel(table, perm):
    """The table with every element x renamed perm[x]."""
    n = len(table)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        row = rows[perm[a]]
        src = table[a]
        for b in range(n):
            row[perm[b]] = perm[src[b]]
    return tuple(tuple(r) for r in rows)


def _is_isomorphism(f, t1, t2) -> bool:
    n = len(t1)
    if sorted(f) != list(range(n)):
        return False
    return all(f[t1[a][b]] == t2[f[a]][f[b]] for a in range(n) for b in range(n))


def _oracle_tables(report_path: str, alexq):
    """(class id, Cayley table) for every member listed in a JSON report."""
    from alexq.lambda_modules import parse_module_spec

    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    out = []
    for qc in report["classes"]:
        for member in qc["members"]:
            module = parse_module_spec(f"{member['group']}|{member['phi']}")
            out.append((qc["id"], alexq.quandle.alexander_table(module).table))
    return out


def _pair_stream(members_by_order, seed):
    """Endless seeded blocks of one pair per order.

    Even blocks pair two members of one class; odd blocks pair a member with
    a random member. Both tables of a pair are relabelled at random.
    """
    rng = random.Random(seed)
    orders = sorted(members_by_order)
    by_class = {
        n: _group_by_class(members) for n, members in members_by_order.items()
    }
    k = 0
    while True:
        for n in orders:
            members = members_by_order[n]
            cid_a, table_a = rng.choice(members)
            if k % 2 == 0:
                cid_b, table_b = rng.choice(by_class[n][cid_a])
            else:
                cid_b, table_b = rng.choice(members)
            pa = list(range(n))
            rng.shuffle(pa)
            pb = list(range(n))
            rng.shuffle(pb)
            yield n, cid_a == cid_b, _relabel(table_a, pa), _relabel(table_b, pb)
        k += 1


def _group_by_class(members):
    groups: dict[int, list] = {}
    for cid, table in members:
        groups.setdefault(cid, []).append((cid, table))
    return groups


def _oracle(job, alexq, tracer) -> dict:
    """Time brute_force_isomorphic on seeded pairs and check every verdict.

    Pairs come in blocks of one pair per order; untraced runs measure blocks
    until job["seconds"] have passed.
    """
    CayleyTable = alexq.quandle.CayleyTable
    if tracer is not None:
        tracer.install()
    with speed.Timer() as setup:
        members = {int(n): _oracle_tables(path, alexq) for n, path in job["reports"].items()}
    if tracer is not None:
        tracer.uninstall()

    stream = _pair_stream(members, job["seed"])
    samples = []  # (order, seconds, raw seconds, traced)
    failures = []
    attempted = over_limit = 0
    deadline = time.perf_counter() + job["seconds"]
    # trace runs follow a fixed plan instead: one traced flag per block
    plan = job.get("plan")
    while plan or (plan is None and time.perf_counter() < deadline):
        traced = plan.pop(0) if plan else False
        if traced:
            tracer.install()
        try:
            for _ in members:  # one pair of each order
                n, expect, ta, tb = next(stream)
                qa, qb = CayleyTable(ta), CayleyTable(tb)
                attempted += 1
                try:
                    with speed.Timer(limit=PAIR_LIMIT_S) as timer:
                        witness = alexq.quandle.brute_force_isomorphic(qa, qb)
                except speed.TimeLimit:
                    # kept as a sample at the limit; it has no verdict to check
                    over_limit += 1
                    samples.append((n, timer.seconds, timer.raw, traced))
                    continue
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    failures.append(f"order {n}: {type(exc).__name__}: {exc}")
                    continue
                samples.append((n, timer.seconds, timer.raw, traced))
                if (witness is not None) != expect:
                    failures.append(f"order {n}: oracle said {witness is not None}, classes say {expect}")
                elif witness is not None and not _is_isomorphism(witness, ta, tb):
                    failures.append(f"order {n}: witness is not an isomorphism")
        finally:
            if traced:
                tracer.uninstall()
    return {
        "setup_s": setup.seconds,
        "setup_raw_s": setup.raw,
        "attempted": attempted,
        "over_limit": over_limit,
        "samples": samples,
        "failures": failures,
    }


def _environment(alexq) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    kernels = getattr(alexq, "kernels", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": getattr(kernels, "BACKEND", None),
        "alexq": getattr(alexq, "__version__", None),
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    with speed.Timer() as timer:
        import alexq
        import alexq.classify
        import alexq.quandle

    src = Path(job["src"]).resolve()
    if src not in Path(alexq.__file__).resolve().parents:
        print(f"error: imported alexq from {alexq.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if job.get("trace") else None
    out: dict = {"import_s": timer.seconds, "import_raw_s": timer.raw}
    kind = job["kind"]
    if kind == "import":
        out["env"] = _environment(alexq)
    elif kind == "oracle":
        out.update(_oracle(job, alexq, tracer))
    elif kind in ("classify", "cross_validate"):
        run = _classify if kind == "classify" else _cross_validate
        if tracer is not None:
            tracer.install()
        try:
            out.update(run(job, alexq))
        finally:
            if tracer is not None:
                tracer.uninstall()
    else:
        print(f"error: unknown job kind {kind!r}", file=sys.stderr)
        return 2
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        if kind == "oracle":
            scaled = out["setup_s"] + sum(sample[1] for sample in out["samples"])
            raw = out["setup_raw_s"] + sum(sample[2] for sample in out["samples"])
        else:
            scaled, raw = out["call_s"], out["raw_s"]
        out["absent"] = tracer.absent
        # span times are scaled to the reference speed like the call times
        out["layers"] = tracing.layer_totals(tracer.spans, scaled / raw)
        Path(job["trace_out"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
