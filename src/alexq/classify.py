"""End-to-end classification of Alexander quandles of a given order.

For every abelian carrier of the order and every conjugacy class of its
automorphism group, the pipeline computes the image module of 1 - t.
Structures of one order are isomorphic exactly when their images are
isomorphic modules, and `canonical_label` is equal exactly for isomorphic
modules. So structures are merged by the label of their image, and each
label names one isomorphism class of quandles. Each carrier labels its
distinct images right after its conjugacy partition is built. A connected
image's fallback label reads that cached partition; a smaller image's
carrier (e.g. `2,4` for order-16 images on `4,4`) is partitioned anew.

Per-carrier results (conjugacy representatives, their images and the
images' labels) are cached on disk as JSON keyed by carrier, code version
and a digest of the package's source files, so an entry written by other
code is recomputed; a warm run parses the entries and does no work on
Aut. ALEXQ_CACHE overrides the default ./.alexq-cache directory and entries
are safe to delete.

Every carrier reaches the merge through `_carrier_triples`, which reads and
extends one table per process and run: image spec -> (image, label), for
every image met so far. So a process labels each distinct image once and
parses each distinct cached image spec once, whether it met the image in a
carrier it classified or in a cache entry. With `jobs` > 1 the carriers are
dealt, heaviest first, into one share per process; the calling process runs
the share with the heaviest carrier and forked children run the others. A
child hands its carriers back through the cache alone: the caller reads
each of them from there, and classifies one the child left no entry for.
Where `os.fork` does not exist or the cache directory cannot be written,
the run is serial.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import tempfile
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from ._version import __version__
from .abelian import AbelianGroup, _prime_factorization, enumerate_groups
from .autgroup import (
    ENUMERATION_BUDGET,
    Automorphism,
    _automorphism_perms,
    _candidate_count,
    _check_budget,
    _check_table_budget,
    conjugacy_representatives,
    parse_phi_spec,
)
from .errors import ConsistencyError
from .lambda_modules import (
    LambdaModule,
    canonical_label,
    image_one_minus_t,
    is_lambda_isomorphic,
    parse_module_spec,
)
from . import polymod
from .quandle import alexander_table, brute_force_isomorphic, orbits

Member = tuple[AbelianGroup, Automorphism]
# (representative, image of 1 - t, canonical label of the image)
Triple = tuple[Automorphism, LambdaModule, str]
# image spec -> (image, label): every image a process has met in a run
ImageTable = dict[str, tuple[LambdaModule, str]]


@dataclass(frozen=True)
class QuandleClass:
    """One isomorphism class, named by its image module."""

    id: int
    image_label: str
    image: LambdaModule
    connected: bool
    members: tuple[Member, ...]


@dataclass(frozen=True)
class ClassificationReport:
    order: int
    classes: tuple[QuandleClass, ...]
    per_group_counts: dict[str, int]
    totals: tuple[int, int]  # (classes, connected)


# --- per-carrier work and its cache --------------------------------------


@functools.cache
def _source_digest() -> str:
    """sha256 over this package's *.py files, sorted by name.

    Stored in every cache entry and checked on load, so a code change
    without a version bump cannot serve entries computed by other code.
    Read on first cache access, not at import; hashlib is imported here
    for the same reason, as it is slow to load.
    """
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _cache_path(cache_dir: Path, carrier: AbelianGroup) -> Path:
    name = carrier.spec().replace(",", "-")
    return cache_dir / f"carrier-{name}-v{__version__}.json"


_CACHED_LISTS = ("reps", "images", "labels")  # aligned, one item per class


def _load_cached(path: Path, carrier: AbelianGroup, table: ImageTable) -> list[Triple] | None:
    """Cached (representative, image, label) triples, or None.

    None when the entry is missing, stale, unparseable or of the wrong shape.
    An image spec that `table` or an earlier triple of the entry holds reuses
    that image, so only new specs are parsed; each triple keeps its entry's
    label. `table` learns the entry's images and labels only once the whole
    entry has parsed, so a rejected entry adds nothing to it.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if (
            not isinstance(payload, dict)
            or payload.get("carrier") != carrier.spec()
            or payload.get("version") != __version__
            or payload.get("source") != _source_digest()
            or not all(isinstance(payload.get(k), list) for k in _CACHED_LISTS)
            or len({len(payload[k]) for k in _CACHED_LISTS}) != 1
            or not all(isinstance(label, str) for label in payload["labels"])
        ):
            return None
        learned: ImageTable = {}
        triples = []
        for rep_spec, spec, label in zip(payload["reps"], payload["images"], payload["labels"]):
            known = learned.get(spec) or table.get(spec)
            image = known[0] if known else parse_module_spec(spec)
            learned[spec] = image, label
            triples.append((parse_phi_spec(carrier, rep_spec), image, label))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    table.update(learned)
    return triples


def _store_cached(path: Path, payload: dict) -> None:
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        Path(tmp).write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        # caching is best effort: an unusable cache directory (say, a path
        # that names a regular file) only skips the write
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _carrier_triples(
    factors: tuple[int, ...], cache_dir: str | None, table: ImageTable
) -> list[Triple]:
    """Conjugacy representatives, their images and the images' labels.

    `table` maps the spec of every image this process has met in this run
    to the image and its label. A cache entry's images are parsed once per
    distinct spec (`_load_cached`); a computed image whose spec is there is
    not labelled again, and every triple returned, computed or read from
    the cache, is added to it, so a process labels each distinct image
    once. A new image is labelled right after the carrier's partition is
    built, so a fallback label's least conjugate reads that partition from
    `_conjugacy`'s cache. The JSON cache stores the triples as strings, and
    is how a forked child's triples reach the caller.
    """
    carrier = AbelianGroup(factors)
    path = _cache_path(resolve_cache_dir(cache_dir), carrier)
    cached = _load_cached(path, carrier, table)
    if cached is not None:
        return cached
    reps = conjugacy_representatives(carrier)
    images = [image_one_minus_t(LambdaModule(carrier, rep)) for rep in reps]
    specs = [image.spec() for image in images]
    for spec, image in zip(specs, images):
        if spec not in table:
            table[spec] = image, canonical_label(image)
    payload = {
        "carrier": carrier.spec(),
        "version": __version__,
        "source": _source_digest(),
        "reps": [rep.spec() for rep in reps],
        "images": specs,
        "labels": [table[spec][1] for spec in specs],
    }
    _store_cached(path, payload)
    return list(zip(reps, images, payload["labels"]))


def resolve_cache_dir(cache_dir: str | None) -> Path:
    return Path(cache_dir or os.environ.get("ALEXQ_CACHE") or ".alexq-cache")


# --- merging --------------------------------------------------------------


def per_carrier_counts(
    carrier_specs: Iterable[str], classes: Iterable[QuandleClass]
) -> dict[str, int]:
    """For each carrier spec, in the given order, the classes with a member on it."""
    on = Counter(spec for qc in classes for spec in {g.spec() for g, _ in qc.members})
    return {spec: on[spec] for spec in carrier_specs}


def _shares(carriers: tuple[AbelianGroup, ...], workers: int) -> list[list[AbelianGroup]]:
    """The carriers dealt into `workers` shares of about equal cost.

    Heaviest first, each carrier goes to the share with the least cost so
    far (longest processing time first; Graham, SIAM J. Appl. Math. 17,
    1969), so share 0 holds the heaviest. The cost is the enumeration's
    candidate count; a carrier over ENUMERATION_BUDGET costs 0, as it fails
    at its guard at once. Each share keeps the carriers' given order.
    """

    def cost(G: AbelianGroup) -> int:
        count = _candidate_count(G)
        return count if count <= ENUMERATION_BUDGET else 0

    shares: list[list[AbelianGroup]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for G in sorted(carriers, key=cost, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest].append(G)
        loads[lightest] += cost(G)
    position = {G: i for i, G in enumerate(carriers)}
    return [sorted(share, key=position.__getitem__) for share in shares]


@contextlib.contextmanager
def _forked(shares: list[list[AbelianGroup]], cache_dir: str | None):
    """Fork one child per share, which classifies it into the cache; reap them on exit.

    A child stops at its share's first failure and leaves through os._exit,
    so it runs no handler or buffer flush inherited from the caller. If
    anything escapes the body (say, KeyboardInterrupt), the children are
    killed before they are reaped.
    """
    if not shares:
        yield
        return
    import signal  # imported here, not at import: a serial run does not need it

    _source_digest()  # hashed once here, so the children inherit it
    pids: list[int] = []
    try:
        for share in shares:
            pid = os.fork()
            if pid == 0:
                try:
                    table: ImageTable = {}  # the child's own, for its run
                    for G in share:
                        _carrier_triples(G.factors, cache_dir, table)
                finally:
                    os._exit(0)
            pids.append(pid)
        yield
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cache_writable(cache_dir: Path) -> bool:
    """Whether a file can be made in cache_dir, which is created if missing."""
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=cache_dir):
            return True
    except OSError:
        return False


def classify_order(
    order: int, *, jobs: int = 1, cache_dir: str | None = None
) -> ClassificationReport:
    """Classify every Alexander quandle structure of the given order.

    `jobs` counts the processes that work at once, this one included, and
    at most one per carrier. With `jobs` > 1 the carriers are dealt,
    heaviest first, into shares of about equal cost; this process runs the
    share with the heaviest carrier and forked children run the others. A
    child's carriers come back through the cache: the merge reads each one
    there, or classifies it here if the child left no entry (it died,
    failed or could not write). Where `os.fork` does not exist or the cache
    directory cannot be written, the run is serial, so no carrier is
    classified twice. The budget guards of every carrier run first, so a
    carrier over budget raises before any carrier is classified or cached.
    This process stops its own share at its first failure and the merge,
    which runs in carrier order, classifies that carrier again, so the
    error raised is the first in carrier order, as in a serial run. The
    merge is a deterministic reduction, so reports are identical for any
    job count.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    carriers = enumerate_groups(order)
    # both guards of every carrier, in the order `_conjugacy` runs them,
    # before any carrier is classified, cached or forked
    for G in carriers:
        _check_budget(G)
        _check_table_budget(G)
    # a child hands its carriers back through the cache alone, so without a
    # writable cache the caller would redo the children's work
    workers = min(jobs, len(carriers))
    if workers > 1 and not (
        hasattr(os, "fork") and _cache_writable(resolve_cache_dir(cache_dir))
    ):
        workers = 1
    shares = _shares(carriers, workers)
    table: ImageTable = {}
    done: dict[tuple[int, ...], list[Triple]] = {}
    with _forked(shares[1:], cache_dir):
        for G in shares[0]:
            try:
                done[G.factors] = _carrier_triples(G.factors, cache_dir, table)
            except Exception:  # noqa: BLE001 - classified again, and raised, in carrier order
                break

    # a carrier not done here is a cache hit, or is classified here if its
    # child left no entry; label -> (first image seen, members), and equal
    # labels are isomorphic images. Members arrive sorted: carriers by
    # (rank, factors), and each carrier's in its representatives' order
    classes: dict[str, tuple[LambdaModule, list[Member]]] = {}
    for G in carriers:
        if G.factors in done:
            triples = done[G.factors]
        else:
            triples = _carrier_triples(G.factors, cache_dir, table)
        for rep, image, label in triples:
            classes.setdefault(label, (image, []))[1].append((G, rep))

    ordered = sorted(classes.items(), key=lambda item: (item[1][0].order, item[0]))
    quandle_classes = tuple(
        QuandleClass(
            id=i + 1,
            image_label=label,
            image=image,
            connected=image.order == order,
            members=tuple(members),
        )
        for i, (label, (image, members)) in enumerate(ordered)
    )
    per_group_counts = per_carrier_counts([G.spec() for G in carriers], quandle_classes)
    totals = (len(quandle_classes), sum(1 for qc in quandle_classes if qc.connected))
    return ClassificationReport(
        order=order,
        classes=quandle_classes,
        per_group_counts=per_group_counts,
        totals=totals,
    )


# --- route cross-validation ----------------------------------------------


@dataclass(frozen=True)
class CrossValidation:
    order: int
    p: int
    k: int
    spec_count: int
    class_count: int
    ok: bool
    detail: str
    matching: tuple[tuple[str, str], ...]  # (polynomial chain, representative)


def _prime_power(order: int) -> tuple[int, int] | None:
    factorization = _prime_factorization(order)
    if len(factorization) != 1:
        return None
    ((p, k),) = factorization.items()
    return p, k


def cross_validate(order: int) -> CrossValidation:
    """Check the two routes agree on the elementary abelian carrier.

    The polynomial divisor chains and the conjugacy-class representatives
    each enumerate all module structures on (Z_p)^k up to isomorphism. Each
    representative's chain is read by `polymod.divisor_chain` and confirmed
    by one witness against `build` of it; the routes agree when the chains
    are distinct and are exactly the ones `enumerate_specs` lists.
    """
    pk = _prime_power(order)
    if pk is None:
        raise ValueError(f"cross-validation needs a prime power order, got {order}")
    p, k = pk
    G = AbelianGroup((p,) * k)
    reps = conjugacy_representatives(G)
    specs = polymod.enumerate_specs(p, k)

    owner: dict[polymod.PolySpec, Automorphism] = {}  # chain -> its representative

    def result(ok: bool, detail: str) -> CrossValidation:
        matching = tuple((str(s), owner[s].spec()) for s in specs if s in owner)
        return CrossValidation(order, p, k, len(specs), len(reps), ok, detail, matching)

    for rep in reps:
        M = LambdaModule(G, rep)
        spec = polymod.divisor_chain(M)
        if is_lambda_isomorphic(polymod.build(spec), M) is None:
            return result(False, f"representative {rep.spec()} does not match its chain {spec}")
        if spec in owner:
            return result(
                False,
                f"representatives {owner[spec].spec()} and {rep.spec()} share the chain {spec}",
            )
        owner[spec] = rep
    surplus = Counter(specs) - Counter(owner.keys())  # listed twice, or the chain of no class
    missing = Counter(owner.keys()) - Counter(specs)  # the chain of a class, not listed
    if surplus or missing:
        return result(
            False,
            f"{surplus.total()} listed chains are repeated or match no class, "
            f"{missing.total()} class chains are not listed "
            f"(first: {next(iter(surplus or missing))})",
        )
    return result(True, f"{len(specs)} chains matched {len(reps)} classes one-to-one")


# --- small-order sweep with oracle validation ------------------------------

ORACLE_VALIDATION_MAX_ORDER = 15


def oracle_class_counts(order: int) -> tuple[int, int]:
    """(classes, connected) by partitioning all Cayley tables of the order.

    Independent of the image criterion: every structure's table is compared
    against the class representatives with the brute-force oracle. Aut is
    walked in search order, as the counts do not depend on the order.
    """
    reps = []
    connected = []
    for G in enumerate_groups(order):
        for perm in _automorphism_perms(G):
            Q = alexander_table(LambdaModule(G, Automorphism._from_perm(G, perm)))
            for R in reps:
                if brute_force_isomorphic(Q, R) is not None:
                    break
            else:
                reps.append(Q)
                connected.append(len(orbits(Q)) == 1)
    return len(reps), sum(connected)


def classify_range(
    lo: int, hi: int, *, jobs: int = 1, cache_dir: str | None = None
) -> tuple[tuple[int, int, int], ...]:
    """(order, classes, connected) for each order in [lo, hi].

    Orders up to ORACLE_VALIDATION_MAX_ORDER (15) are additionally
    re-counted with the table-level oracle over every automorphism; a
    disagreement raises ConsistencyError.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    results = []
    for order in range(lo, hi + 1):
        report = classify_order(order, jobs=jobs, cache_dir=cache_dir)
        n_classes, n_connected = report.totals
        if order <= ORACLE_VALIDATION_MAX_ORDER:
            oracle_counts = oracle_class_counts(order)
            if oracle_counts != (n_classes, n_connected):
                raise ConsistencyError(
                    f"order {order}: classifier found {report.totals}, "
                    f"oracle found {oracle_counts}"
                )
        results.append((order, n_classes, n_connected))
    return tuple(results)
