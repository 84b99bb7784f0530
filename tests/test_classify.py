import contextlib
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import alexq

from alexq import autgroup, kernels, polymod
from alexq.abelian import AbelianGroup, _elementary_prime, _prime_factorization, enumerate_groups
from alexq.autgroup import conjugacy_representatives
from alexq.classify import (
    ORACLE_VALIDATION_MAX_ORDER,
    ClassificationReport,
    QuandleClass,
    _cache_path,
    _load_cached,
    _source_digest,
    classify_order,
    classify_range,
    cross_validate,
    oracle_class_counts,
    resolve_cache_dir,
)
from alexq.cli import report_to_json
from alexq.errors import ConsistencyError, EnumerationBudgetError
from alexq.lambda_modules import (
    LambdaModule,
    canonical_label,
    image_one_minus_t,
    is_lambda_isomorphic,
)
from alexq.quandle import alexander_table, brute_force_isomorphic, orbits

from helpers import clear_carrier_caches, conjugacy_class_sizes, enumerate_automorphisms


@pytest.fixture
def forks(monkeypatch):
    """Records each os.fork, then forks. Per fork it records whether the
    source digest was already hashed."""
    made = []
    fork = os.fork

    def recording():
        made.append(_source_digest.cache_info().currsize)
        return fork()

    monkeypatch.setattr(os, "fork", recording)
    return made


@pytest.fixture(scope="module")
def report16(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache16")
    return classify_order(16, cache_dir=str(cache))


class TestClassifyOrder:
    def test_order_one(self):
        report = classify_order(1)
        assert report.totals == (1, 1)
        assert report.classes[0].image_label == "0"
        assert report.classes[0].connected

    def test_order_4_matches_oracle(self):
        report = classify_order(4)
        assert report.totals == oracle_class_counts(4)

    def test_order_16_totals(self, report16):
        # The classical hand count for order 16 is (23, 8); the extra
        # connected class is genuine: Aut(Z4+Z4) = GL(2, Z/4) has 14
        # conjugacy classes (cross-checked against raw matrices in
        # test_autgroup), and the one missing from the hand count, t with
        # e1 -> (0,1), e2 -> (1,3), satisfies det(1 - t) = 1 mod 4.
        assert report16.totals == (23, 9)

    def test_order_16_per_group_counts(self, report16):
        assert report16.per_group_counts == {
            "16": 5,
            "2,8": 5,
            "4,4": 10,
            "2,2,4": 7,
            "2,2,2,2": 14,
        }

    def test_classes_sorted_and_ids_sequential(self, report16):
        keys = [(qc.image.order, qc.image_label) for qc in report16.classes]
        assert keys == sorted(keys)
        assert [qc.id for qc in report16.classes] == list(range(1, 24))

    def test_connected_iff_image_has_full_order(self, report16):
        for qc in report16.classes:
            assert qc.connected == (qc.image.order == 16)

    def test_every_structure_counted_once(self, report16):
        # sum of merged conjugacy-class sizes equals the total number of
        # automorphisms over all carriers
        sizes = {}
        for G in enumerate_groups(16):
            reps = conjugacy_representatives(G)
            for rep, size in zip(reps, conjugacy_class_sizes(G)):
                sizes[(G.factors, rep.images)] = size
        counted = 0
        seen = set()
        for qc in report16.classes:
            for G, rep in qc.members:
                key = (G.factors, rep.images)
                assert key not in seen
                seen.add(key)
                counted += sizes.pop(key)
        assert not sizes
        assert counted == sum(
            len(enumerate_automorphisms(G)) for G in enumerate_groups(16)
        )

    def test_members_within_class_share_image_up_to_iso(self):
        from alexq.lambda_modules import (
            LambdaModule,
            image_one_minus_t,
            is_lambda_isomorphic,
        )

        report = classify_order(8)
        for qc in report.classes:
            for G, rep in qc.members:
                img = image_one_minus_t(LambdaModule(G, rep))
                assert is_lambda_isomorphic(img, qc.image) is not None

    def test_table_oracle_reproduces_order_16(self, report16):
        """The module-blind oracle partitions all 59 members like the report."""
        assert_oracle_partition(report16, members=59, classes=23, connected=9)

    def test_table_oracle_reproduces_order_27(self, tmp_path):
        """The module-blind oracle partitions all 62 members like the report."""
        report = classify_order(27, cache_dir=str(tmp_path))
        assert_oracle_partition(report, members=62, classes=45, connected=30)

    def test_order_8_soundness_against_oracle(self):
        report = classify_order(8)
        tables = {}
        for qc in report.classes:
            from alexq.lambda_modules import LambdaModule

            tables[qc.id] = [
                alexander_table(LambdaModule(G, rep)) for G, rep in qc.members
            ]
        # members of one class are oracle-isomorphic
        for qid, ts in tables.items():
            for other in ts[1:]:
                assert brute_force_isomorphic(ts[0], other) is not None
        # representatives of distinct classes are not
        ids = sorted(tables)
        for i, qa in enumerate(ids):
            for qb in ids[i + 1 :]:
                assert brute_force_isomorphic(tables[qa][0], tables[qb][0]) is None


def assert_oracle_partition(report, *, members: int, classes: int, connected: int) -> None:
    """The oracle splits the report's members into exactly its classes."""
    tables = [
        (qc.id, alexander_table(LambdaModule(G, rep)))
        for qc in report.classes
        for G, rep in qc.members
    ]
    assert len(tables) == members
    oracle_reps: list[int] = []  # member index of each oracle class
    pairs = set()  # (report class id, oracle class)
    for i, (qid, Q) in enumerate(tables):
        cls = next(
            (
                c
                for c, j in enumerate(oracle_reps)
                if brute_force_isomorphic(tables[j][1], Q) is not None
            ),
            None,
        )
        if cls is None:
            cls = len(oracle_reps)
            oracle_reps.append(i)
        pairs.add((qid, cls))
    # equal partitions: the (report id, oracle class) pairs are a bijection
    assert len(oracle_reps) == len(pairs) == len(report.classes) == classes
    is_connected = [len(orbits(tables[j][1])) == 1 for j in oracle_reps]
    assert sum(is_connected) == connected
    by_id = {qc.id: qc.connected for qc in report.classes}
    assert all(by_id[qid] == is_connected[cls] for qid, cls in pairs)


class TestDeterminismAndCache:
    def test_repeat_runs_identical(self, tmp_path):
        r1 = classify_order(8, cache_dir=str(tmp_path / "a"))
        r2 = classify_order(8, cache_dir=str(tmp_path / "b"))
        assert r1 == r2

    def test_parallel_jobs_identical(self, tmp_path):
        r1 = classify_order(8, jobs=1, cache_dir=str(tmp_path / "a"))
        r2 = classify_order(8, jobs=2, cache_dir=str(tmp_path / "c"))
        assert r1 == r2

    @pytest.mark.parametrize("order, jobs, workers", [(16, 8, 5), (16, 2, 2), (8, 8, 3)])
    def test_forks_are_capped_at_the_carrier_count(self, order, jobs, workers, forks, tmp_path):
        # jobs counts the calling process too, so it forks one child fewer
        report = classify_order(order, jobs=jobs, cache_dir=str(tmp_path / "a"))
        assert len(forks) == workers - 1
        assert report == classify_order(order, cache_dir=str(tmp_path / "b"))

    @pytest.mark.parametrize("order", [7, 30])
    def test_one_carrier_runs_serially(self, order, forks, tmp_path):
        assert len(enumerate_groups(order)) == 1
        report = classify_order(order, jobs=4, cache_dir=str(tmp_path / "a"))
        assert forks == []
        assert report == classify_order(order, cache_dir=str(tmp_path / "b"))

    def test_source_digest_is_hashed_before_the_first_fork(self, forks, tmp_path):
        _source_digest.cache_clear()
        classify_order(8, jobs=2, cache_dir=str(tmp_path))
        assert forks == [1]

    def test_without_fork_jobs_run_serially(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        report = classify_order(16, jobs=2, cache_dir=str(tmp_path / "a"))
        assert _report_digest(report) == GOLDEN_REPORT_SHA256[16]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs, tmp_path):
        with pytest.raises(ValueError, match="jobs must be positive"):
            classify_order(4, jobs=jobs, cache_dir=str(tmp_path))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "order, message",
        [
            # nine carriers of 64 in budget come before 2,2,2,2,4
            (64, "enumerating automorphisms of 2,2,2,2,4 needs 67108864 candidate"),
            # Z_4098 is in the candidate budget, but its table is not
            (4098, "the addition table of 4098 has 16793604 entries"),
            # Z_2^25 is over both; the candidate guard runs first
            (2**25, "enumerating automorphisms of 33554432 needs 33554432 candidate"),
            # four carriers of 625 in budget, 5,5,25 with 9765625 candidates
            # among them, come before 5,5,5,5, whose scan is over the budget
            (625, "scanning 5,5,5,5 for least class members needs 244140625 candidate"),
        ],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_guards_run_before_any_carrier_is_classified(
        self, order, message, jobs, forks, monkeypatch, tmp_path
    ):
        classified = []
        monkeypatch.setattr(
            alexq.classify, "_carrier_triples", lambda *args: classified.append(args)
        )
        with pytest.raises(EnumerationBudgetError, match=f"^{message}"):
            classify_order(order, jobs=jobs, cache_dir=str(tmp_path))
        assert classified == []
        assert forks == []
        assert not any(tmp_path.iterdir())

    def test_cache_files_created_and_reused(self, tmp_path):
        cache = tmp_path / "cache"
        classify_order(8, cache_dir=str(cache))
        files = sorted(p.name for p in cache.iterdir())
        assert any("carrier-8-" in name for name in files)
        # second run must load cleanly from cache
        report = classify_order(8, cache_dir=str(cache))
        assert report.totals == oracle_class_counts(8)

    def test_corrupt_cache_is_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        r1 = classify_order(8, cache_dir=str(cache))
        for p in cache.iterdir():
            p.write_text("{not json", encoding="utf-8")
        r2 = classify_order(8, cache_dir=str(cache))
        assert r1 == r2

    def test_version_mismatch_is_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        r1 = classify_order(4, cache_dir=str(cache))
        for p in cache.iterdir():
            payload = json.loads(p.read_text())
            payload["version"] = "0.0.0"
            p.write_text(json.dumps(payload), encoding="utf-8")
        r2 = classify_order(4, cache_dir=str(cache))
        assert r1 == r2

    def test_changed_source_digest_is_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        r1 = classify_order(4, cache_dir=str(cache))
        # entries that parse but are wrong: every class gets the first rep
        for p in cache.iterdir():
            payload = json.loads(p.read_text())
            payload["reps"] = payload["reps"][:1] * len(payload["reps"])
            payload["images"] = payload["images"][:1] * len(payload["images"])
            p.write_text(json.dumps(payload), encoding="utf-8")
        assert classify_order(4, cache_dir=str(cache)) != r1  # served as is
        for p in cache.iterdir():
            payload = json.loads(p.read_text())
            payload["source"] = "0" * 64
            p.write_text(json.dumps(payload), encoding="utf-8")
        assert classify_order(4, cache_dir=str(cache)) == r1
        for p in cache.iterdir():
            assert json.loads(p.read_text())["source"] == _source_digest()

    def test_source_digest_is_not_read_at_import(self):
        code = (
            "import alexq.classify as c; "
            "print(c._source_digest.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(alexq.__file__).parents[1])},
        )
        assert out.stdout.strip() == "0"

    def test_cache_path_naming_a_file_only_skips_writes(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        expected = classify_order(8, cache_dir=str(tmp_path / "fresh"))
        assert classify_order(8, cache_dir=str(blocker)) == expected
        assert blocker.read_text(encoding="utf-8") == ""

    def test_env_var_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ALEXQ_CACHE", str(tmp_path / "envcache"))
        assert resolve_cache_dir(None) == str(tmp_path / "envcache")
        monkeypatch.delenv("ALEXQ_CACHE")
        assert resolve_cache_dir(None) == ".alexq-cache"


class TestCrossValidate:
    def test_order_2(self):
        result = cross_validate(2)
        assert result.ok and (result.spec_count, result.class_count) == (1, 1)

    def test_order_4(self):
        result = cross_validate(4)
        assert result.ok and (result.spec_count, result.class_count) == (3, 3)

    def test_order_16(self):
        result = cross_validate(16)
        assert result.ok and (result.spec_count, result.class_count) == (14, 14)
        assert len(result.matching) == 14

    def test_order_9(self):
        result = cross_validate(9)
        assert result.ok

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(12)

    def test_duplicated_spec_is_a_mismatch(self, monkeypatch):
        specs = polymod.enumerate_specs(2, 3)
        monkeypatch.setattr(polymod, "enumerate_specs", lambda p, k: specs + specs[-1:])
        result = cross_validate(8)
        assert not result.ok
        assert (result.spec_count, result.class_count) == (7, 6)

    def test_dropped_spec_is_a_mismatch(self, monkeypatch):
        specs = polymod.enumerate_specs(2, 3)
        monkeypatch.setattr(polymod, "enumerate_specs", lambda p, k: specs[1:])
        result = cross_validate(8)
        assert not result.ok
        assert (result.spec_count, result.class_count) == (5, 6)

    def test_two_representatives_with_one_chain_are_a_mismatch(self, monkeypatch):
        # a class split in two leaves as many distinct chains as specs
        G = AbelianGroup((2, 2, 2))
        table = autgroup._conjugacy(G)
        twin = next(
            f for f in enumerate_automorphisms(G) if f not in table.reps and f.order() == 7
        )
        monkeypatch.setattr(
            alexq.classify, "_conjugacy", lambda G: table._replace(reps=table.reps + (twin,))
        )
        result = cross_validate(8)
        assert not result.ok
        assert "share the chain" in result.detail

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
    def test_matching_agrees_with_all_pairs_route(self, order):
        result = cross_validate(order)
        assert result.ok
        assert result.matching == _matching_by_all_pairs(order)


def _matching_by_all_pairs(order):
    """Reference: match every chain against every representative by witness search."""
    ((p, k),) = _prime_factorization(order).items()
    G = AbelianGroup((p,) * k)
    reps = conjugacy_representatives(G)
    matching = []
    for spec in polymod.enumerate_specs(p, k):
        built = polymod.build(spec)
        hits = [
            rep for rep in reps if is_lambda_isomorphic(built, LambdaModule(G, rep)) is not None
        ]
        assert len(hits) == 1, spec
        matching.append((str(spec), hits[0].spec()))
    assert len({rep for _, rep in matching}) == len(reps)
    return tuple(matching)


class TestClassifyRange:
    def test_small_range_with_oracle_validation(self):
        results = classify_range(1, 6)
        assert [r[0] for r in results] == [1, 2, 3, 4, 5, 6]
        assert results[0] == (1, 1, 1)
        for order, n_classes, n_connected in results:
            assert 1 <= n_classes
            assert 0 <= n_connected <= n_classes

    def test_oracle_validates_orders_9_to_15(self, tmp_path):
        # every order up to ORACLE_VALIDATION_MAX_ORDER is re-counted by the
        # oracle over every automorphism; a disagreement would raise
        assert ORACLE_VALIDATION_MAX_ORDER == 15
        results = classify_range(9, 15, cache_dir=str(tmp_path))
        assert results == (
            (9, 11, 8),
            (10, 4, 0),
            (11, 10, 9),
            (12, 6, 1),
            (13, 12, 11),
            (14, 6, 0),
            (15, 8, 3),
        )

    def test_labels_of_each_divisor_order_recur(self, monkeypatch, tmp_path):
        # 16 | 32 passes past the oracle's reach; a label of order 3 renamed
        # leaves the totals that the oracle compares, and fails at order 6
        assert classify_range(16, 32, cache_dir=str(tmp_path))[-1] == (32, 48, 8)
        classify = alexq.classify.classify_order

        def renamed(order, **kwargs):
            report = classify(order, **kwargs)
            if order != 3:
                return report
            *rest, last = report.classes
            last = QuandleClass(last.id, "renamed", last.image, last.connected, last.members)
            return ClassificationReport(
                report.order, (*rest, last), report.per_group_counts, report.totals
            )

        monkeypatch.setattr(alexq.classify, "classify_order", renamed)
        with pytest.raises(
            ConsistencyError, match="^order 6: label renamed of order 3 is not a label of order 6$"
        ):
            classify_range(3, 6, cache_dir=str(tmp_path))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            classify_range(3, 2)


def test_cache_with_unparseable_specs_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    r1 = classify_order(4, cache_dir=str(cache))
    for p in cache.iterdir():
        payload = json.loads(p.read_text())
        payload["reps"] = ["9,9,9"] * len(payload["reps"])
        p.write_text(json.dumps(payload), encoding="utf-8")
    r2 = classify_order(4, cache_dir=str(cache))
    assert r1 == r2


def test_cache_with_over_budget_image_is_recomputed(tmp_path):
    # the addition table of L5000/3 would have 25M entries, over the budget,
    # so parsing the image raises; loading must fall back, not fail the run
    cache = tmp_path / "cache"
    r1 = classify_order(2, cache_dir=str(cache))
    for p in cache.iterdir():
        payload = json.loads(p.read_text())
        payload["images"] = ["L5000/3"] * len(payload["images"])
        p.write_text(json.dumps(payload), encoding="utf-8")
    assert classify_order(2, cache_dir=str(cache)) == r1


def test_cache_with_non_string_specs_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    r1 = classify_order(4, cache_dir=str(cache))
    for p in cache.iterdir():
        payload = json.loads(p.read_text())
        payload["images"] = [7] * len(payload["images"])
        p.write_text(json.dumps(payload), encoding="utf-8")
    r2 = classify_order(4, cache_dir=str(cache))
    assert r1 == r2


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload.pop("labels"),
        lambda payload: payload["labels"].pop(),
        lambda payload: payload.update(labels=[7] * len(payload["labels"])),
        # string items of the right length: only the list check rejects it
        lambda payload: payload.update(labels="x" * len(payload["labels"])),
    ],
    ids=["missing", "short", "non-string", "not-a-list"],
)
def test_cache_with_malformed_labels_is_recomputed(tmp_path, edit):
    cache = tmp_path / "cache"
    r1 = classify_order(8, cache_dir=str(cache))
    for p in cache.iterdir():
        payload = json.loads(p.read_text())
        edit(payload)
        p.write_text(json.dumps(payload), encoding="utf-8")
    assert classify_order(8, cache_dir=str(cache)) == r1
    for p in cache.iterdir():
        labels = json.loads(p.read_text())["labels"]
        assert isinstance(labels, list) and all(isinstance(x, str) for x in labels)


class TestMergeByLabel:
    # classify_order merges structures by the canonical label of their image
    # alone, so label equality must agree with the witness search.
    @pytest.mark.parametrize("order", [8, 16, 27, 48])
    def test_equal_label_iff_isomorphic_image(self, order):
        images = [
            image_one_minus_t(LambdaModule(G, rep))
            for G in enumerate_groups(order)
            for rep in conjugacy_representatives(G)
        ]
        labels = [canonical_label(M) for M in images]
        disagreements = [
            (images[i].spec(), labels[i], images[j].spec(), labels[j])
            for i, j in itertools.combinations(range(len(images)), 2)
            if (labels[i] == labels[j])
            != (is_lambda_isomorphic(images[i], images[j]) is not None)
        ]
        assert disagreements == []


# sha256 of report_to_json without its generated_by line, which carries the
# version, for every order from 1 to 130 and for 250; null marks an order
# over the enumeration budget. The digests of 12, 16, 24, 27 and 48 were
# recorded while classes were still merged by pairwise is_lambda_isomorphic,
# and those of 125 and 250 while 5,5,5 and 5,5,10 still listed their Aut.
# Those of 32 and 81 were recorded once the least-member scan let them
# complete; their per-carrier counts are checked against the GL_k(p) closed
# form in test_gl_class_counts. That of 96 was recorded once the scan served
# its carrier 2,2,2,2,6; its totals are those of 32 times those of 3, and the
# labels of 32 and 48 are labels of 96 (the inclusion test below).
GOLDEN_REPORT_SHA256 = {
    int(order): digest
    for order, digest in json.loads(
        (Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8")
    ).items()
}


def _report_digest(report) -> str:
    body = "".join(
        line
        for line in report_to_json(report).splitlines(keepends=True)
        if not line.lstrip().startswith('"generated_by":')
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden_report(tmp_path_factory):
    """The cold report of an order, or None over the budget; each order is
    classified once in this module, so the golden and inclusion tests share it."""
    cache = tmp_path_factory.mktemp("golden")
    reports = {}

    def report(order):
        if order not in reports:
            try:
                reports[order] = classify_order(order, cache_dir=str(cache))
            except EnumerationBudgetError:
                reports[order] = None
        return reports[order]

    return report


@pytest.mark.parametrize("order", sorted(GOLDEN_REPORT_SHA256))
def test_report_matches_golden_digest(order, golden_report):
    report = golden_report(order)
    if GOLDEN_REPORT_SHA256[order] is None:
        assert report is None
        return
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[order]


def test_labels_of_an_order_are_labels_of_its_multiples(golden_report):
    # a quandle of order m on the module M gives one of order m * r on
    # M + Z_r with t = 1 there, and both have the image of 1 - t of M, so
    # every image label of m is an image label of every multiple of m
    labels = {}
    for order in sorted(GOLDEN_REPORT_SHA256):
        report = golden_report(order)
        if report is not None:
            labels[order] = {qc.image_label for qc in report.classes}
    assert {32, 81, 96, 125, 250} <= labels.keys()
    missing = [
        (m, n, label)
        for n in labels
        for m in labels
        if m < n and n % m == 0
        for label in sorted(labels[m] - labels[n])
    ]
    assert missing == []


# sha256 of the concatenated to_text() of every class member's Alexander
# table, in report order; recorded while tables were still built with
# coordinate arithmetic.
GOLDEN_TABLES_SHA256 = {
    16: "f9fb5a7484f58547673c664a8866a8435f9c7587b9fb590dfe15a946dbf38455",
    27: "c4870be14bf6da13d85ffcc4337ce5351d17507b15dda1d87150880e78a21671",
    48: "aa4055003f7ef30f5032135bdb86c800afeeea9edfbc26ead48c07419b8296a3",
}


@pytest.mark.parametrize("order", sorted(GOLDEN_TABLES_SHA256))
def test_cayley_tables_match_golden_digest(order, tmp_path):
    report = classify_order(order, cache_dir=str(tmp_path))
    text = "".join(
        alexander_table(LambdaModule(G, rep)).to_text()
        for qc in report.classes
        for G, rep in qc.members
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_TABLES_SHA256[order]


def test_parallel_order_48_matches_golden_digest(tmp_path):
    # each process labels the images of its own share; the merge only reads labels
    report = classify_order(48, jobs=2, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[48]


# order 48 at jobs=2 is the test above
@pytest.mark.parametrize(
    "order, jobs", [(12, 2), (16, 2), (24, 2), (27, 2), (16, 3), (27, 3), (48, 3)]
)
def test_forked_report_matches_golden_digest(order, jobs, tmp_path):
    report = classify_order(order, jobs=jobs, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[order]


# --- jobs > 1: the split into shares and the fork-join ----------------------


def _guarded_counts(order):
    """Each carrier of the order that passes its guard -> the candidate
    count of its route that the guard returns, as classify_order has them."""
    counts = {}
    for G in enumerate_groups(order):
        with contextlib.suppress(EnumerationBudgetError):
            counts[G] = autgroup._check_route_budget(G)
    return counts


@pytest.mark.parametrize(
    "order, workers, shares",
    [
        (16, 3, [["2,2,2,2"], ["2,2,4"], ["16", "2,8", "4,4"]]),
        (27, 2, [["3,3,3"], ["27", "3,9"]]),
        (27, 3, [["3,3,3"], ["3,9"], ["27"]]),
        (48, 2, [["2,2,2,6"], ["48", "2,24", "4,12", "2,2,12"]]),
        (48, 3, [["2,2,2,6"], ["2,2,12"], ["48", "2,24", "4,12"]]),
    ],
)
def test_shares_of_the_ladder_orders(order, workers, shares):
    # a scanned carrier (Z_p)^k + Z_m is weighed by its one walk's count,
    # p^(k(k-1)), not by Aut's: 2,2,2,2 (4,096), 3,3,3 (729) and 2,2,2,6
    # (4,096, over the 4,080 of 48's other carriers together) still weigh most
    dealt = alexq.classify._shares(_guarded_counts(order), workers)
    assert [[G.spec() for G in share] for share in dealt] == shares


def test_order_16_caller_share_is_the_heaviest_carrier_alone():
    shares = alexq.classify._shares(_guarded_counts(16), 2)
    assert shares[0] == [AbelianGroup((2, 2, 2, 2))]
    assert shares[1] == list(enumerate_groups(16)[:-1])


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("order", [16, 27, 32, 48, 64, 81])
def test_shares_partition_the_carriers_in_order(order, workers):
    # at 64, the carriers that pass their guard
    counts = _guarded_counts(order)
    carriers = list(counts)
    shares = alexq.classify._shares(counts, workers)
    assert len(shares) == workers
    assert sorted(G.factors for share in shares for G in share) == sorted(
        G.factors for G in carriers
    )
    assert all(share == [G for G in carriers if G in share] for share in shares)
    assert max(carriers, key=counts.__getitem__) in shares[0]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_children(monkeypatch, action):
    """Makes _carrier_triples run `action` for the carrier 4,4 in a forked
    child; the caller's own carriers are classified as usual."""
    caller = os.getpid()
    triples = alexq.classify._carrier_triples

    def patched(factors, *args):
        if factors == (4, 4) and os.getpid() != caller:
            action()
        return triples(factors, *args)

    monkeypatch.setattr(alexq.classify, "_carrier_triples", patched)


def test_normal_forked_run_leaves_no_child(tmp_path):
    classify_order(16, jobs=3, cache_dir=str(tmp_path))
    _assert_no_child_left()


def test_first_error_in_carrier_order_is_raised(monkeypatch, tmp_path):
    # 4,4 and 2,2,2,2 fail in every process; with jobs > 1, 4,4 fails first
    # in a child, which leaves no entry, and then again in the caller. 4,4
    # comes first in carrier order, so its error is raised, as in a serial run
    triples = alexq.classify._carrier_triples

    def patched(factors, *args):
        if factors in ((4, 4), (2, 2, 2, 2)):
            raise ConsistencyError(f"carrier {factors} refused")
        return triples(factors, *args)

    monkeypatch.setattr(alexq.classify, "_carrier_triples", patched)
    for jobs in (1, 2, 3):
        with pytest.raises(ConsistencyError, match=r"^carrier \(4, 4\) refused$"):
            classify_order(16, jobs=jobs, cache_dir=str(tmp_path / str(jobs)))
    _assert_no_child_left()


def _refuse():
    raise ConsistencyError("carrier 4,4 refused")


@pytest.mark.parametrize(
    "die",
    [lambda: os._exit(7), lambda: os.kill(os.getpid(), signal.SIGKILL), _refuse],
    ids=["exit", "killed", "failed"],
)
def test_caller_classifies_what_a_child_left_undone(die, monkeypatch, tmp_path):
    # the child stops at 4,4 and leaves no entry for it or the carriers
    # after it in its share; the caller finds them missing from the cache
    # and classifies them itself
    assert AbelianGroup((4, 4)) not in alexq.classify._shares(_guarded_counts(16), 2)[0]
    _in_children(monkeypatch, die)
    report = classify_order(16, jobs=2, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[16]
    _assert_no_child_left()


def test_caller_labels_each_image_once_when_a_child_dies(monkeypatch, tmp_path):
    # the child exits at 4,4, so the caller classifies 4,4 and 2,2,4 after
    # its own 2,2,2,2 and the child's cached 16 and 2,8: every image it has
    # met in the run, in whatever carrier, keeps its label
    _in_children(monkeypatch, lambda: os._exit(7))
    labelled = []
    label = alexq.classify.canonical_label

    def recording(image):
        labelled.append(image)  # a child appends to its own copy
        return label(image)

    monkeypatch.setattr(alexq.classify, "canonical_label", recording)
    report = classify_order(16, jobs=2, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[16]
    assert labelled and len(set(labelled)) == len(labelled)
    _assert_no_child_left()


@pytest.mark.parametrize("order, jobs", [(16, 2), (48, 3)])
def test_caller_does_no_aut_work_for_a_childs_carrier(order, jobs, monkeypatch, tmp_path):
    # a child's carriers are cache hits in the caller, so it finds the
    # classes of its own share only, on either route
    caller = os.getpid()
    classified = []
    representatives = alexq.classify.conjugacy_representatives

    def recording(G):
        if os.getpid() == caller:
            classified.append(G)
        return representatives(G)

    monkeypatch.setattr(alexq.classify, "conjugacy_representatives", recording)
    report = classify_order(order, jobs=jobs, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[order]
    assert classified == alexq.classify._shares(_guarded_counts(order), jobs)[0]


def test_unwritable_cache_runs_serially(monkeypatch, tmp_path):
    # a child hands its carriers back only through the cache, so without
    # one the caller would classify them again
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")

    def no_fork():
        raise AssertionError("a run that cannot write its cache must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    report = classify_order(48, jobs=2, cache_dir=str(blocker))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[48]


def test_interrupt_in_the_caller_kills_and_reaps_the_children(monkeypatch, tmp_path):
    # the child would sleep for a minute; the caller must not wait for it
    _in_children(monkeypatch, lambda: time.sleep(60))
    triples = alexq.classify._carrier_triples

    def interrupted(factors, *args):
        if factors == (2, 2, 2, 2):
            raise KeyboardInterrupt
        return triples(factors, *args)

    monkeypatch.setattr(alexq.classify, "_carrier_triples", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        classify_order(16, jobs=2, cache_dir=str(tmp_path))
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_no_run_imports_pickle_and_only_a_forked_run_imports_signal():
    # no run imports concurrent.futures either. The cache is the test's
    # own, through ALEXQ_CACHE.
    probe = (
        "import sys; from alexq.classify import classify_order; "
        "classify_order(8, jobs=1); "
        "print(sorted({'pickle', 'signal'} & set(sys.modules))); "
        "classify_order(8, jobs=2); "
        "print(sorted({'pickle', 'signal'} & set(sys.modules))); "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(alexq.__file__).parents[1])},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n['signal']\n[]\n"


def test_no_run_imports_dataclasses_inspect_or_typing_and_a_warm_run_no_tempfile(tmp_path):
    # the first process runs cold and then warm, the second warm alone; a
    # cold run writes cache entries, the one use of tempfile in a serial run.
    # No run loads pathlib either: cache files are named with os.path
    probe = "import sys, alexq; from alexq.classify import classify_order; "
    probed = "{'dataclasses', 'inspect', 'typing', 'pathlib', 'tempfile'}"
    check = f"print(sorted({probed} & set(sys.modules)))"
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(alexq.__file__).parents[1]),
        "ALEXQ_CACHE": str(tmp_path),
    }
    outs = [
        subprocess.run(
            [sys.executable, "-S", "-c", probe + "classify_order(8); " * runs + check],
            capture_output=True,
            text=True,
            env=env,
        )
        for runs in (2, 1)
    ]
    assert [out.returncode for out in outs] == [0, 0], [out.stderr for out in outs]
    assert [out.stdout for out in outs] == ["['tempfile']\n", "[]\n"]


def test_warm_run_does_no_aut_work(tmp_path, monkeypatch):
    classify_order(48, cache_dir=str(tmp_path))
    clear_carrier_caches()

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm run must not search or partition Aut")

    monkeypatch.setattr(kernels, "_linear_bijections", forbidden)
    monkeypatch.setattr(kernels, "conjugacy_partition", forbidden)
    monkeypatch.setattr(alexq.classify, "canonical_label", forbidden)
    report = classify_order(48, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[48]
    assert autgroup._group_tables.cache_info().misses == 0


def test_each_partition_has_a_distinct_input(tmp_path, monkeypatch):
    # The fallback label reads its carrier's partition from the cache that
    # classify_order filled, so no carrier's Aut is partitioned twice. A
    # cyclic Aut is abelian and 2,2,2,6 is scanned, so the partitions are
    # those of the non-cyclic Sylow parts and of the fallback carrier 2,4.
    clear_carrier_caches()
    inputs = []
    partition = kernels.conjugacy_partition

    def recording(perms, generator_indices):
        inputs.append((perms, generator_indices))
        return partition(perms, generator_indices)

    monkeypatch.setattr(kernels, "conjugacy_partition", recording)
    report = classify_order(48, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[48]
    assert len(set(inputs)) == len(inputs)
    assert sorted((len(perms[0]), gens) for perms, gens in inputs) == sorted(
        (G.order, G.generator_indices)
        for G in map(AbelianGroup, [(2, 4), (2, 8), (4, 4), (2, 2, 4)])
    )


def test_cold_run_searches_and_partitions_only_prime_power_carriers(tmp_path, monkeypatch):
    # Aut of a carrier with two primes is composed from its Sylow parts, so
    # neither a search over all of it nor its partition is ever run.
    clear_carrier_caches()
    orders = []
    enumerate_all = kernels.enumerate_linear_bijections
    partition = kernels.conjugacy_partition

    def recording_enumerate(n, *args):
        orders.append(n)
        return enumerate_all(n, *args)

    def recording_partition(perms, generator_indices):
        orders.append(len(perms[0]))
        return partition(perms, generator_indices)

    monkeypatch.setattr(kernels, "enumerate_linear_bijections", recording_enumerate)
    monkeypatch.setattr(kernels, "conjugacy_partition", recording_partition)
    report = classify_order(48, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[48]
    assert 16 in orders and 3 in orders
    assert all(len(_prime_factorization(n)) == 1 for n in orders), sorted(set(orders))


@pytest.mark.parametrize("order", [16, 27, 48, 125, 250])
def test_cold_run_lists_aut_of_no_elementary_carrier(order, tmp_path, monkeypatch):
    # an elementary carrier's least members come from the scan and its images
    # are named by their divisor chains, so its Aut is never listed; nor is
    # that of the elementary Sylow part of a scanned mixed carrier (2,2,2,2
    # of 2,2,2,6, 5,5,5 of 5,5,10). Only a cyclic Z_p, a Sylow part of a
    # carrier on the Aut route, is listed.
    clear_carrier_caches()
    listed = []
    perms = autgroup._automorphism_perms

    def recording(G):
        listed.append(G)
        return perms(G)

    monkeypatch.setattr(autgroup, "_automorphism_perms", recording)
    report = classify_order(order, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[order]
    assert listed and not any(_elementary_prime(G) and G.rank > 1 for G in listed), listed


@pytest.mark.parametrize("order", [16, 27])
def test_cold_prime_power_run_reads_classes_off_the_partition(order, tmp_path, monkeypatch):
    # a p-group is its own single Sylow part, so no product of classes is scanned
    clear_carrier_caches()

    def forbidden(*args, **kwargs):
        raise AssertionError("a prime-power carrier must not scan a product of classes")

    monkeypatch.setattr(kernels, "least_keys_of_products", forbidden)
    report = classify_order(order, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[order]


@pytest.mark.parametrize("order", [16, 27, 48])
def test_each_image_is_labelled_once_per_run(order, tmp_path, monkeypatch):
    # carriers of one order share images; a serial run labels each once
    labelled = []
    label = alexq.classify.canonical_label

    def recording(image):
        labelled.append(image)
        return label(image)

    monkeypatch.setattr(alexq.classify, "canonical_label", recording)
    report = classify_order(order, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[order]
    assert len(set(labelled)) == len(labelled)


def test_cached_labels_are_not_recomputed_by_cold_carriers(tmp_path, monkeypatch):
    # with all but the last carrier cached, the last one labels only the
    # images that no earlier carrier has
    classify_order(16, cache_dir=str(tmp_path))
    *cached, last = enumerate_groups(16)
    (tmp_path / f"carrier-{last.spec().replace(',', '-')}-v{alexq.__version__}.json").unlink()
    cached_images = {
        image_one_minus_t(LambdaModule(G, rep))
        for G in cached
        for rep in conjugacy_representatives(G)
    }
    labelled = []
    label = alexq.classify.canonical_label

    def recording(image):
        labelled.append(image)
        return label(image)

    monkeypatch.setattr(alexq.classify, "canonical_label", recording)
    report = classify_order(16, cache_dir=str(tmp_path))
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[16]
    assert labelled and not cached_images & set(labelled)


@pytest.mark.parametrize("order, distinct", [(16, 28), (27, 47), (48, 55)])
def test_warm_run_parses_each_distinct_image_spec_once(order, distinct, tmp_path, monkeypatch):
    # classes of one carrier, and carriers of one order, share images; a
    # warm run parses each image spec of its entries once
    cold = classify_order(order, cache_dir=str(tmp_path))
    specs = {
        spec
        for G in enumerate_groups(order)
        for spec in json.loads(Path(_cache_path(tmp_path, G)).read_text())["images"]
    }
    parsed = []
    parse = alexq.classify.parse_module_spec

    def recording(spec):
        parsed.append(spec)
        return parse(spec)

    monkeypatch.setattr(alexq.classify, "parse_module_spec", recording)
    warm = classify_order(order, cache_dir=str(tmp_path))
    assert warm == cold
    assert _report_digest(warm) == GOLDEN_REPORT_SHA256[order]
    assert sorted(parsed) == sorted(specs)
    assert len(parsed) == distinct


@pytest.mark.parametrize("order", [16, 48])
def test_warm_run_builds_no_permutation(order, tmp_path):
    # a parsed map is validated on G/pG, and nothing else on a warm run
    # reads a member's or an image's permutation
    cold = classify_order(order, cache_dir=str(tmp_path))
    warm = classify_order(order, cache_dir=str(tmp_path))
    assert _report_digest(warm) == _report_digest(cold) == GOLDEN_REPORT_SHA256[order]
    assert warm == cold
    maps = [rep for qc in warm.classes for _, rep in qc.members]
    maps += [qc.image.t for qc in warm.classes]
    assert not [f.spec() for f in maps if "perm" in f.__dict__]


def test_source_digest_hashes_the_package_files_by_name():
    package = Path(alexq.__file__).parent
    digest = hashlib.sha256()
    for name in sorted(p.name for p in package.iterdir() if p.suffix == ".py"):
        data = (package / name).read_bytes()
        digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    assert _source_digest() == digest.hexdigest()


def test_rejected_entry_teaches_the_table_nothing(tmp_path):
    # the last representative of 2,4's entry is not bijective, so the entry
    # is rejected after all its images have parsed; none of them is learned
    cold = classify_order(8, cache_dir=str(tmp_path))
    G = AbelianGroup((2, 4))
    path = Path(_cache_path(tmp_path, G))
    payload = json.loads(path.read_text())
    payload["reps"][-1] = "1,0;0,2"
    path.write_text(json.dumps(payload), encoding="utf-8")
    table = {}
    assert _load_cached(path, G, table) is None
    assert table == {}
    Z8 = AbelianGroup((8,))
    assert _load_cached(Path(_cache_path(tmp_path, Z8)), Z8, table) is not None
    learned = dict(table)
    assert learned and _load_cached(path, G, table) is None
    assert table == learned
    assert classify_order(8, cache_dir=str(tmp_path)) == cold
    assert json.loads(path.read_text())["reps"][-1] != "1,0;0,2"


# --- totals that need no oracle ---------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, 251])
def test_prime_order_totals(p, tmp_path):
    # Aut(Z_p) is abelian, so each unit a is its own class; a = 1 gives the
    # trivial quandle and every other a the connected module Z_p itself
    assert classify_order(p, cache_dir=str(tmp_path)).totals == (p - 1, p - 2)


def test_totals_are_multiplicative_over_the_sylow_orders(tmp_path):
    # an image is the direct sum of its p-parts, so a class of order n is one
    # class of each p^e exactly dividing n, connected when every part is
    def totals(n):
        try:
            return classify_order(n, cache_dir=str(tmp_path)).totals
        except EnumerationBudgetError:
            return None

    checked = 0
    for n in range(2, 101):
        parts = [p**e for p, e in _prime_factorization(n).items()]
        part_totals = [totals(q) for q in parts]
        if len(parts) == 1 or None in part_totals:
            continue
        whole = totals(n)
        assert whole == tuple(map(math.prod, zip(*part_totals))), n
        checked += 1
    assert checked == 64


# the totals of the Sylow orders of 160, 162 and 224, pinned by their golden digests
SYLOW_TOTALS = {2: (1, 0), 5: (4, 3), 7: (6, 5), 32: (48, 8), 81: (233, 166)}


@pytest.mark.parametrize(
    "order, parts, expected",
    [(160, (32, 5), (192, 24)), (162, (81, 2), (233, 0)), (224, (32, 7), (288, 40))],
)
def test_orders_past_96_whose_mixed_carrier_is_scanned(order, parts, expected, tmp_path):
    # 2,2,2,2,2m and 3,3,3,6 are scanned by one walk over GL_5(2) or GL_4(3);
    # the totals are the products of the Sylow orders' totals
    assert tuple(map(math.prod, zip(*(SYLOW_TOTALS[q] for q in parts)))) == expected
    assert classify_order(order, cache_dir=str(tmp_path)).totals == expected
