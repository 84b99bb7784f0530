"""Acceptance suite: the ten end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.

Criteria 1 and 5 pin the order-16 totals to the classical hand count
(23 classes, 8 connected; 3 connected on the 4,4 carrier with two distinct
order-8-image classes). The computed totals are (23, 9): Aut(Z4+Z4) =
GL(2, Z/4) has 14 conjugacy classes, one more than the hand count used, and
the extra class (t: e1 -> (0,1), e2 -> (1,3)) is connected since
det(1 - t) = 1 mod 4; moreover the hand count's two order-8-image
structures on Z4+Z4 have conjugate actions (shear h(a,b) = (a, a+b)
conjugates one to the other on Z4+Z2) and so form a single class. Both
facts are cross-validated by the raw-matrix computation in test_autgroup
and by the table-level oracle (criteria 6-9 below), so those two criteria
fail honestly rather than being loosened to match the computation.
"""

import itertools
import json
import time

import pytest

from alexq.abelian import AbelianGroup, enumerate_groups
from alexq.autgroup import is_conjugate
from alexq.classify import classify_order
from alexq.cli import main as cli_main
from alexq.lambda_modules import (
    LambdaModule,
    canonical_label,
    image_one_minus_t,
    is_lambda_isomorphic,
    parse_module_spec,
)
from alexq.linearq import LinearQuandleSpec, build_linear, classify_linear
from alexq.polymod import PolySpec, Poly, build, enumerate_specs
from alexq.quandle import alexander_table, brute_force_isomorphic, check_axioms, orbits

from helpers import enumerate_automorphisms, image_set


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{mark}] criterion {num:2d}: {description}{suffix}")


@pytest.fixture(scope="module")
def report16(tmp_path_factory):
    cache = tmp_path_factory.mktemp("acceptance-cache")
    t0 = time.perf_counter()
    report = classify_order(16, cache_dir=str(cache))
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def small_structures():
    """All Alexander quandle structures of order <= 8, with tables and images."""
    by_order = {}
    for order in range(1, 9):
        entries = []
        for G in enumerate_groups(order):
            for phi in enumerate_automorphisms(G):
                M = LambdaModule(G, phi)
                entries.append((M, alexander_table(M), image_one_minus_t(M)))
        by_order[order] = entries
    return by_order


def test_criterion_01_order_16_totals(report16):
    report, elapsed = report16
    expected = (23, 8)
    ok = report.totals == expected and elapsed < 60.0
    _verdict(
        1,
        "order-16 classification totals (23 classes, 8 connected, < 60 s)",
        ok,
        f"got {report.totals[0]} classes, {report.totals[1]} connected in {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    # The required connected total undercounts; see the module docstring.
    # The computed value 9 is cross-validated by the raw-matrix conjugacy
    # computation and the table-level oracle.
    assert report.totals == expected, (
        f"totals {report.totals} != required {expected}: the required count "
        f"misses the connected class of t: e1->(0,1), e2->(1,3) on the 4,4 "
        f"carrier and double-counts the order-8-image class (see module "
        f"docstring; both facts verified independently in this suite)"
    )


def test_criterion_02_linear_classification():
    expected = ((1,), (3, 11), (5, 13), (7, 15), (9,))
    got = classify_linear(16)
    ok = got == expected
    _verdict(2, "linear multipliers mod 16 split into the 5 known classes", ok, str(got))
    assert got == expected


LINEAR_IMAGE_ROWS = [
    (1, "0"),
    (3, "Λ8/t-3"),
    (11, "Λ8/t-3"),
    (7, "Λ8/t-7"),
    (15, "Λ8/t-7"),
    (5, "Λ4/t+3"),
    (13, "Λ4/t+3"),
    (9, "Λ2/t+1"),
]


def test_criterion_03_linear_image_labels():
    got = [
        (a, canonical_label(image_one_minus_t(build_linear(LinearQuandleSpec(16, a)))))
        for a, _ in LINEAR_IMAGE_ROWS
    ]
    ok = got == LINEAR_IMAGE_ROWS
    _verdict(3, "order-16 linear image labels match row-for-row", ok)
    assert got == LINEAR_IMAGE_ROWS


# (chain, image chain or "0", connected) for every order-16 structure on the
# rank-4 binary carrier; chains are ascending-power strings
BINARY_CARRIER_TABLE = [
    ("1+t+t^4", "1+t+t^4", True),
    ("1+t^2+t^4", "1+t^2+t^4", True),
    ("1+t^3+t^4", "1+t^3+t^4", True),
    ("1+t+t^2+t^3+t^4", "1+t+t^2+t^3+t^4", True),
    ("1+t^4", "1+t+t^2+t^3", False),
    ("1+t+t^2+t^4", "1+t^2+t^3", False),
    ("1+t^2+t^3+t^4", "1+t+t^3", False),
    ("1+t+t^3+t^4", "1+t^3", False),
    ("1+t | 1+t | 1+t | 1+t", "0", False),
    ("1+t | 1+t | 1+t^2", "1+t", False),
    ("1+t^2 | 1+t^2", "1+t | 1+t", False),
    ("1+t+t^2 | 1+t+t^2", "1+t+t^2 | 1+t+t^2", True),
    ("1+t | 1+t^3", "1+t+t^2", False),
    ("1+t | 1+t+t^2+t^3", "1+t^2", False),
]


def _spec_from_chain(text: str) -> PolySpec:
    return PolySpec(2, tuple(Poly.from_str(2, part) for part in text.split(" | ")))


def test_criterion_04_binary_carrier_images():
    specs = enumerate_specs(2, 4)
    count_ok = len(specs) == 14
    rows_ok = True
    stars = 0
    for chain, image_chain, starred in BINARY_CARRIER_TABLE:
        M = build(_spec_from_chain(chain))
        img = image_one_minus_t(M)
        if image_chain == "0":
            row_ok = img.order == 1
        else:
            row_ok = is_lambda_isomorphic(img, build(_spec_from_chain(image_chain))) is not None
        connected = img.order == M.order
        row_ok = row_ok and (connected == starred)
        stars += connected
        rows_ok = rows_ok and row_ok
    ok = count_ok and rows_ok and stars == 5
    _verdict(
        4,
        "14 divisor chains; image of each matches its table row; 5 connected",
        ok,
        f"{len(specs)} chains, {stars} connected",
    )
    assert count_ok
    assert rows_ok
    assert stars == 5
    assert len(BINARY_CARRIER_TABLE) == 14


def test_criterion_05_mixed_carrier_image_classes(report16):
    report, _ = report16

    def carrier_classes(spec):
        G = AbelianGroup.from_spec(spec)
        return [qc for qc in report.classes if any(g == G for g, _ in qc.members)]

    z44 = carrier_classes("4,4")
    z82 = carrier_classes("2,8")
    z422 = carrier_classes("2,2,4")
    z44_labels = {qc.image_label for qc in z44}
    named = {"0", "Λ2/t+1", "(Λ2/t+1)^2", "Λ4/t+3", "Λ4/t+1"}
    fulls = [qc for qc in z44 if qc.image.order == 16]
    mixed_image = [qc for qc in z44 if qc.image.group.factors == (2, 4)]
    # the hand count's two order-8-image structures, in 2,4 coordinates
    phi_a = parse_module_spec("2,4|1,2;1,3")
    phi_b = parse_module_spec("2,4|1,2;1,1")
    phi_a_classes = [
        qc for qc in mixed_image if is_lambda_isomorphic(qc.image, phi_a) is not None
    ]
    phi_b_classes = [
        qc for qc in mixed_image if is_lambda_isomorphic(qc.image, phi_b) is not None
    ]
    connected_44 = sum(qc.connected for qc in z44)

    ok = (
        len(z82) == 5
        and not any(qc.connected for qc in z82)
        and len(z422) == 7
        and not any(qc.connected for qc in z422)
        and len(z44) == 10
        and named <= z44_labels
        and connected_44 == 3
        and len(mixed_image) == 2
    )
    _verdict(
        5,
        "per-carrier image classes (4,4: 10/3 conn; 2,8: 5/0; 2,2,4: 7/0)",
        ok,
        f"4,4 gives {len(z44)} classes, {connected_44} connected, "
        f"{len(mixed_image)} with order-8 image",
    )

    assert len(z82) == 5 and not any(qc.connected for qc in z82)
    assert len(z422) == 7 and not any(qc.connected for qc in z422)
    assert len(z44) == 10
    assert named <= z44_labels
    # every full-module class is genuinely distinct
    for qa, qb in itertools.combinations(fulls, 2):
        assert is_lambda_isomorphic(qa.image, qb.image) is None
    # both required order-8-image structures are realized
    assert len(phi_a_classes) == 1 and len(phi_b_classes) == 1
    # The required partition insists the two are distinct classes and only
    # three full-module classes exist; the computation (cross-validated by
    # the oracle and the raw-matrix conjugacy count) finds them conjugate
    # and a fourth connected class. Asserted as required; fails honestly.
    assert phi_a_classes[0] is not phi_b_classes[0], (
        "the two order-8-image structures on 4,4 have conjugate actions "
        "(shear-conjugate on Z4+Z2), so they form one class, not two"
    )
    assert connected_44 == 3, (
        f"found {connected_44} connected classes on 4,4: GL(2, Z/4) has 14 "
        f"conjugacy classes and four of them are fixed-point free under "
        f"1 - t; the hand count missed t: e1->(0,1), e2->(1,3)"
    )


def test_criterion_06_cross_family_identifications():
    checks = [
        ("L16/9", "2,2,2,2-chain", build(_spec_from_chain("1+t | 1+t | 1+t^2"))),
        ("L16/5", "4,4|0,1;3,2", parse_module_spec("4,4|0,1;3,2")),
    ]
    ok = True
    details = []
    for linear_spec, _, other in checks:
        Qa = alexander_table(parse_module_spec(linear_spec))
        Qb = alexander_table(other)
        t0 = time.perf_counter()
        witness = brute_force_isomorphic(Qa, Qb)
        elapsed = time.perf_counter() - t0
        sound = witness is not None
        if sound:
            for a in range(Qa.n):
                for b in range(Qa.n):
                    if witness[Qa.table[a][b]] != Qb.table[witness[a]][witness[b]]:
                        sound = False
        ok = ok and sound and elapsed < 5.0
        details.append(f"{linear_spec}: {elapsed:.2f}s")
    _verdict(6, "both cross-family oracle identifications with witnesses < 5 s", ok, "; ".join(details))
    assert ok


def test_criterion_07_oracle_matches_image_criterion(small_structures):
    mismatches = []
    pairs = 0
    for order, entries in small_structures.items():
        for (M1, Q1, I1), (M2, Q2, I2) in itertools.combinations(entries, 2):
            pairs += 1
            oracle = brute_force_isomorphic(Q1, Q2) is not None
            by_image = is_lambda_isomorphic(I1, I2) is not None
            if oracle != by_image:
                mismatches.append((M1.spec(), M2.spec(), oracle, by_image))
    ok = not mismatches
    _verdict(
        7,
        "table oracle agrees with the image criterion on every pair, order <= 8",
        ok,
        f"{pairs} pairs, {len(mismatches)} discrepancies",
    )
    assert not mismatches, mismatches[:5]


def test_criterion_08_conjugacy_matches_module_isomorphism():
    mismatches = []
    pairs = 0
    for order in range(1, 9):
        for G in enumerate_groups(order):
            auts = enumerate_automorphisms(G)
            modules = [LambdaModule(G, f) for f in auts]
            for i, j in itertools.combinations(range(len(auts)), 2):
                pairs += 1
                conj = is_conjugate(G, auts[i], auts[j]) is not None
                lam = is_lambda_isomorphic(modules[i], modules[j]) is not None
                if conj != lam:
                    mismatches.append((G.spec(), auts[i].spec(), auts[j].spec()))
    ok = not mismatches
    _verdict(
        8,
        "conjugacy agrees with module isomorphism on every pair, order <= 8",
        ok,
        f"{pairs} pairs, {len(mismatches)} discrepancies",
    )
    assert not mismatches, mismatches[:5]


def test_criterion_09_axiom_and_orbit_suite(report16, small_structures):
    report, _ = report16
    modules = []
    for qc in report.classes:
        modules.append(qc.image)
        modules.extend(LambdaModule(g, phi) for g, phi in qc.members)
    for entries in small_structures.values():
        modules.extend(M for M, _, _ in entries)
    for a in (1, 3, 5, 7, 9, 11, 13, 15):
        modules.append(build_linear(LinearQuandleSpec(16, a)))
    for spec in enumerate_specs(2, 4):
        modules.append(build(spec))

    checked = 0
    failures = []
    for M in modules:
        Q = alexander_table(M)
        verdict = check_axioms(Q)
        if not verdict.ok:
            failures.append((M.spec(), verdict.describe()))
            continue
        if len(orbits(Q)) != M.order // len(image_set(M)):
            failures.append((M.spec(), "orbit count != |M| / |Im(1-t)|"))
        checked += 1
    ok = not failures
    _verdict(
        9,
        "every generated table passes the axioms; orbit count = image index",
        ok,
        f"{checked} tables checked",
    )
    assert not failures, failures[:5]


def test_criterion_10_parallel_determinism(tmp_path, capsys, monkeypatch):
    outputs = []
    for jobs, cache_name in (("1", "cache-a"), ("2", "cache-b")):
        monkeypatch.setenv("ALEXQ_CACHE", str(tmp_path / cache_name))
        code = cli_main(["classify", "--order", "16", "--format", "json", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode("utf-8"))
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    doc = json.loads(outputs[0])
    _verdict(
        10,
        "serial and 2-worker runs emit byte-identical JSON reports",
        ok,
        f"{len(outputs[0])} bytes, {doc['totals']['classes']} classes",
    )
    assert outputs[0] == outputs[1]
