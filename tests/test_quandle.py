import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from alexq import quandle
from alexq.abelian import enumerate_groups
from alexq.autgroup import conjugacy_representatives
from alexq.classify import classify_order
from alexq.errors import TableParseError
from alexq.kernels import cycle_type
from alexq.lambda_modules import LambdaModule, parse_module_spec
from alexq.linearq import units
from alexq.quandle import (
    AxiomVerdict,
    CayleyTable,
    MalformedTableError,
    QuandleAxiomError,
    alexander_table,
    brute_force_isomorphic,
    check_axioms,
    orbits,
)

from helpers import enumerate_automorphisms, image_set, reference_isomorphic


def table(spec: str) -> CayleyTable:
    return alexander_table(parse_module_spec(spec))


def _reference_alexander_table(M: LambdaModule) -> CayleyTable:
    """a |> b by checked coordinate arithmetic: what alexander_table must equal."""
    G = M.group
    n = G.order
    perm = M.t.perm
    elements = G.elements
    idx = {x: i for i, x in enumerate(elements)}
    rows = []
    for a in range(n):
        ta = elements[perm[a]]
        row = []
        for b in range(n):
            diff = G.sub(elements[b], elements[perm[b]])
            row.append(idx[G.add(ta, diff)])
        rows.append(tuple(row))
    return CayleyTable(tuple(rows))


def reference_axioms(Q: CayleyTable) -> AxiomVerdict:
    """The plain a, b, c loop that check_axioms must agree with."""
    t = Q.table
    rng = range(Q.n)
    for a in rng:
        if t[a][a] != a:
            return AxiomVerdict(False, "idempotence", (a,))
    for b in rng:
        if len({t[a][b] for a in rng}) != Q.n:
            return AxiomVerdict(False, "right-invertibility", (b,))
    for a, b, c in itertools.product(rng, repeat=3):
        if t[t[a][b]][c] != t[t[a][c]][t[b][c]]:
            return AxiomVerdict(False, "self-distributivity", (a, b, c))
    return AxiomVerdict(True)


def reference_orbits(Q: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """Blocks of a ~ a |> b by union-find over every entry."""
    parent = list(range(Q.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, row in enumerate(Q.table):
        for v in row:
            ra, rv = find(a), find(v)
            parent[max(ra, rv)] = min(ra, rv)
    blocks: dict[int, list[int]] = {}
    for x in range(Q.n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(block)) for block in sorted(blocks.values()))


def reference_fingerprints(Q: CayleyTable) -> tuple[tuple, ...]:
    """The fingerprint fields computed element by element, with no orbit shared."""
    orbit_size = [0] * Q.n
    for block in orbits(Q):
        for x in block:
            orbit_size[x] = len(block)
    return tuple(
        (orbit_size[a], tuple(sorted(Counter(row).values())), row.count(a), cycle_type(col))
        for a, (row, col) in enumerate(zip(Q.table, zip(*Q.table)))
    )


def trivial(n: int) -> CayleyTable:
    """The trivial quandle: a |> b = a."""
    return CayleyTable(tuple((a,) * n for a in range(n)))


def trivial_and_r3(m: int) -> CayleyTable:
    """The trivial quandle on 0..m-1 beside the dihedral quandle R3 on m..m+2.

    Within R3, a |> b = 2b - a mod 3; across the parts x |> y = x. The orbits
    are m singletons and one block of 3.
    """
    n = m + 3

    def op(a: int, b: int) -> int:
        if a < m or b < m:
            return a
        return m + (2 * (b - m) - (a - m)) % 3

    return CayleyTable(tuple(tuple(op(a, b) for b in range(n)) for a in range(n)))


def relabel(Q: CayleyTable, perm: list[int]) -> CayleyTable:
    """The table with every element x renamed perm[x]."""
    rows = [[0] * Q.n for _ in range(Q.n)]
    for a, row in enumerate(Q.table):
        for b, v in enumerate(row):
            rows[perm[a]][perm[b]] = perm[v]
    return CayleyTable(tuple(map(tuple, rows)))


def member_tables(order: int) -> list[tuple[int, CayleyTable]]:
    """(class id, table) of every member of every class of the order."""
    return [
        (qc.id, alexander_table(LambdaModule(G, phi)))
        for qc in classify_order(order).classes
        for G, phi in qc.members
    ]


def representative_tables(order: int) -> list[CayleyTable]:
    """The table of one structure per conjugacy class, on every carrier."""
    return [
        alexander_table(LambdaModule(G, rep))
        for G in enumerate_groups(order)
        for rep in conjugacy_representatives(G)
    ]


class TestAlexanderTable:
    def test_identity_action_gives_constant_rows(self):
        Q = table("4|1")
        assert all(Q.table[a][b] == a for a in range(4) for b in range(4))

    def test_cyclic_multiplier_formula(self):
        Q = table("4|3")
        assert all(Q.table[a][b] == (3 * a + 2 * b) % 4 for a in range(4) for b in range(4))
        assert Q.table[1][2] == 3

    def test_two_element_trivial(self):
        assert table("2|1").table == ((0, 0), (1, 1))

    @pytest.mark.parametrize("order", [n for n in range(1, 49) if n != 32])
    def test_matches_reference_on_representatives(self, order):
        for G in enumerate_groups(order):
            for rep in conjugacy_representatives(G):
                M = LambdaModule(G, rep)
                assert alexander_table(M) == _reference_alexander_table(M)

    def test_matches_reference_on_linear_quandles_up_to_16(self):
        for n in range(1, 17):
            for a in units(n):
                M = parse_module_spec(f"L{n}/{a}")
                assert alexander_table(M) == _reference_alexander_table(M)


class TestAxioms:
    def test_alexander_tables_pass(self):
        for spec in ["L16/3", "4,4|0,1;3,2", "2,8|1,4;1,3", "1|"]:
            assert check_axioms(table(spec)).ok

    def test_group_addition_fails_idempotence(self):
        verdict = check_axioms(CayleyTable(((0, 1), (1, 0))))
        assert not verdict.ok
        assert verdict.axiom == "idempotence"
        assert verdict.witness == (1,)

    def test_constant_rows_pass(self):
        Q = CayleyTable(tuple(tuple(a for _ in range(5)) for a in range(5)))
        assert check_axioms(Q).ok

    def test_right_invertibility_failure(self):
        verdict = check_axioms(CayleyTable(((0, 0), (1, 1))))
        assert verdict.ok  # this is the 2-element trivial quandle
        verdict = check_axioms(CayleyTable(((0, 1), (1, 1))))
        assert not verdict.ok

    def test_self_distributivity_failure(self):
        # search order 3 for a table that is idempotent with permutation
        # columns yet breaks distributivity, and check the verdict names it
        found = None
        for c0, c1, c2 in itertools.product(itertools.permutations(range(3)), repeat=3):
            if (c0[0], c1[1], c2[2]) != (0, 1, 2):
                continue
            Q = CayleyTable(tuple(zip(c0, c1, c2)))
            verdict = check_axioms(Q)
            if not verdict.ok and verdict.axiom == "self-distributivity":
                found = (Q, verdict)
                break
        assert found is not None
        Q, verdict = found
        a, b, c = verdict.witness
        t = Q.table
        assert t[t[a][b]][c] != t[t[a][c]][t[b][c]]

    def test_matches_reference_on_alexander_tables_up_to_8(self):
        for order in range(1, 9):
            for G in enumerate_groups(order):
                for phi in enumerate_automorphisms(G):
                    M = LambdaModule(G, phi)
                    Q = alexander_table(M)
                    assert Q == _reference_alexander_table(M)
                    assert check_axioms(Q) == reference_axioms(Q) == AxiomVerdict(True)
                    assert orbits(Q) == reference_orbits(Q)

    def test_matches_reference_on_every_idempotent_table_of_order_3(self):
        # columns need not be permutations; the generators' columns are
        # checked first, so one that is not may be found only by the scan
        off_diagonal = [(a, b) for a in range(3) for b in range(3) if a != b]
        axioms = set()
        for values in itertools.product(range(3), repeat=len(off_diagonal)):
            rows = [[a] * 3 for a in range(3)]
            for (a, b), v in zip(off_diagonal, values):
                rows[a][b] = v
            Q = CayleyTable(tuple(map(tuple, rows)))
            verdict = check_axioms(Q)
            assert verdict == reference_axioms(Q)
            axioms.add(verdict.axiom)
        assert axioms == {None, "right-invertibility", "self-distributivity"}

    def test_matches_reference_on_every_order_4_candidate(self):
        # every idempotent table of order 4 with permutation columns, so
        # each one reaches the self-distributivity check
        columns = {
            c: [p for p in itertools.permutations(range(4)) if p[c] == c] for c in range(4)
        }
        verdicts = set()
        for cols in itertools.product(*columns.values()):
            Q = CayleyTable(tuple(zip(*cols)))
            verdict = check_axioms(Q)
            assert verdict == reference_axioms(Q)
            verdicts.add(verdict.ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("order", [16, 27])
    def test_matches_reference_on_corrupted_tables(self, order):
        # A changed entry breaks idempotence or right-invertibility; two
        # entries swapped within a column off the diagonal keep both, so
        # those tables reach the self-distributivity check.
        rng = random.Random(order)
        axioms = set()
        for Q in representative_tables(order):
            for _ in range(2):
                rows = [list(row) for row in Q.table]
                a, b = rng.randrange(order), rng.randrange(order)
                rows[a][b] = rng.choice([v for v in range(order) if v != rows[a][b]])
                bad = CayleyTable(tuple(map(tuple, rows)))
                verdict = check_axioms(bad)
                assert verdict == reference_axioms(bad)
                axioms.add(verdict.axiom)

                rows = [list(row) for row in Q.table]
                c = rng.randrange(order)
                x, y = rng.sample([v for v in range(order) if v != c], 2)
                rows[x][c], rows[y][c] = rows[y][c], rows[x][c]
                swapped = CayleyTable(tuple(map(tuple, rows)))
                verdict = check_axioms(swapped)
                assert verdict == reference_axioms(swapped)
                axioms.add(verdict.axiom)
        assert axioms >= {"idempotence", "right-invertibility", "self-distributivity"}

    def test_matches_reference_on_repeated_columns(self):
        # trivial columns are all the identity, so most are never re-checked
        tables = [trivial(1), trivial(5)] + [trivial_and_r3(m) for m in range(4)]
        # columns 0 and 1 are both (2 3), and that map is not an endomorphism:
        # (0 |> 2) |> 0 = 1, but (0 |> 0) |> (2 |> 0) = 0 |> 3 = 0
        broken = CayleyTable(((0, 0, 1, 0), (1, 1, 0, 1), (3, 3, 2, 2), (2, 2, 3, 3)))
        columns = list(zip(*broken.table))
        assert columns[0] == columns[1] == (0, 1, 3, 2)
        tables.append(broken)
        # swap two R3 rows in every trivial column at once: the trivial
        # columns stay equal to each other, and idempotent
        for m in range(1, 4):
            for x, y in itertools.combinations(range(m, m + 3), 2):
                rows = [list(row) for row in trivial_and_r3(m).table]
                for c in range(m):
                    rows[x][c], rows[y][c] = rows[y][c], rows[x][c]
                tables.append(CayleyTable(tuple(map(tuple, rows))))
        verdicts = [check_axioms(Q) for Q in tables]
        assert verdicts == [reference_axioms(Q) for Q in tables]
        assert verdicts[6] == AxiomVerdict(False, "self-distributivity", (0, 2, 0))
        assert {v.ok for v in verdicts[7:]} == {False}
        assert all(v.ok for v in verdicts[:6])

    def test_malformed_tables_raise(self):
        with pytest.raises(MalformedTableError):
            CayleyTable(((0, 1), (1,)))
        with pytest.raises(MalformedTableError):
            CayleyTable(((0, 5), (1, 0)))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first bad entry of the first bad row, mid-row
            (((0, 1, 2), (1, 7, 9), (2, 0, 5)), "entry [1][1] = 7 out of range for order 3"),
            (((0, 1, 2), (1, 1, -1), (2, 2, 2)), "entry [1][2] = -1 out of range for order 3"),
            # a short row is reported before a later row's bad entry
            (((0, 1, 2), (1, 1), (2, 9, 2)), "row 1 has 2 entries, expected 3"),
            (((0, 3, 2), (1, 1), (2, 2, 2)), "entry [0][1] = 3 out of range for order 3"),
            # an entry that is no element label, though between 0 and n
            (((0, 1.5, 2), (1, 1, 1), (2, 2, 2)), "entry [0][1] = 1.5 out of range for order 3"),
        ],
    )
    def test_malformed_table_message_names_the_first_fault(self, rows, message):
        with pytest.raises(MalformedTableError) as exc:
            CayleyTable(rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize("order", [16, 27])
    def test_generating_set_on_member_tables(self, order):
        # every R_s of the returned set is an automorphism, closing the set
        # under full rows gives the whole table, and orbits match the
        # union-find reference
        rng = random.Random(order)
        for _, Q in member_tables(order):
            perm = list(range(order))
            rng.shuffle(perm)
            for R in (Q, relabel(Q, perm)):
                verdict, generators = quandle._axioms(R)
                assert verdict == AxiomVerdict(True)
                t = R.table
                for s in generators:
                    r_s = [row[s] for row in t]
                    assert sorted(r_s) == list(range(order))
                    pairs = itertools.product(range(order), repeat=2)
                    assert all(r_s[t[a][b]] == t[r_s[a]][r_s[b]] for a, b in pairs)
                inside: set[int] = set()
                grown = set(generators)
                while grown != inside:
                    inside = grown
                    grown = inside | {t[x][y] for x in inside for y in inside}
                assert inside == set(range(order))
                assert orbits(R) == reference_orbits(R)

    def test_failing_tables_return_no_generators(self):
        for Q in (CayleyTable(((0, 1), (1, 0))), CayleyTable(((0, 1), (1, 1)))):
            verdict, generators = quandle._axioms(Q)
            assert not verdict.ok and generators == []


class TestFormatLimit:
    """Tables on both sides of kernels.BYTES_LIMIT: bytes up to 256 elements, tuples above."""

    @pytest.mark.parametrize(
        "spec, compact",
        [("2,128|1,0;0,3", bytes), ("L257/3", tuple), ("17,17|0,1;16,3", tuple)],
    )
    def test_oracle_matches_the_references(self, spec, compact):
        Q = table(spec)
        assert type(Q._compact[1][0]) is compact
        assert check_axioms(Q) == reference_axioms(Q) == AxiomVerdict(True)
        assert orbits(Q) == reference_orbits(Q)
        assert Q._fingerprints == reference_fingerprints(Q)
        R = relabel(Q, random.Random(Q.n).sample(range(Q.n), Q.n))
        witness = brute_force_isomorphic(Q, R)
        assert witness is not None
        assert witness == reference_isomorphic(Q, R)

    @pytest.mark.parametrize("spec", ["2,128|1,0;0,3", "L257/3"])
    def test_is_homomorphism_matches_the_pairwise_check(self, spec):
        Q = table(spec)
        t, n = Q.table, Q.n
        entries, columns, rows = Q._compact
        swap = list(range(n))
        swap[1], swap[2] = 2, 1
        for f in (range(n), columns[n - 1], swap):
            f = type(columns[0])(f)
            pairwise = all(f[t[a][b]] == t[f[a]][f[b]] for a in range(n) for b in range(n))
            assert quandle._is_homomorphism(f, entries, rows) == pairwise
        assert not pairwise  # the swap

    @pytest.mark.parametrize("spec", ["2,128|1,0;0,3", "L257/3"])
    def test_faults_match_the_reference(self, spec):
        # one changed entry: on the diagonal it breaks idempotence, off it
        # a column repeats a value. Neither reaches the n^3 fallback loop.
        Q = table(spec)
        n = Q.n
        rng = random.Random(n)
        a, c = rng.sample(range(n), 2)
        for x, y in ((a, a), (a, c)):
            rows = [list(row) for row in Q.table]
            rows[x][y] = (rows[x][y] + 1) % n
            bad = CayleyTable(tuple(map(tuple, rows)))
            verdict = check_axioms(bad)
            assert verdict == reference_axioms(bad)
            expected = ("idempotence", (a,)) if x == y else ("right-invertibility", (c,))
            assert (verdict.axiom, verdict.witness) == expected


class TestOrbits:
    def test_trivial_quandle_is_discrete(self):
        assert orbits(table("4|1")) == ((0,), (1,), (2,), (3,))

    def test_connected_companion_single_orbit(self):
        Q = table("2,2,2,2|0,1,0,0;0,0,1,0;0,0,0,1;1,1,0,0")
        assert len(orbits(Q)) == 1

    def test_linear_16_3_has_two_orbits(self):
        assert len(orbits(table("L16/3"))) == 2

    def test_orbit_count_is_image_index(self):
        for spec in ["L16/3", "L16/5", "L16/9", "4,4|0,1;3,2", "2,8|1,4;1,1"]:
            M = parse_module_spec(spec)
            Q = alexander_table(M)
            assert len(orbits(Q)) == M.order // len(image_set(M))

    def test_rejects_non_quandles(self):
        with pytest.raises(QuandleAxiomError):
            orbits(CayleyTable(((0, 1), (1, 0))))


class TestTableText:
    def test_roundtrip(self):
        Q = table("4,4|0,1;3,2")
        assert CayleyTable.from_text(Q.to_text()) == Q
        assert CayleyTable.from_text(Q.to_text() + "\n  \n\t\n") == Q

    def test_parse_errors_carry_position(self):
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("x\n")
        assert exc.value.line == 1
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("2\n0 0\n1 x\n")
        assert (exc.value.line, exc.value.column) == (3, 2)
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("2\n0 0\n")
        assert exc.value.line == 3
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("2\n0 0 0\n1 1\n")
        assert exc.value.line == 2
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("2\n0 3\n1 1\n")
        assert (exc.value.line, exc.value.column) == (2, 2)
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("2\n0 0\n1 1\n5 5 5\n")
        assert (exc.value.line, exc.value.column) == (4, None)
        with pytest.raises(TableParseError) as exc:
            CayleyTable.from_text("2\n0 0\n1 1\n\n \n0\n")
        assert exc.value.line == 6


class TestOracle:
    def test_self_isomorphism(self):
        Q = table("L16/3")
        f = brute_force_isomorphic(Q, Q)
        assert f is not None

    def test_order_mismatch_is_negative(self):
        assert brute_force_isomorphic(table("4|3"), table("2|1")) is None

    def test_witness_is_full_homomorphism(self):
        Qa = table("8|3")
        Qb = table("8|7")
        same = brute_force_isomorphic(Qa, Qb)
        # multipliers 3 and 7 mod 8 give isomorphic quandles (images agree)
        assert same is not None
        n = Qa.n
        for a in range(n):
            for b in range(n):
                assert same[Qa.table[a][b]] == Qb.table[same[a]][same[b]]

    def test_orbit_profile_mismatch_is_negative(self):
        assert brute_force_isomorphic(table("4|3"), table("4|1")) is None

    def test_orbit_multisets_match_on_positive(self):
        pairs = [("L16/3", "L16/11"), ("8|3", "8|7")]
        for a, b in pairs:
            Qa, Qb = table(a), table(b)
            assert brute_force_isomorphic(Qa, Qb) is not None
            sizes = lambda Q: sorted(len(block) for block in orbits(Q))
            assert sizes(Qa) == sizes(Qb)

    @pytest.mark.parametrize("order", [16, 27])
    def test_fingerprints_follow_a_relabelling(self, order):
        # fp(relabel(Q, p))[p[a]] == fp(Q)[a], field by field: orbit size,
        # row multiplicities, row fixed points and the cycle type of R_a
        rng = random.Random(order)
        for Q in representative_tables(order)[::4]:
            perm = list(range(order))
            rng.shuffle(perm)
            fp, fp_relabelled = Q._fingerprints, relabel(Q, perm)._fingerprints
            assert all(fp_relabelled[perm[a]] == fp[a] for a in range(order))

    @pytest.mark.parametrize("order", [16, 27])
    def test_fingerprints_match_the_per_element_reference(self, order):
        rng = random.Random(order)
        for Q in representative_tables(order):
            assert Q._fingerprints == reference_fingerprints(Q)
            perm = list(range(order))
            rng.shuffle(perm)
            relabelled = relabel(Q, perm)
            assert relabelled._fingerprints == reference_fingerprints(relabelled)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_fingerprints_on_orbits_of_different_sizes(self, m):
        reversed_labels = list(range(m + 3))[::-1]
        for Q in (trivial(m), trivial_and_r3(m), relabel(trivial_and_r3(m), reversed_labels)):
            assert Q._fingerprints == reference_fingerprints(Q)
        assert set(trivial_and_r3(m)._fingerprints) == {
            (1, (m + 3,), m + 3, (1,) * (m + 3)),  # row a is constant, R_a the identity
            (3, (1, 1, m + 1), m + 1, (1,) * (m + 1) + (2,)),  # a reflection of R3
        }

    @pytest.mark.parametrize("spec", ["16|3", "L16/3", "4,4|0,1;3,2", "27|1"])
    def test_fingerprints_compute_one_cycle_type_per_orbit(self, spec, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return cycle_type(p)

        monkeypatch.setattr(quandle, "cycle_type", counting)
        for Q in (table(spec), trivial_and_r3(2)):
            calls.clear()
            fingerprints = Q._fingerprints
            assert len(calls) == len(orbits(Q))
            assert fingerprints == reference_fingerprints(Q)

    def test_cycle_type_is_a_field(self):
        # R_a on 16|3 is x -> 3x - 2a mod 16, conjugate to x -> 3x: fixed
        # 0 and 8, three 2-cycles on the other evens, two 4-cycles on the odds
        Q = table("16|3")
        cycle_types = {fp[3] for fp in Q._fingerprints}
        assert cycle_types == {(1, 1, 2, 2, 2, 4, 4)}

    def test_axiom_check_runs_once_per_table(self, monkeypatch):
        # `alexq iso` checks both tables before the oracle, and
        # `oracle_class_counts` takes the orbits of a table the oracle has read
        calls = []
        distributes = quandle._distributes_on_generators

        def counting(*form):
            calls.append(form)
            return distributes(*form)

        monkeypatch.setattr(quandle, "_distributes_on_generators", counting)
        Qa, Qb = table("L16/3"), table("L16/11")
        assert check_axioms(Qa).ok and check_axioms(Qb).ok
        assert brute_force_isomorphic(Qa, Qb) is not None
        assert len(orbits(Qa)) == len(orbits(Qb)) == 2
        assert check_axioms(Qa).ok
        assert len(calls) == 2

    def test_table_is_freed_after_the_oracle_returns(self):
        Qa, Qb = table("L16/3"), table("L16/11")
        assert brute_force_isomorphic(Qa, Qb) is not None
        assert Qa._fingerprints is Qa._fingerprints  # computed once per table
        ref = weakref.ref(Qa)
        del Qa
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("order", [16, 27])
    def test_witness_matches_the_all_pairs_reference(self, order):
        # a seeded stream of relabelled member pairs: even pairs from one
        # class, odd pairs from anywhere
        members = member_tables(order)
        by_class: dict[int, list[CayleyTable]] = {}
        for cid, Q in members:
            by_class.setdefault(cid, []).append(Q)
        rng = random.Random(order)
        positive = 0
        for k in range(200):
            cid_a, Qa = rng.choice(members)
            if k % 2 == 0:
                cid_b, Qb = cid_a, rng.choice(by_class[cid_a])
            else:
                cid_b, Qb = rng.choice(members)
            A = relabel(Qa, rng.sample(range(order), order))
            B = relabel(Qb, rng.sample(range(order), order))
            witness = brute_force_isomorphic(A, B)
            assert witness == reference_isomorphic(A, B)
            assert (witness is not None) == (cid_a == cid_b)
            positive += witness is not None
        assert 100 <= positive < 200

    def test_witness_matches_the_reference_on_mixed_orbits(self):
        rng = random.Random(3)
        tables = [trivial_and_r3(m) for m in (1, 2, 4)] + [trivial(5), table("L16/3")]
        for Q in tables:
            for other in (Q, *(R for R in tables if R.n == Q.n and R != Q)):
                A = relabel(Q, rng.sample(range(Q.n), Q.n))
                B = relabel(other, rng.sample(range(Q.n), Q.n))
                witness = brute_force_isomorphic(A, B)
                assert witness == reference_isomorphic(A, B)
                assert (witness is not None) == (other == Q)

    def test_choice_matches_the_set_difference_rule(self, monkeypatch):
        # Pairs drawn as the benchmark draws them (blocks of one pair per
        # order, even blocks from one class, both tables relabelled). At
        # every node the element chosen is the one the earlier rule chose:
        # the least (free candidates, element) over the unmapped elements,
        # with the free candidates found by a set difference per element.
        members = {order: member_tables(order) for order in (16, 27)}
        by_class = {
            order: {cid: [m for m in found if m[0] == cid] for cid, _ in found}
            for order, found in members.items()
        }
        state = {}
        choose = quandle._most_constrained

        def checked(classes, fwd):
            candidates, rev = state["candidates"], {y: x for x, y in fwd.items()}
            expected = min(
                (a for a in range(len(candidates)) if a not in fwd),
                key=lambda a: (len(candidates[a] - rev.keys()), a),
            )
            best = choose(classes, fwd)
            assert best == expected
            state["nodes"] += 1
            return best

        monkeypatch.setattr(quandle, "_most_constrained", checked)
        rng = random.Random(11)
        state["nodes"] = 0
        for k in range(60):
            for order in (16, 27):
                cid_a, Qa = rng.choice(members[order])
                cid_b, Qb = rng.choice(by_class[order][cid_a] if k % 2 == 0 else members[order])
                pa, pb = list(range(order)), list(range(order))
                rng.shuffle(pa)
                rng.shuffle(pb)
                A, B = relabel(Qa, pa), relabel(Qb, pb)
                fp2 = B._fingerprints
                state["candidates"] = [
                    {b for b in range(order) if fp2[b] == fp} for fp in A._fingerprints
                ]
                witness = brute_force_isomorphic(A, B)
                assert (witness is not None) == (cid_a == cid_b)
                assert witness == reference_isomorphic(A, B)
        assert state["nodes"] > 200

    def test_distinguishes_same_profile_structures(self):
        # both connected of order 16, but different modules
        Qa = table("2,2,2,2|0,1,0,0;0,0,1,0;0,0,0,1;1,1,0,0")
        Qb = table("4,4|0,1;1,1")
        assert brute_force_isomorphic(Qa, Qb) is None
