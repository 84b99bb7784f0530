import gc
import itertools
import random
import weakref

import pytest

from alexq.abelian import enumerate_groups
from alexq.autgroup import conjugacy_representatives, enumerate_automorphisms
from alexq.errors import TableParseError
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

from helpers import image_set


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


def relabel(Q: CayleyTable, perm: list[int]) -> CayleyTable:
    """The table with every element x renamed perm[x]."""
    rows = [[0] * Q.n for _ in range(Q.n)]
    for a, row in enumerate(Q.table):
        for b, v in enumerate(row):
            rows[perm[a]][perm[b]] = perm[v]
    return CayleyTable(tuple(map(tuple, rows)))


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

    def test_malformed_tables_raise(self):
        with pytest.raises(MalformedTableError):
            CayleyTable(((0, 1), (1,)))
        with pytest.raises(MalformedTableError):
            CayleyTable(((0, 5), (1, 0)))


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

    def test_cycle_type_is_a_field(self):
        # R_a on 16|3 is x -> 3x - 2a mod 16, conjugate to x -> 3x: fixed
        # 0 and 8, three 2-cycles on the other evens, two 4-cycles on the odds
        Q = table("16|3")
        cycle_types = {fp[3] for fp in Q._fingerprints}
        assert cycle_types == {(1, 1, 2, 2, 2, 4, 4)}

    def test_table_is_freed_after_the_oracle_returns(self):
        Qa, Qb = table("L16/3"), table("L16/11")
        assert brute_force_isomorphic(Qa, Qb) is not None
        assert Qa._fingerprints is Qa._fingerprints  # computed once per table
        ref = weakref.ref(Qa)
        del Qa
        gc.collect()
        assert ref() is None

    def test_distinguishes_same_profile_structures(self):
        # both connected of order 16, but different modules
        Qa = table("2,2,2,2|0,1,0,0;0,0,1,0;0,0,0,1;1,1,0,0")
        Qb = table("4,4|0,1;1,1")
        assert brute_force_isomorphic(Qa, Qb) is None
