import itertools
import math
import random
from collections import Counter

import pytest

from alexq.abelian import (
    AbelianGroup,
    _invariant_decomposition,
    _prime_factorization,
    enumerate_groups,
)
from alexq.autgroup import (
    Automorphism,
    _group_tables,
    conjugacy_representatives,
    identity_automorphism,
    is_conjugate,
    lex_least_conjugate,
)
from alexq.errors import SpecError
from alexq.lambda_modules import (
    LambdaModule,
    _eigen_counts,
    _grouped,
    _image_indices,
    _primary_parts,
    _scalar_candidate,
    canonical_label,
    cyclic_name,
    image_one_minus_t,
    is_connected,
    is_lambda_isomorphic,
    parse_module_spec,
    poly_descending_name,
    scalar_cyclic_module,
)
from alexq.linearq import LinearQuandleSpec, build_linear
from alexq.polymod import build, enumerate_specs

from helpers import (
    enumerate_automorphisms,
    image_set,
    reference_decomposition,
    subgroup_structure,
)


def module(spec: str) -> LambdaModule:
    return parse_module_spec(spec)


class TestImage:
    def test_linear_16_times_3(self):
        img = image_one_minus_t(module("L16/3"))
        assert img.group.factors == (8,)
        assert img.t.images == ((3,),)

    def test_identity_action_has_zero_image(self):
        for spec in ["L16/1", "4,4|1,0;0,1"]:
            img = image_one_minus_t(module(spec))
            assert img.order == 1

    def test_connected_companion_maps_onto_itself(self):
        # multiplication by t modulo 1 + t + t^4 on (Z2)^4
        M = module("2,2,2,2|0,1,0,0;0,0,1,0;0,0,0,1;1,1,0,0")
        assert len(image_set(M)) == 16
        img = image_one_minus_t(M)
        assert img.group == M.group
        assert is_lambda_isomorphic(img, M) is not None

    def test_image_is_action_stable(self):
        for spec in ["L16/3", "L16/5", "4,4|0,1;3,2", "2,8|1,4;1,1"]:
            M = module(spec)
            img = image_set(M)
            for x in img:
                assert M.t.apply(x) in img

    def test_orbit_index_relation(self):
        # |image| divides |M| for every automorphism on a few carriers
        for factors in [(8,), (2, 4)]:
            G = AbelianGroup(factors)
            for f in enumerate_automorphisms(G):
                M = LambdaModule(G, f)
                assert G.order % len(image_set(M)) == 0


class TestIsomorphism:
    def test_self_isomorphic_identity_witness(self):
        M = module("4,4|0,1;3,2")
        h = is_lambda_isomorphic(M, M)
        assert h is not None

    def test_witness_commutes(self):
        M = module("4,4|0,1;1,1")
        M2 = module("4,4|2,1;3,3")  # lies in M's conjugacy class
        h = is_lambda_isomorphic(M, M2)
        assert h is not None
        for x in M.group.elements:
            assert h.apply(M.t.apply(x)) == M2.t.apply(h.apply(x))

    def test_cyclic_multipliers_distinguish(self):
        assert is_lambda_isomorphic(module("8|3"), module("8|7")) is None

    def test_image_of_l16_9_is_two_element_trivial(self):
        img = image_one_minus_t(module("L16/9"))
        assert is_lambda_isomorphic(img, module("2|1")) is not None

    def test_factor_mismatch_is_false(self):
        assert is_lambda_isomorphic(module("4|1"), module("2,2|1,0;0,1")) is None

    def test_agrees_with_conjugacy_on_shared_carrier(self):
        G = AbelianGroup((2, 4))
        auts = enumerate_automorphisms(G)
        for f, g in itertools.product(auts, repeat=2):
            lam = is_lambda_isomorphic(LambdaModule(G, f), LambdaModule(G, g))
            conj = is_conjugate(G, f, g)
            assert (lam is None) == (conj is None), (f.spec(), g.spec())

    def test_functorial_on_images(self):
        G = AbelianGroup((4, 4))
        auts = enumerate_automorphisms(G)
        pairs = [(auts[3], auts[11]), (auts[7], auts[40])]
        for f, g in pairs:
            M, M2 = LambdaModule(G, f), LambdaModule(G, g)
            if is_lambda_isomorphic(M, M2) is not None:
                assert (
                    is_lambda_isomorphic(image_one_minus_t(M), image_one_minus_t(M2))
                    is not None
                )


class TestConnectivity:
    def test_identity_disconnected(self):
        assert not is_connected(module("L16/1"))
        assert not is_connected(module("2|1"))

    def test_full_cycle_companion_connected(self):
        # multiplication by t modulo 1+t+t^2+t^3+t^4 on (Z2)^4
        M = module("2,2,2,2|0,1,0,0;0,0,1,0;0,0,0,1;1,1,1,1")
        assert is_connected(M)

    def test_z4z4_starred_row_connected(self):
        assert is_connected(module("4,4|0,1;1,1"))

    def test_connectivity_is_image_cardinality(self):
        for spec in ["L16/3", "L16/1", "4,4|0,1;1,1", "2,8|1,4;1,1"]:
            M = module(spec)
            assert is_connected(M) == (len(image_set(M)) == M.order)


class TestLabels:
    def test_cyclic_scalar_labels(self):
        assert canonical_label(module("8|3")) == "Λ8/t-3"
        assert canonical_label(module("8|7")) == "Λ8/t-7"
        assert canonical_label(module("4|1")) == "Λ4/t+3"
        assert canonical_label(module("4|3")) == "Λ4/t+1"
        assert canonical_label(module("2|1")) == "Λ2/t+1"
        assert canonical_label(module("16|3")) == "Λ16/t-3"

    def test_zero_module(self):
        assert canonical_label(module("1|")) == "0"

    def test_binary_carrier_chain_labels(self):
        assert canonical_label(module("2,2|1,0;0,1")) == "(Λ2/t+1)^2"
        assert canonical_label(module("2,2|0,1;1,1")) == "Λ2/t^2+t+1"
        assert canonical_label(module("2,2|0,1;1,0")) == "Λ2/t^2+1"

    def test_squared_quadratic_label(self):
        M = module("2,2,2,2|0,1,0,0;1,1,0,0;0,0,0,1;0,0,1,1")
        assert canonical_label(M) == "(Λ2/t^2+t+1)^2"

    def test_fallback_label_embeds_least_conjugate(self):
        label = canonical_label(module("4,4|0,1;1,1"))
        assert label == "(4,4; t=0,1;1,1)"

    def test_empty_scalar_sum_is_zero_module(self):
        M = scalar_cyclic_module(())
        assert M.group.factors == ()
        assert M.spec() == "1|"
        assert canonical_label(M) == "0"

    def test_scalar_summands_must_be_prime_powers(self):
        with pytest.raises(ValueError):
            scalar_cyclic_module(((6, 1),))

    def test_mixed_scalar_sum_label(self):
        M = scalar_cyclic_module(((2, 1), (8, 3)))
        assert M.group.factors == (2, 8)
        assert canonical_label(M) == "Λ2/t+1⊕Λ8/t-3"

    def test_cyclic_name_conventions(self):
        assert cyclic_name(4, 1) == "Λ4/t+3"
        assert cyclic_name(4, 3) == "Λ4/t+1"
        assert cyclic_name(2, 1) == "Λ2/t+1"
        assert cyclic_name(8, 5) == "Λ8/t-5"

    def test_label_soundness_order_8_carriers(self):
        # equal labels iff isomorphic, across every structure of order 8
        mods = []
        for factors in [(8,), (2, 4), (2, 2, 2)]:
            G = AbelianGroup(factors)
            for f in enumerate_automorphisms(G):
                mods.append(LambdaModule(G, f))
        labels = {M: canonical_label(M) for M in mods}
        import random

        rng = random.Random(7)
        for M, M2 in rng.sample(list(itertools.product(mods, repeat=2)), 300):
            iso = is_lambda_isomorphic(M, M2) is not None
            assert iso == (labels[M] == labels[M2]), (M.spec(), M2.spec())


class TestModuleSpec:
    def test_roundtrip(self):
        M = module("4,4|0,1;3,2")
        assert M.spec() == "4,4|0,1;3,2"

    def test_linear_shorthand(self):
        M = module("L16/3")
        assert M.group.factors == (16,)
        assert M.t.images == ((3,),)

    def test_errors(self):
        with pytest.raises(SpecError):
            parse_module_spec("garbage")
        with pytest.raises(SpecError):
            parse_module_spec("L16/2")  # not a unit
        with pytest.raises(SpecError):
            parse_module_spec("4,4|0,1")


# --- the routes the computed image and labels replaced ---------------------


def _reference_image(M: LambdaModule) -> LambdaModule:
    """Im(1 - t) through checked element tuples and `subgroup_structure`.

    The image is generated by the images e_i - t(e_i) of the generators.
    """
    G = M.group
    S = subgroup_structure(G, [G.sub(e, M.t.apply(e)) for e in G.generators()])
    for x in S.elements:
        assert M.t.apply(x) in S.elements
    carrier = S.as_group()
    images = tuple(S.coordinates[M.t.apply(b)] for b in S.basis)
    return LambdaModule(carrier, Automorphism(carrier, images))


def _reference_label(M: LambdaModule) -> str:
    """canonical_label by trial: every scalar-cyclic candidate, then every chain."""
    if M.order == 1:
        return "0"
    primary = _primary_parts(M.group.factors)
    units = [[a for a in range(q) if math.gcd(a, q) == 1] for q in primary]
    for pairs in sorted({tuple(sorted(zip(primary, c))) for c in itertools.product(*units)}):
        if is_lambda_isomorphic(M, scalar_cyclic_module(pairs)) is not None:
            return _grouped(sorted(cyclic_name(q, a) for q, a in pairs))
    factors = M.group.factors
    p = factors[0]
    if len(set(factors)) == 1 and all(p % d for d in range(2, p)):
        for spec in enumerate_specs(p, M.group.rank):
            if is_lambda_isomorphic(M, build(spec)) is not None:
                return _grouped([f"Λ{p}/{poly_descending_name(h.coeffs)}" for h in spec.chain])
        raise AssertionError(f"no chain matches {M.spec()}")
    return f"({M.group.spec()}; t={lex_least_conjugate(M.group, M.t).spec()})"


@pytest.fixture(scope="module")
def representative_modules():
    """Every conjugacy-representative module of orders 2 to 48 but 32."""
    return [
        LambdaModule(G, rep)
        for order in range(2, 49)
        if order != 32
        for G in enumerate_groups(order)
        for rep in conjugacy_representatives(G)
    ]


@pytest.fixture(scope="module")
def chain_modules():
    """The divisor-chain module of every spec of total degree (2, 5), (3, 4), (5, 3)."""
    return [build(spec) for p, k in ((2, 5), (3, 4), (5, 3)) for spec in enumerate_specs(p, k)]


def _random_modules(spec: str, count: int, seed: int) -> list[LambdaModule]:
    """Seeded random modules on the carrier spec, drawn without listing Aut.

    Each generator image is drawn from the elements whose order divides
    that generator's order; a draw that is not bijective is rejected.
    """
    G = AbelianGroup.from_spec(spec)
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        images = [
            tuple(rng.randrange(math.gcd(d, e)) * (d // math.gcd(d, e)) for d in G.factors)
            for e in G.factors
        ]
        try:
            found.append(LambdaModule(G, Automorphism(G, images)))
        except ValueError:
            pass
    return found


class TestDecomposition:
    def test_matches_reference(self, representative_modules, chain_modules):
        randoms = [
            M
            for spec in ("2,2,4,8", "3,9,9", "17,17", "257")
            for M in _random_modules(spec, 15, seed=23)
        ]
        mismatches = []
        for M in representative_modules + chain_modules + randoms:
            rows, _ = _group_tables(M.group)
            img = _image_indices(M)
            reference = reference_decomposition(img, lambda x, y: rows[x][y], 0)
            if _invariant_decomposition(img, rows) != reference:
                mismatches.append(M.spec())
        assert mismatches == []

    def test_connected_image_is_the_module(self, representative_modules, chain_modules):
        # the greedy picks the standard generators and lifts nothing, so the
        # report prints a connected class's image as the module itself
        connected = [M for M in representative_modules + chain_modules if is_connected(M)]
        assert len(connected) == 638
        assert [M.spec() for M in connected if image_one_minus_t(M) != M] == []


class TestComputedRoutes:
    def test_image_matches_reference_on_every_representative(self, representative_modules):
        mismatches = [
            M.spec()
            for M in representative_modules
            if image_one_minus_t(M) != _reference_image(M)
        ]
        assert mismatches == []

    def test_label_matches_reference_on_every_distinct_image(self, representative_modules):
        images = {image_one_minus_t(M) for M in representative_modules}
        mismatches = [
            (M.spec(), canonical_label(M), _reference_label(M))
            for M in sorted(images, key=LambdaModule.spec)
            if canonical_label(M) != _reference_label(M)
        ]
        assert mismatches == []

    def test_eigen_counts_match_the_walk(self, representative_modules):
        modules = {*representative_modules, *map(image_one_minus_t, representative_modules)}
        modules.update(map(parse_module_spec, _LARGE_MODULE_SPECS))
        mismatches = [
            M.spec()
            for M in sorted(modules, key=LambdaModule.spec)
            if M.order > 1 and _eigen_counts(M) != _reference_eigen_counts(M)
        ]
        assert mismatches == []

    def test_scalar_candidate_matches_the_residue_sums(
        self, representative_modules, chain_modules
    ):
        modules = {*representative_modules, *map(image_one_minus_t, representative_modules)}
        modules.update(chain_modules)
        modules.update(map(parse_module_spec, _LARGE_MODULE_SPECS))
        modules.update(parse_module_spec(f"L251/{a}") for a in (2, 3, 6, 250))
        mismatches = [
            M.spec()
            for M in sorted(modules, key=LambdaModule.spec)
            if M.order > 1 and _scalar_candidate(M) != _reference_scalar_candidate(M)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("factors", [(2, 4), (4, 4), (3, 9), (2, 2, 2), (3, 3)])
    def test_routes_agree_on_every_automorphism(self, factors):
        G = AbelianGroup(factors)
        for f in enumerate_automorphisms(G):
            M = LambdaModule(G, f)
            assert image_one_minus_t(M) == _reference_image(M), M.spec()
            assert canonical_label(M) == _reference_label(M), M.spec()

    @pytest.mark.parametrize(
        "p, k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3)]
    )
    def test_divisor_chain_round_trip(self, p, k):
        # each chain module is labelled by its chain, or by its scalar
        # summands when t is diagonalisable (the last chain entry splits
        # into distinct linear factors); distinct chains, distinct labels
        labels = []
        for spec in enumerate_specs(p, k):
            roots = [
                [r for r in range(1, p) if _evaluate(h.coeffs, r, p) == 0] for h in spec.chain
            ]
            if len(roots[-1]) == spec.chain[-1].degree:
                names = sorted(cyclic_name(p, r) for rs in roots for r in rs)
            else:
                names = [f"Λ{p}/{poly_descending_name(h.coeffs)}" for h in spec.chain]
            label = canonical_label(build(spec))
            assert label == _grouped(names), str(spec)
            labels.append(label)
        assert len(set(labels)) == len(labels)


# carriers of 243 to 289 elements, with exponents up to 257
_LARGE_MODULE_SPECS = (
    "17,17|0,1;16,3",
    "17,17|3,0;0,5",
    "L257/3",
    "2,128|1,0;0,3",
    "3,9,9|2,0,0;0,1,1;0,0,1",
    "4,64|1,16;0,3",
)


def _reference_eigen_counts(M: LambdaModule) -> Counter:
    """The walk `_eigen_counts` replaced: each x's cyclic subgroup, built by
    repeated addition, gives its order and the rho of t(x) = rho*x."""
    rows, _ = _group_tables(M.group)
    eigen: Counter = Counter()
    for x in range(1, M.order):
        multiples = [0, x]
        y = rows[x][x]
        while y:
            multiples.append(y)
            y = rows[y][x]
        factorization = _prime_factorization(len(multiples))
        tx = M.t.perm[x]
        if len(factorization) == 1 and tx in multiples:
            ((p, g),) = factorization.items()
            eigen[p, g, multiples.index(tx)] += 1
    return eigen


def _reference_scalar_candidate(M: LambdaModule) -> tuple[tuple[int, int], ...] | None:
    """`_scalar_candidate` with the sum it replaced: each residue r of level
    f subtracts above[r + j*p^f] for all p values of j, one lookup at a time."""
    eigen = _eigen_counts(M)
    pairs = []
    for p, top in sorted(_prime_factorization(M.group.factors[-1]).items()):
        log_n = [
            {
                r: _prime_factorization(
                    1 + sum(eigen[p, g, r % p**g] for g in range(1, f + 1))
                ).get(p, 0)
                for r in range(p**f)
                if r % p
            }
            for f in range(top + 1)
        ]
        above: dict[int, int] = {}
        for f in range(top, 0, -1):
            q = p**f
            level = {
                r: log - log_n[f - 1].get(r % (q // p), 0) for r, log in log_n[f].items()
            }
            for r, c in level.items():
                exact = c - sum(above.get(r + j * q, 0) for j in range(p))
                if exact < 0:
                    return None
                pairs.extend([(q, r)] * exact)
            above = level
    pairs.sort()
    if [q for q, _ in pairs] != _primary_parts(M.group.factors):
        return None
    return tuple(pairs)


def _evaluate(coeffs: tuple[int, ...], x: int, p: int) -> int:
    return sum(c * x**j for j, c in enumerate(coeffs)) % p
