import itertools
import math

import pytest

from alexq.errors import SpecError
from alexq.lambda_modules import image_one_minus_t, is_lambda_isomorphic
from alexq.linearq import (
    LinearQuandleSpec,
    build_linear,
    capital_n,
    classify_linear,
    linear_isomorphic,
    units,
)
from alexq.quandle import alexander_table, brute_force_isomorphic


class TestCapitalN:
    def test_identity_multiplier(self):
        assert capital_n(16, 1) == 1

    def test_mod_16_values(self):
        assert [capital_n(16, a) for a in (3, 5, 7, 9)] == [8, 4, 8, 2]

    def test_rejects_non_units(self):
        with pytest.raises(ValueError):
            capital_n(16, 2)


class TestLinearIsomorphic:
    def test_known_pair(self):
        assert linear_isomorphic(16, 3, 11)

    def test_reflexive(self):
        for a in units(16):
            assert linear_isomorphic(16, a, a)

    def test_known_non_pair(self):
        assert not linear_isomorphic(16, 3, 5)

    def test_equivalence_relation_up_to_16(self):
        for n in range(1, 17):
            us = units(n)
            for a, b in itertools.product(us, repeat=2):
                assert linear_isomorphic(n, a, b) == linear_isomorphic(n, b, a)
            for a, b, c in itertools.product(us[:6], repeat=3):
                if linear_isomorphic(n, a, b) and linear_isomorphic(n, b, c):
                    assert linear_isomorphic(n, a, c)


class TestClassifyLinear:
    def test_mod_16(self):
        assert classify_linear(16) == ((1,), (3, 11), (5, 13), (7, 15), (9,))

    def test_mod_2(self):
        assert classify_linear(2) == ((1,),)

    def test_matches_pairwise_reference_up_to_300(self):
        for n in range(1, 301):
            assert classify_linear(n) == _pairwise_classes(n), n

    def test_mod_15_against_oracle(self):
        classes = classify_linear(15)
        assert sorted(a for cls in classes for a in cls) == list(units(15))
        tables = {a: alexander_table(build_linear(LinearQuandleSpec(15, a))) for a in units(15)}
        for a, b in itertools.combinations(units(15), 2):
            oracle = brute_force_isomorphic(tables[a], tables[b]) is not None
            assert oracle == linear_isomorphic(15, a, b), (a, b)


def _pairwise_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """classify_linear by testing each unit against every class found so far."""
    classes: list[list[int]] = []
    for a in units(n):
        for cls in classes:
            if linear_isomorphic(n, cls[0], a):
                cls.append(a)
                break
        else:
            classes.append([a])
    return tuple(tuple(cls) for cls in classes)


class TestBuildLinear:
    def test_trivial_action(self):
        M = build_linear(LinearQuandleSpec(16, 1))
        assert all(M.t.apply(x) == x for x in M.group.elements)

    def test_order_one(self):
        M = build_linear(LinearQuandleSpec(1, 0))
        assert M.order == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinearQuandleSpec(16, 2)
        with pytest.raises(ValueError):
            LinearQuandleSpec(16, 17)
        with pytest.raises(SpecError):
            LinearQuandleSpec.from_shorthand("X16/3")

    def test_shorthand_roundtrip(self):
        spec = LinearQuandleSpec.from_shorthand("L16/3")
        assert (spec.n, spec.a) == (16, 3)
        assert spec.shorthand() == "L16/3"


class TestAgreement:
    def test_closed_form_matches_image_criterion_up_to_16(self):
        for n in range(1, 17):
            images = {
                a: image_one_minus_t(build_linear(LinearQuandleSpec(n, a)))
                for a in units(n)
            }
            for a, b in itertools.combinations(units(n), 2):
                closed = linear_isomorphic(n, a, b)
                generic = is_lambda_isomorphic(images[a], images[b]) is not None
                assert closed == generic, (n, a, b)

    def test_closed_form_matches_oracle_up_to_8(self):
        for n in range(1, 9):
            tables = {
                a: alexander_table(build_linear(LinearQuandleSpec(n, a)))
                for a in units(n)
            }
            for a, b in itertools.combinations(units(n), 2):
                oracle = brute_force_isomorphic(tables[a], tables[b]) is not None
                assert oracle == linear_isomorphic(n, a, b), (n, a, b)
