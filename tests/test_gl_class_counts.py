"""The per-carrier class counts of (Z_p)^k against a closed form.

On (Z_p)^k, Aut is GL_k(p) and the report counts one class per conjugacy
class of it. A class of GL_k(F_q) is fixed by its rational canonical form:
a partition for each monic irreducible f != x, of total degree k. So the
number of classes is the coefficient of x^k in
prod_{f != x} prod_{i >= 1} (1 - x^(i deg f))^-1. The quandle is connected
exactly when 1 - t is bijective, that is when x - 1 does not divide the
characteristic polynomial, so dropping f = x - 1 as well counts the
connected classes. The irreducibles are counted by Gauss's formula with
the Möbius function; nothing here but the report and the divisor chains
comes from alexq.
"""

import pytest

from alexq import classify_order, polymod


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _irreducible_count(p: int, d: int) -> int:
    """Monic irreducible polynomials of degree d over F_p."""
    return sum(_mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d


def _gl_class_count(p: int, k: int, excluded_linear: int) -> int:
    """The coefficient of x^k in the product over the irreducibles, leaving
    out `excluded_linear` of the degree-1 ones (x, and x - 1 as well)."""
    coefficients = [1] + [0] * k
    for d in range(1, k + 1):
        count = _irreducible_count(p, d) - (excluded_linear if d == 1 else 0)
        for _ in range(count):
            for step in range(d, k + 1, d):
                # times 1 / (1 - x^step)
                for m in range(step, k + 1):
                    coefficients[m] += coefficients[m - step]
    return coefficients[k]


# p^k: (classes, connected), the table the closed form must reproduce
EXPECTED = {
    (2, 1): (1, 0),
    (2, 2): (3, 1),
    (2, 3): (6, 2),
    (2, 4): (14, 5),
    (3, 1): (2, 1),
    (3, 2): (8, 5),
    (3, 3): (24, 14),
    (5, 1): (4, 3),
    (5, 2): (24, 19),
    (7, 1): (6, 5),
    (7, 2): (48, 41),
}


@pytest.mark.parametrize("p, k", sorted(EXPECTED))
def test_closed_form_gives_the_known_values(p, k):
    assert (_gl_class_count(p, k, 1), _gl_class_count(p, k, 2)) == EXPECTED[p, k]


# p^k: (classes, connected) of the carriers whose Aut is over the enumeration
# budget (2^5, 3^4) or is 1,488,000 maps long (5^3). The report finds their
# classes by the least-member scan, which lists no Aut; the divisor chains
# alone must give the same counts.
CHAIN_ROUTE = {
    (2, 5): (27, 8),
    (3, 4): (78, 46),
    (5, 3): (120, 92),
}


@pytest.mark.parametrize("p, k", sorted(EXPECTED.keys() | CHAIN_ROUTE.keys()))
def test_elementary_carrier_counts_match_gl_classes(p, k, tmp_path):
    report = classify_order(p**k, cache_dir=str(tmp_path))
    spec = ",".join([str(p)] * k)
    connected = sum(
        1 for qc in report.classes if qc.connected and any(g.spec() == spec for g, _ in qc.members)
    )
    assert (report.per_group_counts[spec], connected) == (
        _gl_class_count(p, k, 1),
        _gl_class_count(p, k, 2),
    )


@pytest.mark.parametrize("p, k", sorted(CHAIN_ROUTE))
def test_divisor_chains_match_gl_classes(p, k):
    # a chain's module is connected when 1 - t is bijective, that is when
    # its last entry, which every other entry divides, does not vanish at 1
    specs = polymod.enumerate_specs(p, k)
    connected = sum(1 for spec in specs if sum(spec.chain[-1].coeffs) % p)
    assert (_gl_class_count(p, k, 1), _gl_class_count(p, k, 2)) == CHAIN_ROUTE[p, k]
    assert (len(specs), connected) == CHAIN_ROUTE[p, k]
