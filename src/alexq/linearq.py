"""Linear Alexander quandles: Z_n with t acting as a unit multiplier.

For these there is a closed-form isomorphism test: with
N(n, a) = n / gcd(n, 1 - a), the quandles for multipliers a and b are
isomorphic iff N(n, a) = N(n, b) and a = b mod N(n, a). This is the fast
path the generic machinery is checked against.
"""

from __future__ import annotations

import math
import re

from .abelian import AbelianGroup, _Frozen
from .autgroup import Automorphism
from .errors import SpecError
from .lambda_modules import LambdaModule


class LinearQuandleSpec(_Frozen):
    """Modulus n and unit multiplier a, written "L<n>/<a>"."""

    n: int
    a: int

    def __init__(self, n: int, a: int) -> None:
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        if not 0 <= a < n and not (n == 1 and a == 0):
            raise ValueError(f"multiplier {a} not reduced modulo {n}")
        if math.gcd(a, n) != 1:
            raise ValueError(f"multiplier {a} is not a unit modulo {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)

    def shorthand(self) -> str:
        return f"L{self.n}/{self.a}"

    @classmethod
    def from_shorthand(cls, text: str) -> LinearQuandleSpec:
        m = re.fullmatch(r"[Ll](\d+)/(\d+)", text.strip())
        if not m:
            raise SpecError(f"bad linear quandle spec {text!r}: expected 'L<n>/<a>'")
        try:
            return cls(int(m.group(1)), int(m.group(2)))
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    def __str__(self) -> str:
        return self.shorthand()


def units(n: int) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    return tuple(a for a in range(n) if math.gcd(a, n) == 1)


def _require_unit(n: int, a: int) -> None:
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")


def capital_n(n: int, a: int) -> int:
    """N(n, a) = n / gcd(n, 1 - a), with gcd(n, 0) = n.

    >>> capital_n(16, 1), capital_n(16, 3), capital_n(16, 5), capital_n(16, 9)
    (1, 8, 4, 2)
    """
    _require_unit(n, a)
    return n // math.gcd(n, (1 - a) % n)


def linear_isomorphic(n: int, a: int, b: int) -> bool:
    """The closed-form criterion: N values equal and a = b mod N."""
    _require_unit(n, a)
    _require_unit(n, b)
    na, nb = capital_n(n, a), capital_n(n, b)
    return na == nb and (a - b) % na == 0


def classify_linear(n: int) -> tuple[tuple[int, ...], ...]:
    """Partition of the units mod n into quandle-isomorphism classes.

    Classes are sorted by least member and each class lists its members
    ascending.

    >>> classify_linear(16)
    ((1,), (3, 11), (5, 13), (7, 15), (9,))
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    # the key (N, a mod N) is exactly the `linear_isomorphic` relation
    classes: dict[tuple[int, int], list[int]] = {}
    for a in units(n):
        classes.setdefault((N := capital_n(n, a), a % N), []).append(a)
    return tuple(tuple(cls) for cls in classes.values())


def build_linear(spec: LinearQuandleSpec) -> LambdaModule:
    """The module Z_n with t = multiplication by a."""
    if spec.n == 1:
        G = AbelianGroup(())
        return LambdaModule(G, Automorphism(G, ()))
    G = AbelianGroup((spec.n,))
    return LambdaModule(G, Automorphism(G, ((spec.a,),)))
