import doctest

import pytest

import alexq.abelian
import alexq.autgroup
import alexq.lambda_modules
import alexq.linearq
import alexq.polymod
import alexq.quandle


@pytest.mark.parametrize(
    "mod",
    [
        alexq.abelian,
        alexq.autgroup,
        alexq.lambda_modules,
        alexq.linearq,
        alexq.polymod,
        alexq.quandle,
    ],
    ids=lambda mod: mod.__name__,
)
def test_module_doctests(mod):
    result = doctest.testmod(mod)
    assert result.failed == 0
    # a module whose examples were all deleted would otherwise pass
    assert result.attempted > 0
