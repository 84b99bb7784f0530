import contextlib
import doctest
import io
from pathlib import Path

import pytest

import alexq.abelian
import alexq.autgroup
import alexq.kernels
import alexq.lambda_modules
import alexq.linearq
import alexq.polymod
import alexq.quandle


@pytest.mark.parametrize(
    "mod",
    [
        alexq.abelian,
        alexq.autgroup,
        alexq.kernels,
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


def test_readme_library_example():
    """The python block under README's `## Library` prints, line by line,
    what the `# ...` comments of its print calls say."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert len(expected) == 3
    assert out.getvalue().splitlines() == expected
