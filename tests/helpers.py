"""Helpers shared by the test modules."""

from alexq.abelian import Element
from alexq.lambda_modules import LambdaModule, _image_indices


def image_set(M: LambdaModule) -> set[Element]:
    """Im(1 - t) as a set of coordinate tuples."""
    elements = M.group.elements
    return {elements[i] for i in _image_indices(M)}
