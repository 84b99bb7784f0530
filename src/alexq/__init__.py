"""Classification of finite Alexander quandles.

An Alexander quandle is a finite abelian group M with an automorphism t,
carrying the operation a |> b = t(a) + b - t(b). Two such quandles of equal
order are isomorphic exactly when their image modules under 1 - t are
isomorphic as (group, action) pairs, so classification reduces to
enumerating carriers, reducing automorphisms to conjugacy classes, and
merging by image. An independent Cayley-table oracle validates the
criterion at small orders.
"""

from ._version import __version__
from .abelian import (
    AbelianGroup,
    enumerate_groups,
    normalize_cyclic_orders,
)
from .autgroup import (
    ENUMERATION_BUDGET,
    Automorphism,
    Endomorphism,
    conjugacy_representatives,
    identity_automorphism,
    is_conjugate,
    lex_least_conjugate,
)
from .classify import (
    ClassificationReport,
    CrossValidation,
    QuandleClass,
    classify_order,
    classify_range,
    cross_validate,
    oracle_class_counts,
)
from .errors import (
    ConsistencyError,
    EnumerationBudgetError,
    SpecError,
    TableParseError,
)
from .lambda_modules import (
    LambdaModule,
    canonical_label,
    image_one_minus_t,
    is_connected,
    is_lambda_isomorphic,
    parse_module_spec,
    scalar_cyclic_module,
)
from .linearq import (
    LinearQuandleSpec,
    build_linear,
    capital_n,
    classify_linear,
    linear_isomorphic,
)
from .polymod import Poly, PolySpec, enumerate_specs
from .quandle import (
    AxiomVerdict,
    CayleyTable,
    alexander_table,
    brute_force_isomorphic,
    check_axioms,
    orbits,
)

__all__ = [
    "__version__",
    "AbelianGroup",
    "enumerate_groups",
    "normalize_cyclic_orders",
    "ENUMERATION_BUDGET",
    "Automorphism",
    "Endomorphism",
    "conjugacy_representatives",
    "identity_automorphism",
    "is_conjugate",
    "lex_least_conjugate",
    "ClassificationReport",
    "CrossValidation",
    "QuandleClass",
    "classify_order",
    "classify_range",
    "cross_validate",
    "oracle_class_counts",
    "ConsistencyError",
    "EnumerationBudgetError",
    "SpecError",
    "TableParseError",
    "LambdaModule",
    "canonical_label",
    "image_one_minus_t",
    "is_connected",
    "is_lambda_isomorphic",
    "parse_module_spec",
    "scalar_cyclic_module",
    "LinearQuandleSpec",
    "build_linear",
    "capital_n",
    "classify_linear",
    "linear_isomorphic",
    "Poly",
    "PolySpec",
    "enumerate_specs",
    "AxiomVerdict",
    "CayleyTable",
    "alexander_table",
    "brute_force_isomorphic",
    "check_axioms",
    "orbits",
]
