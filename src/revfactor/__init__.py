"""Exact factorization of truncated formal maps into reversible or
involutive factors, over the fixed coefficient field Q(i, r3)."""

from .scalars import (  # noqa: F401
    Scalar,
    FieldExtensionError,
    parse_scalar,
    format_scalar,
    scalar,
)
from .series import (  # noqa: F401
    Series,
    SeriesFormatError,
    TruncationMismatch,
    format_series,
    parse_series,
)
from .maps import (  # noqa: F401
    FormalMap,
    Matrix,
    conjugate,
    format_map,
    is_involution,
    map_compose,
    map_invert,
    parse_map,
)
from .normalform import (  # noqa: F401
    Obstruction,
    Witness,
    poincare_dulac,
    verify_witness,
)
from .structure import (  # noqa: F401
    PairedDiagonal,
    ShapeError,
    centralizer_membership,
    kernel_embed,
    lift_section,
    make_centralizer,
    pair_swap,
    project_base,
    split_centralizer,
)
from .factor import (  # noqa: F401
    CertificateError,
    Factor,
    FactorObstruction,
    Factorization,
    certificate,
    certificate_factorization,
    factor_budget,
    factor_involutions,
    factor_reversibles,
    format_certificate,
    parse_certificate,
    verify_certificate,
    verify_factorization,
)
from .bounds import (  # noqa: F401
    chain_estimate,
    compute_bounds,
    compute_involution_bounds,
    order4_class_count,
    table_text,
)

__version__ = "0.1.0"
