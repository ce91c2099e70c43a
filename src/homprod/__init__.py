"""Chain complexes over GF(2): products, homology, and exact code distances."""

__version__ = "0.1.0"

from .gf2 import (
    BinMatrix,
    DimensionMismatch,
    EchelonBasis,
    kernel_basis,
    rank,
    row_space_basis,
    solve,
)
from .extnat import ExtNat, INFINITY
from .complexes import (
    ChainComplex,
    LevelOutOfRange,
    NotOrthogonal,
    one_complex,
)
from .distance import (
    DEFAULT_KERNEL_CAP,
    DistanceResult,
    cohomological_distance,
    homological_distance,
)
from .products import (
    InvalidExponents,
    distance_upper_bound,
    kunneth_ranks,
    power_complex,
    product_dimensions,
    tensor_product,
)
from .codes import (
    CodeParameters,
    CssCode,
    InvalidSpec,
    css_parameters,
    ensemble_matrix,
    extract_css,
    gallager_matrix,
    repetition_circulant,
    sparsity,
)
from .alist import (
    InconsistentWeights,
    ParseError,
    dumps_alist,
    loads_alist,
    read_alist,
    write_alist,
)

__all__ = [
    "BinMatrix",
    "ChainComplex",
    "CodeParameters",
    "CssCode",
    "DEFAULT_KERNEL_CAP",
    "DimensionMismatch",
    "DistanceResult",
    "EchelonBasis",
    "ExtNat",
    "INFINITY",
    "InconsistentWeights",
    "InvalidExponents",
    "InvalidSpec",
    "LevelOutOfRange",
    "NotOrthogonal",
    "ParseError",
    "cohomological_distance",
    "css_parameters",
    "distance_upper_bound",
    "dumps_alist",
    "ensemble_matrix",
    "extract_css",
    "gallager_matrix",
    "homological_distance",
    "kernel_basis",
    "kunneth_ranks",
    "loads_alist",
    "one_complex",
    "power_complex",
    "product_dimensions",
    "rank",
    "read_alist",
    "repetition_circulant",
    "row_space_basis",
    "solve",
    "sparsity",
    "tensor_product",
    "write_alist",
]
