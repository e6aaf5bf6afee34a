"""Expansions of analytic functions on the closed unit disk in finite
Blaschke products, with explicit Toeplitz-operator coefficients, convergence
diagnostics in several function-space norms, and the constructions showing
where such expansions break down."""

from .blaschke import (
    FiniteBlaschkeProduct,
    PointSequence,
    SequenceKind,
    blaschke_factor,
    cauchy_kernel,
    make_sequence,
    pointwise_decay_check,
    product_as_function,
    product_eval,
)
from .errors import AnalyticityError, PreconditionError
from .fnspace import (
    BoundaryFunction,
    dilate,
    eval_inside,
    from_samples,
    from_taylor,
    pairing,
    riesz_project,
)
from .norms import NormSpec, bergman_norm, embedding_check, hardy_norm, sup_norm
from .schauder import (
    ExpansionResult,
    convergence_study,
    expansion_coefficients,
    kernel_remainder_bounds,
    partial_sum,
    triangular_reconstruct,
)
from .tmw import functional_norm, gram_matrix, lacunary_witness, tmw_element
from .toeplitz import (
    factor_sup_bound_check,
    dilation_sup_bound_check,
    iterates,
    toeplitz_general_apply,
    toeplitz_product_apply,
    zero_extraction_step,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticityError",
    "BoundaryFunction",
    "ExpansionResult",
    "FiniteBlaschkeProduct",
    "NormSpec",
    "PointSequence",
    "PreconditionError",
    "SequenceKind",
    "bergman_norm",
    "blaschke_factor",
    "cauchy_kernel",
    "convergence_study",
    "dilate",
    "embedding_check",
    "eval_inside",
    "expansion_coefficients",
    "from_samples",
    "from_taylor",
    "functional_norm",
    "gram_matrix",
    "hardy_norm",
    "iterates",
    "factor_sup_bound_check",
    "kernel_remainder_bounds",
    "lacunary_witness",
    "dilation_sup_bound_check",
    "make_sequence",
    "pairing",
    "partial_sum",
    "pointwise_decay_check",
    "product_as_function",
    "product_eval",
    "riesz_project",
    "sup_norm",
    "tmw_element",
    "toeplitz_general_apply",
    "toeplitz_product_apply",
    "triangular_reconstruct",
    "zero_extraction_step",
]
