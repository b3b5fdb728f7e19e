"""Binary subdivision schemes: mask algebra, refinement, and convergence
certification with explicit error constants."""

from .errors import (
    ContractionNotFound,
    EmptyOutput,
    InvalidParameter,
    NotConstantReproducing,
    NotFactorable,
    OutOfDomain,
    SimilarityNotEstablished,
    SubdivError,
    TailNotReached,
)
from .masks import (
    LINEAR_BSPLINE,
    Mask,
    coeff_norm,
    difference_mask,
    mask_from_difference,
    perturbation_mask,
    reproduces_constants,
    sup_norm,
    symbol_eval,
    telescoped_mask,
)
from .operators import (
    ContractionWitness,
    ProductOperator,
    Window,
    apply,
    compose,
    compose_all,
    condition_a_search,
    product_norm,
    residue_class_norm,
)
from .refine import (
    DecayReport,
    LimitSample,
    RefinementState,
    cauchy_norm,
    constant,
    decay_report,
    impulse,
    limit_sample,
    pl_eval,
    pl_gap,
    refine_once,
)
from .schemes import (
    AnalyticSimilarity,
    BoundednessReport,
    ConvergenceCertificate,
    SchemeSpec,
    SimilarityReport,
    boundedness_estimate,
    certify_theorem4,
    formula_scheme,
    similarity_report,
    stationary_scheme,
    table_scheme,
    transfer_condition_a,
)

__version__ = "0.1.0"
