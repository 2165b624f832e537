"""alglab: exact computation and verification for graded Lie-type algebras
over prime fields.

The public surface, by theme:

- linalg: span / member / sums / intersections / solve over F_p, with
  canonical reduced-echelon subspaces.
- algebra: structure-constant algebras, the (alpha, beta) product identity,
  subspace products.
- grading: Z/nZ-gradings on an adapted basis, components, homogeneity.
- series: derived and lower central series, ideal closures, centralizers,
  and the numeric bounds (Hall-type, Kreknin-Shalev, thresholds).
- frobenius: (n, q, r) validation, automorphism checks, eigenspace
  gradings, component permutation.
- rdep: r-dependence of index sequences, dependence sets, selective
  nilpotency, rigid subsequences.
- rewrite: bracket-term parsing, left-normalization, evaluation.
- formats/search/verify: the algebra file format, corpus search, and the
  file-level verification drivers behind the CLI.
"""

from .algebra import (
    Algebra,
    check_identity_uniform,
    make_algebra,
    product,
    solve_alpha_beta,
    subspace_product,
)
from .errors import (
    AlgLabError,
    DiagonalizationError,
    FormatError,
    HypothesisError,
    InputError,
    InternalInvariantError,
    ParseError,
    UnsupportedFieldError,
)
from .frobenius import (
    FrobeniusData,
    NQRTriple,
    check_automorphism,
    eigen_grading,
    fixed_subalgebra,
    frobenius_data,
    h_permutation_check,
    validate_nqr,
)
from .grading import (
    Grading,
    check_grading,
    component,
    component_count,
    is_homogeneous,
    nontrivial_components,
)
from .linalg import (
    Subspace,
    full_subspace,
    intersect,
    is_subspace_of,
    member,
    nullspace,
    solve,
    span,
    subspace_sum,
    zero_subspace,
)
from .rdep import (
    DependenceResult,
    DSet,
    additive_order,
    count_active_components,
    d_set,
    index_split_check,
    is_r_dependent,
    is_r_independent,
    rigid_subsequence,
    selective_check,
)
from .rewrite import (
    Atom,
    LinearCombo,
    Pair,
    evaluate,
    normalize,
    normalize_in,
    parse,
    unparse,
)
from .series import (
    SeriesResult,
    centralizer,
    derived_length,
    derived_series,
    hall_bound,
    hall_verify,
    ideal_closure,
    is_ideal,
    kreknin_shalev_bound,
    lower_central_series,
    metabelian_class_bound,
    nilpotency_class,
    order_threshold,
)

__version__ = "0.1.0"
