"""Exact Yagita invariants of general and special linear groups.

The package evaluates the closed-form invariant of GL_n and SL_n over
subrings of the complex numbers, constructs the finite matrix groups that
realize the lower bounds (metacyclic, extraspecial, dihedral, quaternion),
verifies them by exact closure enumeration, and cross-checks the upper
bounds through total Chern classes of order-p elements, all in exact
arithmetic.
"""

from .chern import (
    EigenExponents,
    eigen_exponents,
    n_upper,
    total_chern,
)
from .cyclo import CycNum, cyclotomic_poly, zeta
from .exactmat import (
    CapExceededError,
    CycMatrix,
    MatrixGroup,
    block_diag,
    closure,
    det,
    element_order,
    kron,
    order_p_cyclic_subgroups,
    relations_check,
)
from .formulas import (
    SlResult,
    lcm_form_reduced,
    oracle_yagita,
    psi,
    yagita_gl,
    yagita_gl_R,
    yagita_gl_Z,
    yagita_sl,
    yagita_sl_R,
    yagita_sl_Z,
)
from .fppoly import (
    FpPoly,
    Prop6Verdict,
    check_prop6,
    mp_q_decompose,
    parse_fp_poly,
)
from .harness import (
    VerificationReport,
    report_to_json,
    table,
    verify_case,
    yagita_upper_witness,
)
from .ringspec import (
    AbstractRing,
    Cyclotomic,
    QuadraticOrder,
    RationalIntegers,
    RingSpec,
    SubCyclotomicFixedField,
    UnsupportedFieldError,
    compute_l,
    contains_zeta_p,
    has_nth_root_of_minus_one,
    parse_ring,
    roots_of_unity_order,
)
from .witness import (
    WitnessEmbedding,
    WitnessError,
    WitnessKind,
    blow_up,
    blow_up_matrix,
    build_e2m_integer,
    build_extraspecial_monomial,
    build_g1,
    build_g2,
    build_q8,
    galois_rep,
    regular_rep_zeta,
    sl_pad,
    verify_embedding,
    witness_menu,
)

__version__ = "0.1.0"
