"""parabkit: exact classification toolkit for the quadratic family z^2 + c.

The package is organized in layers.  ``polyring`` provides exact polynomial
arithmetic (integer polynomials, resultants via subresultants, Sturm
counting, root isolation, a small expression grammar parsed in integers to
a primitive integer polynomial).  ``cyclotomic`` adds cyclotomic and trace
polynomials with a Kronecker-style root-of-unity test.  ``algebraic`` wraps
isolated real algebraic numbers with exact comparison and sign evaluation.
``dynamics`` studies iteration of f_c(z) = z^2 + c: discriminant polynomials
P_n and their values at rational parameters, cycle certificates, orbit
tests, and multiplier polynomials that certify attracting cycles exactly.
``classify`` assembles the classification pipelines and the ``parabkit``
command-line tool.
"""

from .polyring import (
    ConstantPolynomialError,
    IntegerPoly,
    IteratedMapPoly,
    NotDivisibleError,
    ParabkitError,
    ParseError,
    RationalInterval,
    UnknownVariableError,
    ZeroPolynomialError,
    cauchy_bound,
    discriminant,
    discriminant_in_z,
    format_poly,
    isolate_real_roots,
    parse_poly,
    resultant,
    resultant_in_z,
    squarefree_part,
    sturm_count,
)
from .cyclotomic import (
    ADMISSIBLE_SCAN_CAP,
    CyclotomicWitness,
    InvalidThresholdError,
    NotMonicError,
    OrderSet,
    admissible_orders,
    cyclotomic_poly,
    divisors,
    euler_phi,
    inverse_totient_upto,
    is_cyclotomic_product,
    moebius,
    moebius_product,
    trace_polynomial,
)
from .algebraic import (
    NotIsolatingError,
    NotSquarefreeError,
    RealAlgebraic,
    ZeroScaleError,
    affine_transform,
    all_conjugates_in,
    from_rational,
    is_totally_real,
    make_real_algebraic,
    sign_at,
)
from .dynamics import (
    DISCRIMINANT_CAP,
    ITERATE_CAP,
    AttractingCycleCertificate,
    CapExceededError,
    CycleCertificate,
    DegreeMismatchError,
    IntegralityViolationError,
    MultiplierMismatchError,
    NotAFactorError,
    ParabolicVerdict,
    ParityCertificate,
    PcfResult,
    RealBehavior,
    certify_attracting_cycle,
    cycle_multiplier,
    discriminant_Pn,
    dynatomic_poly,
    escapes,
    is_parabolic_up_to,
    is_pcf_rational,
    iterate_map,
    multiplier_polynomial,
    parity_certificate,
    period_poly,
    point_discriminant,
    real_behavior,
    verify_cycle,
)
from .classify import (
    Certificate,
    ClassificationReport,
    Environment,
    PipelineMismatchError,
    PROP2_CAVEAT,
    SCHEMA_ID,
    cli_main,
    main,
    parse_parameter,
    prop1_pipeline,
    prop2_pipeline,
    report_from_json,
    report_to_json,
)

__version__ = "0.1.0"
