"""Covering systems, sieved progressions, and cyclotomic order machinery."""

from .covering import (
    ALL_INTEGERS,
    CoveringSystem,
    ResidueClass,
    Verdict,
    auto_w,
    lcm_of_moduli,
    satisfying_class,
    verify_naive,
    verify_partitioned,
)
from .cyclotomic import (
    OrderPrimeSet,
    cyclotomic_degree,
    cyclotomic_value,
    load_exclusions,
    primes_of_order,
)
from .modarith import (
    Budget,
    CapacityError,
    FactorizationResult,
    IncompatibleCongruencesError,
    crt_combine,
    factor,
    is_probable_prime,
    multiplicative_order,
    verify_order,
)
from .progression import (
    BrierCheck,
    CheckResult,
    PrimeAssignment,
    ShiftResult,
    SievedProgression,
    build_riesel,
    build_sierpinski,
    combine_brier,
    subprogression_shift,
    verify_base2_delicate,
    verify_brier,
    verify_digit_robust,
    verify_riesel,
    verify_sierpinski,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
