"""The benchmark's fixed settings, and the published constants it checks.

The constants are the test suite's frozen reference values, read from
tests/sieve_data.py (plain data, no imports) so that the benchmark checks
exactly what the tests freeze.  Their prime sets were derived independently
of coversieve.
"""

import functools
import importlib.util
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "tests" / "sieve_data.py"


@functools.cache
def reference():
    """tests/sieve_data.py as a module: SELFRIDGE_*, CLASSICAL_S_*/R_*,
    CLAVIER_*, BRIER_*, TOY3_*."""
    spec = importlib.util.spec_from_file_location("perfbench_sieve_data", REFERENCE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Primes of order b base 2 for the small moduli the random builder
# round trips use (the acceptance suite's supply); 127 has order 7 and
# serves the single-class part combined with a built progression.
SUPPLY = {2: (3,), 3: (7,), 4: (5,), 8: (17,), 12: (13,), 24: (241,), 36: (37, 109)}
SUPPLY_MODULI = (2, 3, 4, 8, 12, 24, 36, 36)
COMBINE_PRIME, COMBINE_ORDER = 127, 7

# Primes whose order base 2 the cli workload asks for (p - 1 factors fast).
ORDER_PRIMES = (257, 673, 1153, 6337, 577, 22253377, 209924353, 4261383649,
                38941695937, 487824887233)

# The fixed factoring budget of the cyclo workload:
# Budget(trial_limit=10**5, rho_rounds=2000, rho_restarts=2).
CYCLO_BUDGET = {"trial_limit": 10 ** 5, "rho_rounds": 2000, "rho_restarts": 2}
# cyclo factors Phi_b(2) for the covering moduli b whose value has at most
# this many bits; larger values cost 0.1-4 s each (see README.md).
CYCLO_MAX_BITS = 1024
# ... and of those, the middle one of every CYCLO_STRIDE by value size.
CYCLO_STRIDE = 3

# The random bounded systems of small-checks draw their moduli from this
# fixed seed and their residues from the run's seed.
SMALL_CHECKS_MODULI_SEED = 0
# The one-class-dropped mutants of appendix are drawn from this fixed seed:
# which class is dropped sets what a mutant costs (see README.md).
APPENDIX_MUTANT_SEED = 0

DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917
