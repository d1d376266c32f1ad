"""Frozen reference values shared by the tests.

The covering prime sets below were derived independently of the library:
by factoring the published progression moduli, and by scanning small-prime
divisors of k*2^n ± 1 (or k + d*base^n) over one full period.  Tests treat
them as ground truth.
"""

# Selfridge's 78557: scan of n in [0, 36) with trial division.
SELFRIDGE_K = 78557
SELFRIDGE_PRIMES = [3, 5, 7, 13, 19, 37, 73]
# with the prime factors of 2^e - 1 for e = 17, 19, 23, 29, 31 added, the
# orders of 2 have lcm 36 * 17 * 19 * 23 * 29 * 31
SELFRIDGE_MERSENNE_PRIMES = SELFRIDGE_PRIMES + [
    131071, 524287, 47, 178481, 233, 1103, 2089, 2147483647,
]
SELFRIDGE_MERSENNE_PERIOD = 240432156

# The classical progression 15511380746462593381 + 36893488147419103230*m;
# the modulus factors as 2 * 3 * 5 * 17 * 257 * 641 * 65537 * 6700417.
CLASSICAL_S_B = 15511380746462593381
CLASSICAL_S_A = 36893488147419103230
CLASSICAL_S_PRIMES = [3, 5, 17, 257, 641, 65537, 6700417]
# class placements recovered from B itself: a with B*2^a ≡ -1 (mod p)
CLASSICAL_S_ASSIGNMENT = [
    (1, 2, 3), (2, 4, 5), (4, 8, 17), (8, 16, 257),
    (16, 32, 65537), (32, 64, 641), (0, 64, 6700417),
]

# 509203 + 11184810*m; 11184810 = 2 * 3 * 5 * 7 * 13 * 17 * 241.
CLASSICAL_R_B = 509203
CLASSICAL_R_A = 11184810
CLASSICAL_R_PRIMES = [3, 5, 7, 13, 17, 241]
CLASSICAL_R_ASSIGNMENT = [
    (0, 2, 3), (1, 4, 5), (2, 3, 7), (7, 12, 13), (7, 8, 17), (3, 24, 241),
]

# The 22-digit dual-sieve constant and its progression modulus
# 3770214739596601257962594704110; prime subsets selected by period scan.
CLAVIER_K = 3316923598096294713661
CLAVIER_A = 3770214739596601257962594704110
CLAVIER_S_PRIMES = [3, 5, 11, 13, 17, 19, 37, 41, 97, 109, 241, 331, 673, 1321]
CLAVIER_R_PRIMES = [3, 5, 7, 11, 13, 17, 19, 31, 37, 41, 73, 97, 109,
                    151, 241, 331, 673, 1321]

# The 41-digit dual-sieve constant; sets found by scanning small primes of
# bounded order (plus-side period 96, minus-side period 288).
BRIER_K = 29364695660123543278115025405114452910889
BRIER_S_PRIMES = [3, 5, 17, 97, 193, 257, 673, 65537]
BRIER_R_PRIMES = [3, 7, 13, 19, 37, 73, 109, 241, 433, 577, 1153, 6337, 38737]

# A base-3 digit-change certificate built by CRT: k odd (so 2 covers the
# deltas ±1) and the remaining primes cover k ± 2*3^n over period 720.
TOY3_K = int(
    "10315751371187142437909810641741661186712842711337406109973979082104037"
    "69302809036000461873268986363896023347224535199107445284107386818170627"
)
TOY3_A = int(
    "14954473223222398784960098960507120343632464513968017169027914866297411"
    "71264090964974398415759769635880518468194689378600321895642783819511970"
)
TOY3_PRIMES = [
    2, 5, 7, 11, 13, 17, 19, 31, 37, 41, 61, 73, 97, 181, 193, 241, 271,
    577, 757, 769, 1621, 4561, 4801, 6481, 154081, 176401, 387631, 530713,
    755551, 927001, 26050081, 47763361, 116809201, 128653413121,
    282429005041, 2081711451601,
]
TOY3_PERIOD = 720

# Table 2: the class each k in [0, 8] satisfies in the five-class system.
TABLE2 = {
    0: (0, 3), 1: (1, 3), 2: (2, 9), 3: (0, 3), 4: (1, 3),
    5: (5, 9), 6: (0, 3), 7: (1, 3), 8: (8, 9),
}

APPENDIX_S_LCM = 236107872000
APPENDIX_R_LCM = 922078080000
