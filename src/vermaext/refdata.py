"""Frozen reference values used by the verification suites.

The rank-2 tables are stored as coefficient dictionaries; the D4 list is the
golden value for a recomputation, while the E7 list is display-only data: the
group has 2,903,040 elements and is never enumerated here (the default cap
refuses it), so the list is carried as a constant.
"""

# Element order for the 6x6 rank-2 tables: identity first, then by word.
A2_ORDER = ["e", "s1", "s2", "s1*s2", "s2*s1", "s1*s2*s1"]

_R1 = {1: 1, -1: -1}                     # v - v^-1
_R2 = {2: 1, 0: -2, -2: 1}               # v^2 - 2 + v^-2
_R3 = {3: 1, 1: -2, -1: 2, -3: -1}       # v^3 - 2v + 2v^-1 - v^-3

A2_R_TABLE = {
    ("e", "e"): {0: 1},
    ("s1", "e"): _R1, ("s1", "s1"): {0: 1},
    ("s2", "e"): _R1, ("s2", "s2"): {0: 1},
    ("s1*s2", "e"): _R2, ("s1*s2", "s1"): _R1, ("s1*s2", "s2"): _R1,
    ("s1*s2", "s1*s2"): {0: 1},
    ("s2*s1", "e"): _R2, ("s2*s1", "s1"): _R1, ("s2*s1", "s2"): _R1,
    ("s2*s1", "s2*s1"): {0: 1},
    ("s1*s2*s1", "e"): _R3, ("s1*s2*s1", "s1"): _R2, ("s1*s2*s1", "s2"): _R2,
    ("s1*s2*s1", "s1*s2"): _R1, ("s1*s2*s1", "s2*s1"): _R1,
    ("s1*s2*s1", "s1*s2*s1"): {0: 1},
}

# Expected-dimension tables in the two-variable form: the entry for a pair
# (x, y) collects u^(d-a) v^a with coefficient the a-th expected dimension.
# These match the classical upsilon/omega presentation under the substitution
# upsilon -> u, omega -> u*v.
_E0 = {(0, 0): 1}
_E1 = {(1, 0): 1, (0, 1): 1}                       # u + v
_E2 = {(2, 0): 1, (1, 1): 2, (0, 2): 1}            # u^2 + 2uv + v^2
_E3 = {(3, 0): 1, (2, 1): 2, (1, 2): 2, (0, 3): 1}

A2_EXPECTED_TABLE = {
    ("e", "e"): _E0,
    ("s1", "e"): _E1, ("s1", "s1"): _E0,
    ("s2", "e"): _E1, ("s2", "s2"): _E0,
    ("s1*s2", "e"): _E2, ("s1*s2", "s1"): _E1, ("s1*s2", "s2"): _E1,
    ("s1*s2", "s1*s2"): _E0,
    ("s2*s1", "e"): _E2, ("s2*s1", "s1"): _E1, ("s2*s1", "s2"): _E1,
    ("s2*s1", "s2*s1"): _E0,
    ("s1*s2*s1", "e"): _E3, ("s1*s2*s1", "s1"): _E2, ("s1*s2*s1", "s2"): _E2,
    ("s1*s2*s1", "s1*s2"): _E1, ("s1*s2*s1", "s2*s1"): _E1,
    ("s1*s2*s1", "s1*s2*s1"): _E0,
}

A1_ORDER = ["e", "s1"]
A1_EXPECTED_TABLE = {
    ("e", "e"): _E0,
    ("s1", "e"): _E1,
    ("s1", "s1"): _E0,
}

# A3 socle grid for the coresolution of the dominant Verma, probed by the
# antidominant one: the expected-edge diagonal and the three off-edge cells.
A3_GRID_EDGE = {(0, -6): 1, (1, -4): 3, (2, -2): 5, (3, 0): 6, (4, 2): 5, (5, 4): 3, (6, 6): 1}
A3_GRID_OFF_EDGE = {(1, -2): 1, (2, 0): 2, (3, 2): 1}

# A3 nontrivial KL polynomials from the identity.
A3_NONTRIVIAL_KL = {
    "s2*s1*s3*s2": {2: 1, 4: 1},
    "s1*s2*s3*s2*s1": {3: 1, 5: 1},
}

# D4: coefficients of r_{w0,e} over exponents -12..12 in steps of 2, and the
# exponents where the alternating sign rule fails.
D4_R_W0_E = [1, -4, 7, -8, 6, 0, -4, 0, 6, -8, 7, -4, 1]
D4_SIGN_VIOLATIONS = [0]

# B3 (labels s0, s1, s2): hom-grid dimensions quoted for the antidominant
# Verma against the coresolutions of the dominant one and of the s0 one.
# The s0 cells are at the positions matching the subcomplex embedding, which
# shifts both coordinates down by one.
B3_GRID_E_CELLS = {(2, -1): 3, (3, -1): 7}
B3_GRID_S0_CELLS = {(1, -2): 2, (2, -2): 7}

# E7: coefficients of r_{w0,e} over exponents -63..63 in steps of 2.
# Display-only; 64 entries, antisymmetric under exponent negation.
E7_R_W0_E = [
    -1, 7, -22, 42, -57, 63, -65, 71, -87, 113, -137, 127, -55, -47, 111,
    -137, 173, -171, 23, 223, -399, 505, -708, 1052, -1396, 1580, -1530,
    1302, -984, 456, 430, -1250, 1250, -430, -456, 984, -1302, 1530, -1580,
    1396, -1052, 708, -505, 399, -223, -23, 171, -173, 137, -111, 47, 55,
    -127, 137, -113, 87, -71, 65, -63, 57, -42, 22, -7, 1,
]

# Equivalence classes of comparable pairs in A3: count and sorted sizes,
# frozen from an exhaustive union-find run.
A3_CLASS_COUNT = 14
A3_CLASS_SIZES = [1, 1, 1, 2, 4, 4, 6, 10, 12, 12, 24, 26, 52, 58]
A3_PAIR_COUNT = 213

