"""Built-in manifold manifests.

Each built-in ships as manifest text, so acceptance runs are configuration
rather than code.  The comments record the coordinate-level facts behind the
declared fibration data; the tool itself never manipulates coordinates.
"""

from __future__ import annotations

from .manifold import ManifoldSpec, load_spec

# A completely solvable T^4-bundle over T^2 with a three-parameter family of
# invariant symplectic forms omega_{a,b,c} (a, c nonzero) and compatible
# almost-complex structures.  Base coordinates (x, t) with lattice
# a0*Z x Z, so base characters are exp(2 pi i (lambda x + mu t / a0)).
# Coordinate frame behind the fibration block:
#   V1 = (1/2)((1/a) d/dt - i d/dx)   spans the base directions,
#   conj(V1) acts on the character by  -pi lambda + i pi mu / (a a0);
#   V2, V3 only involve the four fiber directions (y1, y2, z1, z2) and
#   their real and imaginary parts span them.
FLS = """
[manifold]
name = fls
dim = 6

[params]
a = 1
b = 0
c = 1
a0 = 1

[coframe]
d e1 = 0
d e2 = 0
d e3 = -e13 - e25
d e4 = e14 - e26
d e5 = -e15
d e6 = e16

[acs]
phi1 = a*e1 + i*e2
phi2 = b*e5 + c*e3 + i*e6
phi3 = c*e4 + i*e5

[metric]
omega = a*e12 + b*e56 + c*(e36 + e45)

[fibration]
rank = 2
coords = [x, t]
V1: base, symbol = [-pi, i*pi/(a*a0)]
V2: fiber
V3: fiber
fiber_span = [V2, V3]
"""

# Same underlying solvmanifold, different almost-complex structure with no
# compatible symplectic form.  Coframe Phi^1 = e1 + i e2 etc.; the natural
# diagonal metric (i/2) sum Phi^{j jbar} = e12 + e34 + e56 is not closed.
# conj(V1) = (1/2)(d/dt + i d/dx) acts on the base character by
# -pi lambda + i pi mu / a0.
FLS_NONAK = """
[manifold]
name = fls_nonak
dim = 6
symbol = Phi

[params]
a0 = 1

[coframe]
d e1 = 0
d e2 = 0
d e3 = -e13 - e25
d e4 = e14 - e26
d e5 = -e15
d e6 = e16

[acs]
phi1 = e1 + i*e2
phi2 = e3 + i*e4
phi3 = e5 + i*e6

[metric]
omega = e12 + e34 + e56

[fibration]
rank = 2
coords = [x, t]
V1: base, symbol = [-pi, i*pi/a0]
V2: fiber
V3: fiber
fiber_span = [V2, V3]
"""

# The Iwasawa nilmanifold (quotient of the complex Heisenberg group by its
# Gaussian-integer lattice) with a non-integrable almost-Kahler structure.
# Real coordinates x_j, y_j with z_j = x_j + i y_j; the T^4 fiber has
# coordinates (x1, y1, x3, y3) over the (x2, y2) base torus.
#   V1 = (1/2)(d/dx1 - i d/dy3), V2 = (1/2)(d/dy1 - i d/dx3): pure fiber;
#   V3 has base part (1/2)(d/dx2 - i d/dy2), so conj(V3) acts on
#   exp(2 pi i (lambda x2 + mu y2)) by  i pi lambda - pi mu.
IWASAWA_AK = """
[manifold]
name = iwasawa_ak
dim = 6

[coframe]
d e1 = 0
d e2 = 0
d e3 = 0
d e4 = 0
d e5 = -e13 + e24
d e6 = -e14 - e23

[acs]
phi1 = e1 + i*e6
phi2 = e2 + i*e5
phi3 = e3 + i*e4

[metric]
omega = e16 + e25 + e34

[fibration]
rank = 2
coords = [x2, y2]
V1: fiber
V2: fiber
V3: base, symbol = [i*pi, -pi]
fiber_span = [V1, V2]
"""

# The Iwasawa manifold again, with the almost-complex structure whose
# (1,0)-coframe is psi^1 = conj(d z1), psi^2 = conj(d z2),
# psi^3 = conj(d z3) - z1 d z2, declared directly by its complex structure
# equations.  No base-mode analysis is needed: every reduction below uses
# only the global ellipticity rule, so the fibration rank is zero.
IWASAWA_STD = """
[manifold]
name = iwasawa_std
dim = 6
symbol = psi

[complex_coframe]
d phi1 = 0
d phi2 = 0
d phi3 = -phi[1b 2b]

[metric]
gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]

[fibration]
rank = 0
"""

# Integrable sanity case: the standard complex structure on the Iwasawa
# manifold, d phi3 = -phi^{12}.
IWASAWA_COMPLEX = """
[manifold]
name = iwasawa_complex
dim = 6

[complex_coframe]
d phi1 = 0
d phi2 = 0
d phi3 = -phi12

[metric]
gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]

[fibration]
rank = 0
"""

BUILTINS = {
    "fls": FLS,
    "fls_nonak": FLS_NONAK,
    "iwasawa_ak": IWASAWA_AK,
    "iwasawa_std": IWASAWA_STD,
    "iwasawa_complex": IWASAWA_COMPLEX,
}


def builtin_names():
    return sorted(BUILTINS)


def get_builtin(name: str, overrides: dict | None = None) -> ManifoldSpec:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; available: {builtin_names()}")
    return load_spec(BUILTINS[name], overrides)
