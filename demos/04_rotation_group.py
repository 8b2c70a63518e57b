#!/usr/bin/env python3
"""The rotation group on an origin-centered circle.

Circle points multiply like unit complex numbers scaled by r, with
identity (r, 0).  Powers run by square-and-multiply, square roots exist
exactly when the induced squared distance is perfect, and over Q every
point off the axes generates an infinite subgroup (via Gaussian-integer
norms).
"""

from fractions import Fraction

from circlering import (
    PrimeField,
    Rationals,
    circle,
    classify_cyclicity,
    element_order,
    enumerate_circle,
    gaussian_norm_square_check,
    induced_squared_distance,
    rot_mul,
    rot_pow,
    rot_sqrt,
    rotation_element,
)

F13 = PrimeField(13)
c13 = circle(F13, (0, 0), 1)
a = rotation_element(c13, 2, 6)
print("Rotation group on the unit circle over F_13")
print("=" * 50)
print(f"a = {a}, a^2 = {rot_pow(a, 2)}, a^3 = {rot_pow(a, 3)}, a^6 = {rot_pow(a, 6)}")
print(f"order of a: {element_order(a)} (the full group has {len(enumerate_circle(c13))} elements)")
sq = rot_sqrt(rot_pow(a, 2))
print(f"square root of {rot_pow(a, 2)}: {sq}")
print()

q = Rationals()
cq = circle(q, (0, 0), 2)
b = rotation_element(cq, Fraction(8, 5), Fraction(6, 5))
b2 = rot_mul(b, b)
print(f"Over Q with r = 2: b = {b}")
print(f"  b^2 = {b2}")
print(f"  induced squared distance of b^2: {induced_squared_distance(b2)}"
      f" = ({induced_squared_distance(b2).sqrt()})^2  -- perfect, so a root exists")
print(f"  recovered root: {rot_sqrt(b2)}")
print()

print("Cyclic or acyclic over Q?")
for x, y in ((2, 0), (0, 2), (Fraction(8, 5), Fraction(6, 5)), (Fraction(-6, 5), Fraction(8, 5))):
    e = rotation_element(cq, x, y)
    rep = classify_cyclicity(e)
    extra = f", order {rep.order}" if rep.order else ""
    print(f"  {e}: {rep.verdict}{extra}")
print()
print("The engine behind acyclicity: clearing denominators of (8/5, 6/5)")
print("gives the coprime pair (4, 3), whose Gaussian norm 25 is a square")
print(f"> 1: {gaussian_norm_square_check(4, 3)} -- so no power of it is real.")
