#!/usr/bin/env python3
# The building blocks for the closed-surface identity: the bracket of an
# embedded three-holed sphere, the bracket of a quasi-embedded one (an
# immersed pants wrapping a one-holed torus), and the equivalence of the
# torus contribution with the sum of quasi-pants brackets.

from math import fsum

from hypident import (
    FenchelNielsen,
    enumerate_geodesics,
    from_fenchel_nielsen,
    pants_sum_term,
    pants_sum_term_via_complement,
    quasi_pants_term,
    torus_contribution_partial,
)

lengths = (0.8, 1.7, 2.9)
print(f"embedded pants with boundary lengths {lengths}")
closed = pants_sum_term(*lengths)
complement = pants_sum_term_via_complement(*lengths)
print(f"  closed form      {closed:.15f}")
print(f"  complement form  {complement:.15f}   |diff| {abs(closed - complement):.1e}")
print("  (the two forms are tied together by the Euler relation)")
print()

print("permutation symmetry of the bracket:")
for perm in ((0.8, 1.7, 2.9), (1.7, 0.8, 2.9), (2.9, 1.7, 0.8)):
    print(f"  {perm}: {pants_sum_term(*perm):.15f}")
print()

fn = FenchelNielsen(b=1.2, t=0.4, k=1.5)
point = from_fenchel_nielsen(fn)
print(f"one-holed torus with boundary k={fn.k}: each simple closed geodesic")
print("determines a quasi-embedded pants; their brackets sum to the torus")
print("contribution, which also has a complement form:")
print("cutoff   sum of quasi-pants brackets   complement form      gap")
for cutoff in (8, 12, 16, 20):
    records = enumerate_geodesics(point, float(cutoff))
    direct = fsum(quasi_pants_term(point.k, r.length) for r in records)
    partial = torus_contribution_partial(point.k, records)
    print(f"{cutoff:5d}   {direct:.15f}          {partial:.15f}  {abs(direct - partial):.2e}")
