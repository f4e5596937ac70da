"""Jones-Wenzl projectors: the unique generator-killed idempotents.

JW_n is pinned down by three properties: it is idempotent, every cup-cap
generator annihilates it on both sides, and the identity diagram appears
with coefficient 1.  This script builds a few, displays them, and exercises
the identities the rest of the library leans on.
"""

from fractions import Fraction

from wenzl.jw import close_jw, jones_wenzl, lambda_closure_scalar
from wenzl.render import ascii_morphism
from wenzl.rings import QQ
from wenzl.tl import apply_e_top, compose, markov_trace, partial_close_right

print(__doc__)

print("JW_2 = id + (1/2) e_1:")
print(ascii_morphism(jones_wenzl(2)))

jw4 = jones_wenzl(4)
print(f"\nJW_4 has {len(jw4.terms)} diagram terms; its largest denominator is "
      f"{max(c.denominator for _, c in jw4.items())}.")
print("e_2 o JW_4 =", "0" if apply_e_top(2, jw4).is_zero() else "nonzero")
print("JW_4 o JW_4 == JW_4:", compose(jw4, jw4) == jw4)

print("\nClosing the rightmost m strands multiplies by (-1)^m (n+1)/(n+1-m):")
for n, m in [(2, 1), (4, 2), (5, 5)]:
    closed, lam = close_jw(n, m)
    print(f"  close {m} strand(s) of JW_{n}: scalar {lam}")

print("\nFull closures (Markov traces):")
for n in range(1, 7):
    print(f"  tr JW_{n} = {markov_trace(jones_wenzl(n))}")

print("\nThe scalars multiply along nested closures:")
n, k, m = 6, 2, 4
left = lambda_closure_scalar(n, m)
right = lambda_closure_scalar(n, k) * lambda_closure_scalar(n - k, m - k)
print(f"  lambda({n},{m}) = {left} = lambda({n},{k}) * lambda({n-k},{m-k}) = {right}")
