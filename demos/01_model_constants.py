"""Model constants for different choices of the depth-expansion exponents.

The solver works with the single quadratic expansion term p = [2], whose
constant gamma = 1/3 matches the classical long-wave dispersion.  Other
exponent sets give other (provably positive) constants.  Every constant is
computed once, exactly, in rationals; the floats are those values correctly
rounded, and the smallest eigenvalues are proved positive in exact
arithmetic.
"""

from ikwave import check_positivity, exact_params

for p in [(2,), (1,), (1, 2), (2, 4)]:
    gamma, gamma_vec, k1, k2, k3 = exact_params(p)
    print(f"p = {list(p)}")
    print(f"  gamma      = {float(gamma):.15g}   (exact {gamma})")
    print(f"  gamma_vec  = {[f'{float(g):.15g}' for g in gamma_vec]}"
          f"   (exact {[str(g) for g in gamma_vec]})")
    print(f"  kappa1..3  = {float(k1):.15g}, {float(k2):.15g}, "
          f"{float(k3):.15g}")
    report = check_positivity(p)
    print(f"  min eig A1 = {report['min_eig_A1']:.6g}, "
          f"min eig A0 - a0*a0^T = {report['min_eig_A0_centered']:.6g}")
    print()

print("gamma = 1/3 for p=[2] is the constant the solitary-wave solver relies on.")
