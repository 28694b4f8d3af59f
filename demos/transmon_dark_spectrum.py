"""Lifetimes inside a dark period of a monitored transmon.

While no photon arrives, the conditioned three-level state evolves under
an effective drift whose small eigenvalues set two nested timescales: a
fast one from ground-bright mixing and a slow one from dark-level
leakage.  The script prints the bright width computed three ways, the
two dark eigenvalues against their asymptotic forms, and a direct fit of
the slow rate on the full Fock evolution.

Run:  python3 demos/transmon_dark_spectrum.py
"""

from nextjump.transmon import TransmonParams, beta_B, dark_norm_fit


def main():
    base = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0)
    print(f"transmon: chi/kappa={base.chi}, nbar={base.nbar}")
    print()
    print("bright width beta_B:")
    for method in ("quadrature", "steepest_descent", "closed_form"):
        print(f"  {method:17s} {beta_B(base, method):.6f}")
    bb = beta_B(base, "closed_form")
    p = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0,
                       omega_b=0.1 * bb, omega_d=0.001 * bb)
    spec, _, _, rate, target = dark_norm_fit(p, npts=60, nmax=200)
    print()
    print(f"drives: omega_b={p.omega_b:.4f} (eps={spec.epsilon}), "
          f"omega_d={p.omega_d:.6f} (eta={spec.eta})")
    print(f"fast dark eigenvalue  iE+ = {spec.i_e_plus:.6e}   "
          f"asymptotic 2 beta_B eps^2 = {spec.i_e_plus_asymptotic:.6e}")
    print(f"slow dark eigenvalue  iE- = {spec.i_e_minus:.6e}   "
          f"asymptotic beta_B eta^2/2 = {spec.i_e_minus_asymptotic:.6e}")
    print(f"hierarchy beta_B >> iE+ >> iE-: {spec.hierarchy_ok}")
    print()
    print(f"slow decay fitted on the Fock oracle: {rate:.6e}")
    print(f"twice the slow eigenvalue:            {target:.6e}")


if __name__ == "__main__":
    main()
