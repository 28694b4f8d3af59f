"""Where does the first photon come from, and when?

A resonantly driven empty cavity fills toward nbar photons while a
detector watches the output line.  The no-click probability W(t) has a
closed form on the coherent ansatz; this script prints it next to the
brute-force Fock integration, shows the short-time cubic law, and places
the mean first-click time on its cube-root scale.

Run:  python3 demos/cavity_survival.py
"""

import numpy as np

from nextjump.cavity import (CavityParams, evolve_fock_oracle, mean_jump_time,
                             resonant_flow, short_time_W)
from nextjump.numerics import FockVector, default_nmax


def main():
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    print(f"cavity: kappa={p.kappa}, nbar={p.nbar}, drive={p.gamma_drive}")
    print()
    print("  t     W closed     W Fock       D(t)")
    psi0 = FockVector.vacuum(default_nmax(p.nbar))
    for t in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0):
        w = flow.survival(t)
        wf = evolve_fock_oracle(p, psi0, t).norm_sq()
        print(f"  {t:4.2f}  {w:.8f}   {wf:.8f}   {flow.jump_density(t):.6f}")
    print()
    ts = np.linspace(0.005, 0.05, 4)
    print("short times follow exp(-nbar kappa^3 t^3 / 12):")
    for t in ts:
        print(f"  t={t:.3f}:  W={flow.survival(t):.10f}   "
              f"cubic={short_time_W(p, t):.10f}")
    print()
    scale = mean_jump_time(p)
    print(f"first-click time scale (3/(kappa Gamma^2))^(1/3) = {scale:.4f}")
    print(f"expected first click 0.8930*scale = {0.8930 * scale:.4f} "
          f"(cubic-law mean)")


if __name__ == "__main__":
    main()
