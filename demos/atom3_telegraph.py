"""Telegraphic fluorescence of a three-level emitter.

A strongly driven fast transition blinks off whenever the weakly driven
slow transition captures the population.  The script samples inter-click
gaps exactly from the no-click survival curve, splits them into bright
and dark stretches, and compares the dark-time share against the
closed-form prediction.

Run:  python3 demos/atom3_telegraph.py [seed]
"""

import sys

import numpy as np

from nextjump.atom3 import Atom3Params, beta_ell, dark_fraction, generator
from nextjump.numerics import RngStream
from nextjump.trajectories import (JumpRecord, NullFlow, sample_gaps,
                                   telegraph_stats)


def main(seed: int = 2):
    p = Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0, beta1=1.0, beta2=0.0)
    ground = np.array([1.0, 0.0, 0.0], dtype=complex)
    nf = NullFlow(generator(p), ground)
    n = 2000
    gaps = sample_gaps(nf.survival, n, RngStream(seed, 0), t_hi=900.0)
    # every click of the fast channel resets the emitter to the ground state
    rec = JumpRecord(times=np.cumsum(gaps), channels=np.zeros(n, dtype=int),
                     labels=("fast",), final_state=ground,
                     tmax=float(gaps.sum()))
    stats = telegraph_stats(rec, dark_threshold=10.0)
    pd_pred, _ = dark_fraction(p)
    print(f"emitter: omega1={p.omega1}, omega2={p.omega2}, "
          f"beta1={p.beta1}, epsilon={p.epsilon}")
    print(f"sampled {n} gaps, total time {gaps.sum():.1f} fast lifetimes")
    print()
    print(f"mean gap               {gaps.mean():.4f}")
    print(f"dark periods > 10      {stats.n_dark}")
    print(f"dark-time share        {stats.p_dark:.4f} +- {stats.p_dark_se:.4f}")
    print(f"asymptotic prediction  {pd_pred:.4f}  (1/3 for beta2 = 0)")
    print()
    tail = gaps[gaps > 30.0]
    if tail.size >= 20:
        rate = 1.0 / np.mean(tail - 30.0)
        print(f"dark-tail decay rate   {rate:.5f} from {tail.size} gaps")
        print(f"twice the slow width   {2.0 * beta_ell(p):.5f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
