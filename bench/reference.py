"""Fixed reference program: the yardstick for wall_rel.

    python3 bench/reference.py

The machine this benchmark was built on drifts by about +-25% in speed over
minutes, because other tenants share the host, and a longer run does not
average the drift away.  run.py therefore runs this program right before
every workload execution and reports the execution's wall time over this
program's, which cancels most of the drift.

It does a constant amount of the kinds of work the CLI workloads spend
their time on: interpreter start-up and the numpy import, then seeding
numpy generators, a loop of tiny numpy operations with float formatting,
Fraction arithmetic and one bulk array of normals.  Start-up and numpy
import slow down more than computation when the host is busy, so their
share matters: about a quarter of the time here, as in the workloads, gave
the steadiest ratio on all three.  It uses nothing from ibrownian, so no
change to the library can move it, and it must stay unchanged, or wall_rel
figures stop being comparable.
"""

from fractions import Fraction

import numpy as np


def work() -> float:
    for i in range(16_000):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(i,))))
    z = gen.standard_normal((16_000, 3))
    state, drift, lines = np.zeros(3), np.eye(3) * 0.5, []
    for row in z:
        state = drift @ state + row
        lines.append(",".join(repr(float(v)) for v in state))
    total, digits = Fraction(0), 0
    for k in range(1, 4_000):
        total += Fraction(1, k)
        if k % 10 == 0:
            digits += len(str(total))
    bulk = gen.standard_normal((4_096, 256, 2))
    bulk = 0.5 * bulk[:, :, 0] + bulk[:, :, 1]
    return float(bulk.sum()) + len("\n".join(lines)) + digits


if __name__ == "__main__":
    print(repr(work()))
