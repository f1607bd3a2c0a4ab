"""A fixed piece of CPU work that tells how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
over seconds to minutes, as other tenants come and go. A timing taken alone
measures that drift as much as the program. So the untraced run calls
``run()`` after every chunk sweep, and each set-up process calls it after its
set-up; timings are then scaled to the speed at which ``run()`` takes
``NOMINAL_S``. Parent and change run the same reference, so the ratio of
their scaled timings is the ratio of their work.

The work mixes what the sweep spends its time on: small-array numpy calls
and Python tuples, dicts and sorting. It does not import gbsed, so no change
to the program changes it.
"""

import random
import time

import numpy as np

# run()'s time on the machine the benchmark was defined on (Intel Xeon at
# 2.1 GHz, Python 3.11) at the fastest it ran: scaled timings read as that
# machine's at full speed.
NOMINAL_S = 0.013

_ARRAY = np.random.default_rng(0).standard_normal(400)
_rnd = random.Random(0)
# few enough to stay in cache, so that what ran before does not change the time
_ITEMS = [(_rnd.random(), _rnd.randrange(1000), str(i)) for i in range(4000)]


def run():
    """Do the reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1500):
        x = _ARRAY[i % 100:i % 100 + 300]
        total += float(np.abs(x * 1.5 - 0.25).sum())
    for _ in range(5):
        by_name = {item[2]: item for item in sorted(_ITEMS)}
        total += sum(item[1] for item in by_name.values())
    return time.perf_counter() - t0
