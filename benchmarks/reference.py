"""Fixed reference kernel: prints how long it took, in seconds.

    python3 benchmarks/reference.py

The machine this benchmark runs on is shared, and its speed drifts by a
quarter or more over minutes.  A sweep child and this kernel slow down
together.  The harness runs this kernel right before each unit and scales
the setup probes, and the sweeps' unit times, by ``workloads.REFERENCE_S``
over its time (see ``workloads.REFERENCE_SCALED``).  It mixes what the
sweeps spend their time on: tone projection over small complex arrays and a
Python loop of scalar numpy calls.  It never imports forcelink, so no
change to the program can move it.
"""
import time

import numpy as np

t0 = time.perf_counter()
rng = np.random.default_rng(0)
K, N = 64, 1875
acc = 0.0
for _ in range(40):
    x = rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))
    w = np.exp(-2j * np.pi * np.arange(N) * 0.0576)
    y = (x * w).reshape(K, 3, 625).sum(axis=2)
    acc += float(np.angle((y[:, 1:] * np.conj(y[:, :-1])).mean(axis=0)).sum())
c = np.arange(4.0)
for i in range(15000):
    acc += float(c @ (1.0 + i * 1e-6) ** np.arange(4))
print(time.perf_counter() - t0)
