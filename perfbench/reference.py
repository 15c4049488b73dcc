"""A fixed numpy computation that tracks the host's speed during a run.

The benchmark shares a few cores of a host with other tenants, and their
load moves the speed of the same code by up to half over minutes. The
reference kernel is timed between every two passes; dividing a pass's time
by the mean of the two reference timings around it gives ``pass_rel``, the
pass's cost in reference kernels, which a change to dramn moves and a
change in the host's load largely does not.

The kernel uses no dramn code and mixes the kinds of work the workloads
do: an SVD of a 1000x20 window, a 20x20 eigensolve, a gated recurrence of
small matrix products at batch size 1, and stacking small arrays.
"""

import time

import numpy as np

REPEATS = 80  # about 80 ms on one 2-core x86-64 container


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.window = rng.standard_normal((1000, 20))
        self.operator = rng.standard_normal((20, 20))
        self.state = rng.standard_normal((1, 64))
        self.weights = rng.standard_normal((64, 256)) / 8
        self.seconds()  # first calls into LAPACK are slower

    def seconds(self):
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        for _ in range(REPEATS):
            np.linalg.svd(self.window, full_matrices=False)
            np.linalg.eig(self.operator)
            x = self.state
            for _ in range(20):
                z = x @ self.weights
                x = np.tanh(z[:, :64]) / (1.0 + np.exp(-z[:, 64:128]))
            np.stack([x] * 5)
        return time.perf_counter() - start
