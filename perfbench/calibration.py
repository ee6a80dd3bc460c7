"""Host speed, from fixed kernels of the benchmark's own timed beside the work.

On a virtual machine that shares its cores with other tenants, speed can
move by up to about 1.9x for seconds to minutes at a time (as on the
2-vCPU Intel Xeon host where the benchmark was defined).  CPU time follows
wall time through these phases (they are not steal time), so no clock
hides them.  Every end-to-end time is therefore scaled by
``reference / t``, where ``t`` is the time of a calibration kernel run
right around the work and ``reference`` is that kernel's time on the
host at its reference speed.  The result is the time the work would take
at that speed.

Each workload names the kernel that stresses the host the way its items
do, because the phases slow numpy convolutions, power sums and process
starts by different amounts.  The kernels call nothing in bohrmap, so no
change to the package can move them.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# Median time of each kernel, rounded, on the host where the benchmark was
# defined (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2).
REFERENCE_S = {
    "convolve": 0.30e-3,
    "power_sum": 1.05e-3,
    "python": 0.78e-3,
    "spawn": 11.0e-3,
}


class Calibration:
    def __init__(self, kernel: str, env=None):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self.run = getattr(self, "_" + kernel)
        self.env = env
        rng = np.random.default_rng(20210312)
        self.psi = 0.1 * (rng.standard_normal(201) + 1j * rng.standard_normal(201))
        self.moduli = rng.uniform(0.0, 1.0, 2000)
        self.powers = np.arange(1, 2001, dtype=np.float64)
        for _ in range(3 if kernel == "spawn" else 20):
            self.sample()

    def sample(self) -> float:
        """Wall time of one kernel run."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def _convolve(self):
        """Twelve truncated products of order-200 complex series (a composition's steps)."""
        acc = np.zeros(201, dtype=np.complex128)
        acc[0] = 1.0
        for _ in range(12):
            acc = np.convolve(acc, self.psi)[:201]
            acc[0] += 0.5

    def _power_sum(self):
        """Ten sums of 2000 moduli times powers of r (a Bohr partial sum's steps)."""
        for k in range(10):
            float(self.moduli @ (0.5 + 0.01 * k) ** self.powers)

    def _python(self):
        """An interpreted integer loop."""
        acc = 0
        for i in range(8000):
            acc += (i * i) % 7

    def _spawn(self):
        """Start a bare interpreter and wait for it to end."""
        subprocess.run([sys.executable, "-S", "-c", "pass"], env=self.env, check=True)

    def scale(self, samples) -> float:
        """The factor that turns a time measured beside ``samples`` into reference time."""
        return self.reference_s / statistics.median(samples)

    def scaled(self, latencies, samples) -> list:
        """Each latency at reference speed.

        ``samples[i]`` ran just before item i and ``samples[i + 1]`` just
        after it; their mean sets the item's scale.  Wider windows were
        tried and lag the host's phase changes, which inflates the tail.
        """
        return [
            lat * 2.0 * self.reference_s / (samples[i] + samples[i + 1])
            for i, lat in enumerate(latencies)
        ]
