"""A fixed reference computation that sets the speed scale of the timings.

On a shared 2-vCPU cloud VM (Intel Xeon, 300 MiB L3) the speed one process
sees drifted by up to 1.9x over tens of seconds as other tenants came and
went, so raw per-op wall times from runs a minute apart disagreed by 30%.
Each op is therefore followed by one call of `reference_work`, and each
timing metric is a wall time rescaled to the speed at which that call takes
`REFERENCE_MS`: wall time x REFERENCE_MS / (the call's wall time). The
reference mixes what the protocol ops do -- small NumPy statevector steps
on up to 2^14 amplitudes and Python object churn -- so both slow down
together. In 150 s traces on that VM, raw op times moved by up to 30%
and op/reference ratios by under 10%.

This module must not change and must not import `obliq`: a change to it
would redefine the scale of every timing metric.
"""

import time
from dataclasses import dataclass

import numpy as np

_BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
_ROT = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=np.complex128)
_RESIDUES = tuple(range(16))

# The speed scale: timings read as if `reference_work` took exactly this long.
REFERENCE_MS = 1.0


@dataclass(frozen=True)
class _Record:
    name: str
    values: tuple


def reference_work():
    """Grow a 14-qubit state pair by pair, rotating one qubit each time,
    then measure six qubits away, rebuilding small records as it goes."""
    amps = np.ones(1, dtype=np.complex128)
    records = {}
    for k in range(7):
        amps = np.kron(amps, _BELL)
        v = amps.reshape(-1, 2, 1 << k)
        a = v[:, 0, :].copy()
        b = v[:, 1, :]
        v[:, 0, :] = _ROT[0, 0] * a + _ROT[0, 1] * b
        v[:, 1, :] = _ROT[1, 0] * a + _ROT[1, 1] * b
        records[k] = _Record(f"r{k}", tuple((t * k) % 8 for t in _RESIDUES))
    for k in range(6):
        v = amps.reshape(-1, 2, 1 << k)
        p1 = float(np.sum(v[:, 1, :].real ** 2 + v[:, 1, :].imag ** 2))
        amps = np.ascontiguousarray(v[:, 0, :].reshape(-1) / np.sqrt(1.0 - p1))
        records = {j: _Record(r.name, tuple((t + 1) % 8 for t in r.values))
                   for j, r in records.items()}
    return amps


def settle_allocator():
    """Allocate and free one 16 MiB array. glibc's malloc then raises its
    mmap threshold to that size for the rest of the process, so the
    reference's 128-256 KiB arrays come from the heap in every process.
    Without this, a process that never freed a large array (as in
    `tgdmqc-sampled`) maps and faults in fresh pages for each of them, and
    the reference ran 30-40% slower there than in `toqc-wide` at the same
    CPU speed; a change to what an op allocates could then move the scale.
    The ops share the process, so they too reuse freed blocks of up to
    16 MiB from the heap afterwards."""
    np.empty(1 << 20, dtype=np.complex128)


def reference_ms():
    """Wall time of one `reference_work` call, in milliseconds."""
    t0 = time.perf_counter_ns()
    reference_work()
    return (time.perf_counter_ns() - t0) / 1e6


def speed_scale():
    """REFERENCE_MS over the wall time of one reference call: the factor
    that turns a wall time taken just before into reference time."""
    return REFERENCE_MS / reference_ms()
