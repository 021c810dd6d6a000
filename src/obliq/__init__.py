"""Two-server oblivious quantum computation simulator.

Subpackages and modules:
  kernels  the six statevector kernels (numpy)
  qsim     dense statevector register, Bell/computational measurement
  gates    gate matrices, program model, parity construction
  layers   masked T/CZ/H layers and Pauli updates on a register
  oracle   direct program application (the reference the protocols run against)
  toy      single-qubit oblivious phase protocol
  toqc     two-server oblivious program application
  tgdmqc   delegated multiparty computation over classical user channels
  harness  transcripts, complexity ledger, channel registry, audits
  cli      command-line front end
"""

from .kernels import BACKEND as KERNEL_BACKEND

__all__ = ["KERNEL_BACKEND"]
__version__ = "0.1.0"
