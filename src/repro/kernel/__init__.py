"""Batched kernel: the scalar tick plus closed-form saturated SAT windows.

``Scenario.kernel = "batched"`` (CLI: ``--kernel batched``) installs
:class:`~repro.kernel.batched.BatchedKernel` as the network's tick driver:
the ring keeps its one scalar tick per slot, and a fully backlogged stretch
runs as one analytic window.  The differential harness in
:mod:`repro.kernel.diff` is the equivalence contract: byte-identical trace
hashes, per-station tables and summaries across both kernels for every
checked-in fuzz corpus bundle and a seeded scenario grid.
"""

from repro.kernel.batched import BatchedKernel, install_batched_kernel

__all__ = ["BatchedKernel", "install_batched_kernel"]
