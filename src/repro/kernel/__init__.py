"""Batched stepping kernel: inline slot batching + saturated SAT windows.

``Scenario.kernel = "batched"`` (CLI: ``--kernel batched``) installs
:class:`~repro.kernel.batched.BatchedKernel` as the network's tick driver;
the scalar per-event path stays the reference implementation.  The
differential harness in :mod:`repro.kernel.diff` is the equivalence contract:
byte-identical trace hashes, per-station tables and summaries across both
kernels for every checked-in fuzz corpus bundle and a seeded scenario grid.
"""

from repro.kernel.batched import BatchedKernel, install_batched_kernel

__all__ = ["BatchedKernel", "install_batched_kernel"]
