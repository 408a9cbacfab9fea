"""Runtime description of the clip kernel.

Every row kernel in :mod:`repro.geometry.kernel` runs on NumPy; there is no
compiled backend.  :func:`kernel_runtime_stats` reports that fixed fact for
callers that record the environment a measurement ran in.
"""

from __future__ import annotations

__all__ = ["kernel_runtime_stats"]


def kernel_runtime_stats(requested: str = "auto") -> dict:
    """The backend the row kernels run on (``requested`` is ignored)."""
    return {"backend": "numpy", "jit": False}
