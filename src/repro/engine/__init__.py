"""Execution-engine layer: kernel registries, capabilities, scratch.

Public face of :mod:`repro.engine.core`.  Everything that used to take
a loose ``backend: str`` parameter now takes an *engine spec* — an
:class:`Engine` instance, a registered name (``"numpy"``,
``"python"``), the ``"auto"`` alias, or ``None`` — and resolves it
through :func:`resolve_engine`.  Paired kernel implementations are
registered per engine in :mod:`repro.engine.kernels` (loaded lazily on
first kernel access) and compared by the table-driven parity suite in
``tests/test_engine_parity.py``.
"""

from repro.engine.core import (
    ENGINE_ALIASES,
    KERNEL_OPS,
    NUMPY_ENGINE,
    PYTHON_ENGINE,
    Engine,
    EngineSpec,
    ScratchAllocator,
    auto_engine,
    available_engines,
    engine_pairs,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.errors import EngineError

__all__ = [
    "ENGINE_ALIASES",
    "KERNEL_OPS",
    "NUMPY_ENGINE",
    "PYTHON_ENGINE",
    "Engine",
    "EngineError",
    "EngineSpec",
    "ScratchAllocator",
    "auto_engine",
    "available_engines",
    "engine_pairs",
    "get_engine",
    "register_engine",
    "resolve_engine",
]
