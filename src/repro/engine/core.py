"""The execution-engine layer: kernel registries behind named engines.

Before this layer, the choice between the columnar NumPy fast paths and
the pure-Python reference implementations was a loose ``backend: str``
parameter hand-threaded through every module.  An :class:`Engine`
replaces that convention with one first-class object:

* a **kernel registry** — each operation with paired implementations
  (flow-coding, feature binning, dominant sketch keys, similarity
  graph, heuristics, traffic extraction, rule mining)
  registers one kernel per engine, and callers ask
  ``engine.kernel("flow_codes")`` instead of branching on a string;
* **capability flags** — ``engine.vectorized`` tells a caller whether
  columnar array paths are available without naming any engine.

Engines are process-wide singletons addressed by name (``"numpy"``,
``"python"``); :func:`resolve_engine` accepts a name, the ``"auto"``
alias, an :class:`Engine` instance, or ``None`` and always returns the
singleton, so identity comparison (``engine is other``) is valid
everywhere.  Instances pickle by name, which keeps every object holding
an engine (detectors, extractors, pipelines) cheaply picklable into
pool workers.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

from repro.errors import EngineError

#: Spellings accepted wherever an engine is chosen (CLI flags,
#: :class:`~repro.runner.config.PipelineConfig`, constructor params).
ENGINE_ALIASES = ("auto", "numpy", "python")

#: The canonical operation names kernels register under.  Registration
#: is open (plugins may add operations), but these are the paired
#: families the parity suite asserts over.
KERNEL_OPS = (
    "flow_codes",
    "binned_histogram",
    "dominant_keys",
    "similarity_graph",
    "community_label",
    "column_values",
    "traffic_extractor",
    "alarm_codes",
    "label_assign",
    "feature_plane",
    "warehouse_select",
    "maximal_itemsets",
)


class Engine:
    """One named execution engine: kernels + capabilities.

    Parameters
    ----------
    name:
        Registry key ("numpy" / "python").
    description:
        One-line summary shown by ``repro engines``.
    vectorized:
        Capability flag: kernels read columnar
        :class:`~repro.net.table.PacketTable` arrays rather than packet
        objects.  Callers branch on this flag (or better, on a
        registered kernel) — never on the engine's name.
    """

    __slots__ = ("name", "description", "vectorized", "_kernels")

    def __init__(
        self, name: str, description: str, *, vectorized: bool
    ) -> None:
        self.name = name
        self.description = description
        self.vectorized = vectorized
        self._kernels: dict[str, Callable] = {}

    # -- kernel registry ----------------------------------------------

    def register(self, op: str, fn: Optional[Callable] = None):
        """Register ``fn`` as this engine's kernel for ``op``.

        Usable directly or as a decorator::

            @numpy_engine.register("flow_codes")
            def _flow_codes_numpy(table, granularity): ...
        """
        if fn is None:
            return lambda f: self.register(op, f)
        if op in self._kernels:
            raise EngineError(
                f"engine {self.name!r} already has a kernel for {op!r}"
            )
        self._kernels[op] = fn
        return fn

    def kernel(self, op: str) -> Callable:
        """The kernel registered for ``op`` (:class:`EngineError` if none)."""
        _ensure_kernels()
        try:
            return self._kernels[op]
        except KeyError:
            raise EngineError(
                f"engine {self.name!r} has no kernel {op!r}; "
                f"registered: {sorted(self._kernels)}"
            ) from None

    def has_kernel(self, op: str) -> bool:
        _ensure_kernels()
        return op in self._kernels

    def kernels(self) -> tuple[str, ...]:
        """Registered operation names, sorted."""
        _ensure_kernels()
        return tuple(sorted(self._kernels))

    # -- identity ------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine({self.name!r})"

    def __reduce__(self):
        # Engines are per-process singletons holding unpicklable
        # kernel tables; pickle round-trips resolve back to the
        # registry entry of the same name.
        return (get_engine, (self.name,))


_REGISTRY: dict[str, Engine] = {}
_KERNELS_LOADED = False


def register_engine(engine: Engine) -> Engine:
    """Add ``engine`` to the process-wide registry (name must be new)."""
    if engine.name in _REGISTRY:
        raise EngineError(f"engine {engine.name!r} already registered")
    _REGISTRY[engine.name] = engine
    return engine


def _ensure_kernels() -> None:
    """Load the built-in kernel table once, on first kernel access.

    Kernel implementations live next to the code they vectorize
    (graph, extractor, sketch, ...), which import this module for
    :func:`resolve_engine` — so the registration module is imported
    lazily to keep the import graph acyclic.

    The loaded flag is only set on *success*: a failed import surfaces
    its real traceback on this call and every retry, instead of being
    swallowed into misleading "engine has no kernel" errors forever
    after.  Partial registrations from the failed attempt are rolled
    back so a retry re-registers from a clean slate.
    """
    global _KERNELS_LOADED
    if _KERNELS_LOADED:
        return
    try:
        from repro.engine import kernels  # noqa: F401  (import = register)
    except BaseException:
        for engine in _REGISTRY.values():
            engine._kernels.clear()
        raise
    _KERNELS_LOADED = True


def get_engine(name: str) -> Engine:
    """The registered engine called ``name`` (no alias resolution)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_engines() -> tuple[Engine, ...]:
    """All registered engines, in registration order."""
    return tuple(_REGISTRY.values())


def auto_engine() -> Engine:
    """The engine ``"auto"`` resolves to on this host.

    The columnar engine whenever NumPy is importable — which it always
    is in this package (NumPy is a hard dependency) — so today this is
    a fixed policy point rather than a probe.  Keeping it a function
    gives hosts without a vectorized stack one place to change.
    """
    return _REGISTRY["numpy"]


EngineSpec = Union[str, Engine, None]


def resolve_engine(spec: EngineSpec = "auto", *, what: str = "engine") -> Engine:
    """Resolve an engine spec to the :class:`Engine` singleton.

    Accepts an :class:`Engine` (returned as-is), a registered name,
    the ``"auto"`` alias, or ``None`` (= auto).  Anything else raises
    :class:`~repro.errors.EngineError` naming the requesting layer.
    """
    if isinstance(spec, Engine):
        return spec
    if spec is None or spec == "auto":
        return auto_engine()
    if isinstance(spec, str) and spec in _REGISTRY:
        return _REGISTRY[spec]
    raise EngineError(
        f"unknown {what} engine {spec!r}; known: {list(ENGINE_ALIASES)}"
    )


def engine_pairs(op: str) -> Iterator[tuple[Engine, Engine]]:
    """(vectorized, reference) engine pairs both implementing ``op``.

    The parity suite iterates this to compare paired kernels without
    hard-coding engine names.
    """
    _ensure_kernels()
    vectorized = [e for e in _REGISTRY.values() if e.vectorized and e.has_kernel(op)]
    reference = [e for e in _REGISTRY.values() if not e.vectorized and e.has_kernel(op)]
    for fast in vectorized:
        for slow in reference:
            yield fast, slow


#: The two built-in engines.  ``numpy`` is what ``"auto"`` selects.
NUMPY_ENGINE = register_engine(
    Engine(
        "numpy",
        "columnar NumPy fast paths over PacketTable arrays",
        vectorized=True,
    )
)
PYTHON_ENGINE = register_engine(
    Engine(
        "python",
        "pure-Python reference implementations (the correctness oracle)",
        vectorized=False,
    )
)
