"""Detector interface and the alarm model.

An :class:`Alarm` is "a set of traffic features that designates a
particular traffic identified by a detector" (paper Section 2.1.1).
Two designation mechanisms cover all four detectors:

* ``filters`` — a list of :class:`~repro.net.filters.FeatureFilter`
  (partial header matches within a time window); used by the PCA,
  Gamma and KL detectors.
* ``flow_keys`` — an explicit set of unidirectional
  :class:`~repro.net.flow.FlowKey`; used by the Hough detector, whose
  native output is an aggregated set of flows.

An alarm may carry both; the associated traffic is the union.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.engine import EngineSpec, resolve_engine
from repro.errors import DetectorError, EngineError
from repro.net.filters import FeatureFilter
from repro.net.flow import FlowKey
from repro.net.trace import Trace


@dataclass(frozen=True)
class Alarm:
    """One alarm emitted by one detector configuration.

    Attributes
    ----------
    detector:
        Detector family name ("pca", "gamma", "hough", "kl").
    config:
        Full configuration id, e.g. ``"pca/sensitive"``.
    t0, t1:
        Time window (half-open) the alarm covers.
    filters:
        Feature filters designating the traffic (may be empty).
    flow_keys:
        Explicit uniflow keys designating the traffic (may be empty).
    score:
        Detector-specific anomaly score (only used for reporting).
    """

    detector: str
    config: str
    t0: float
    t1: float
    filters: tuple[FeatureFilter, ...] = ()
    flow_keys: frozenset = frozenset()
    score: float = 0.0

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise DetectorError(f"alarm with negative window [{self.t0}, {self.t1})")
        if not self.filters and not self.flow_keys:
            raise DetectorError("alarm designates no traffic")

    def describe(self) -> str:
        """Short human-readable form.

        Always leads with the full configuration id (falling back to
        the detector family when a bare family name was stamped in) so
        every rendering carries the time window's detector config.  An
        alarm designating traffic through both filters and flow keys is
        a *union* of the two, rendered with an explicit ``∪``; an alarm
        whose designation is empty-handed renders that state explicitly
        rather than as a blank.
        """
        config = self.config or self.detector or "?"
        parts = [f.describe() for f in self.filters]
        if self.flow_keys:
            parts.append(f"{len(self.flow_keys)} flows")
        body = " ∪ ".join(parts) if parts else "(empty traffic union)"
        return f"[{config}] {self.t0:.1f}-{self.t1:.1f}s {body}"


@dataclass(frozen=True)
class Configuration:
    """A detector with one fixed parameter set.

    The paper calls "configuration" the pair (detector, parameter set);
    confidence scores are computed per detector over its
    configurations.  ``tuning`` is one of ``"optimal"``,
    ``"sensitive"``, ``"conservative"``.
    """

    detector: str
    tuning: str
    params: tuple = ()  # (name, value) pairs; hashable for use as dict key

    @property
    def name(self) -> str:
        return f"{self.detector}/{self.tuning}"

    def params_dict(self) -> dict:
        return dict(self.params)


class Detector(abc.ABC):
    """Base class: analyze one trace, return alarms.

    Subclasses are stateless across traces — every :meth:`analyze`
    call is independent, which is what lets the archive sweeps
    parallelize trivially and keeps configurations comparable.
    """

    #: Family name; subclasses override.
    name: str = "base"

    def __init__(
        self, tuning: str = "optimal", engine: EngineSpec = "auto", **params
    ) -> None:
        self.tuning = tuning
        #: Kernel engine: it picks the kernels (feature planes, rule
        #: mining, ...) the one analysis calls; the vectorized kernels
        #: read the trace's columnar table, the reference kernels scan
        #: packet objects.  All engines emit identical alarms, scores
        #: included; the engine is deliberately *not* a detector
        #: parameter so it never enters ensemble fingerprints or
        #: alarm-cache keys derived from them.
        try:
            self.engine = resolve_engine(engine, what=self.name)
        except EngineError as exc:
            raise DetectorError(str(exc)) from None
        self.params = dict(self.default_params())
        unknown = set(params) - set(self.params)
        if unknown:
            raise DetectorError(
                f"{self.name}: unknown parameters {sorted(unknown)}"
            )
        self.params.update(params)

    @classmethod
    @abc.abstractmethod
    def default_params(cls) -> dict:
        """Default parameter set (the "optimal" tuning)."""

    @property
    def config_name(self) -> str:
        return f"{self.name}/{self.tuning}"

    @abc.abstractmethod
    def analyze(self, trace: Trace, planes=None) -> list[Alarm]:
        """Analyze one trace and return the alarms.

        ``planes`` optionally supplies a
        :class:`~repro.detectors.planes.PlaneCache` so sibling
        configurations share derived feature arrays; ``None`` resolves
        the trace-attached cache (see :meth:`_plane_cache`).
        """

    def analyze_table(self, trace: Trace, planes=None):
        """Analyze one trace, batch-emitting into an alarm table.

        The columnar twin of :meth:`analyze`: one
        :class:`~repro.core.alarm_table.AlarmTable` whose rows are this
        configuration's alarms in emission order, encoded through the
        engine's ``"alarm_codes"`` kernel.  The default implementation
        wraps :meth:`analyze`, so every detector batch-emits without
        per-detector code; the table's lazy views are the very alarm
        objects the detector produced.
        """
        from repro.core.alarm_table import AlarmTable

        # Only forward planes when given: third-party subclasses with
        # the pre-plane `analyze(self, trace)` signature stay valid.
        alarms = (
            self.analyze(trace)
            if planes is None
            else self.analyze(trace, planes=planes)
        )
        return AlarmTable.from_alarms(alarms, engine=self.engine)

    def analyze_stream(
        self, trace: Trace, state: dict, planes=None
    ) -> list[Alarm]:
        """Analyze one *window* of a stream, carrying ``state`` across.

        ``state`` is a per-configuration dict owned by the caller
        (see :class:`~repro.detectors.streaming.StreamingDetector`);
        detectors read what the previous window left and write what the
        next window should see.  The default implementation ignores the
        state and delegates to :meth:`analyze`, which keeps the
        stateless detectors correct; detectors with cross-window
        baselines (e.g. KL's histogram baseline) override this.

        With an empty ``state`` (first window) every override must emit
        exactly :meth:`analyze`'s alarms — that is what makes streaming
        output byte-identical to the offline pipeline when one window
        covers the whole trace.
        """
        if planes is None:
            return self.analyze(trace)
        return self.analyze(trace, planes=planes)

    def plane_specs(self) -> tuple:
        """Feature-plane specs this configuration derives from a trace.

        Used by the fan-out parent to precompute and export the
        ensemble's shared planes (on every engine).  Detectors without
        shareable planes return an empty tuple.
        """
        return ()

    def _plane_cache(self, trace: Trace, planes):
        """``planes`` if given, else the trace-attached shared cache."""
        if planes is not None:
            return planes
        from repro.detectors.planes import plane_cache_for

        return plane_cache_for(trace, self.engine)

    def _hasher(self, n_sketches: int, seed: int):
        """Process-wide memoized sketch hasher.

        Delegates to :func:`~repro.detectors.sketch.shared_hasher`:
        hashers are deterministic in ``(n_sketches, seed)``, so every
        detector instance — across configurations, streaming windows
        and the feature-plane kernels — shares one object per key.
        """
        from repro.detectors.sketch import shared_hasher

        return shared_hasher(n_sketches, seed)

    def _alarm(
        self,
        t0: float,
        t1: float,
        filters: tuple[FeatureFilter, ...] = (),
        flow_keys: Optional[frozenset] = None,
        score: float = 0.0,
    ) -> Alarm:
        """Convenience constructor stamping detector/config names."""
        return Alarm(
            detector=self.name,
            config=self.config_name,
            t0=t0,
            t1=t1,
            filters=filters,
            flow_keys=flow_keys or frozenset(),
            score=score,
        )
