"""Sketch + multi-resolution Gamma detector.

Reimplements the detector of Section 3.2(2) (Dewaele et al.,
SIGCOMM LSAD'07): traffic is hashed into sketches, each sketch's
packet-count process is aggregated at several dyadic time scales and
modeled with a Gamma distribution; sketches whose Gamma parameter
trajectory sits far from an adaptively computed reference are
anomalous.  The hashing is done twice — on source and on destination
addresses — so alarms carry either a source or a destination IP.

Algorithm
---------
1. For key in {src, dst}: hash addresses into ``n_sketches`` buckets.
2. For each sketch, compute packet counts in windows of
   ``base_window`` seconds, then aggregate dyadically over
   ``n_scales`` scales.
3. At each scale fit Gamma(shape, scale) by the method of moments; the
   feature vector of a sketch is ``[log1p(shape_j), log1p(scale_j)]``
   over scales.
4. Reference = element-wise median over sketches; deviation = mean
   absolute z-score using the MAD as the robust scale.  Sketches with
   deviation above ``threshold`` are anomalous.
5. Report the dominant addresses of each anomalous sketch as alarms
   spanning the whole trace (the method is a whole-trace test).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Alarm, Detector
from repro.detectors.sketch import dominant_keys
from repro.net.filters import FeatureFilter
from repro.net.trace import Trace


class GammaDetector(Detector):
    """Gamma multi-resolution sketch detector (src and dst hashing)."""

    name = "gamma"

    @classmethod
    def default_params(cls) -> dict:
        return {
            "n_sketches": 16,
            "base_window": 0.5,
            "n_scales": 4,
            "threshold": 2.5,
            "hash_seed": 23,
            "max_ips_per_sketch": 3,
        }

    def plane_specs(self) -> tuple:
        p = self.params
        specs = [("column", "time", None)]
        for direction in ("src", "dst"):
            seed = p["hash_seed"] + (0 if direction == "src" else 1)
            specs.extend(
                (
                    ("sketch_buckets", direction, p["n_sketches"], seed),
                    (
                        "gamma_deviations",
                        direction,
                        p["n_sketches"],
                        seed,
                        p["base_window"],
                        p["n_scales"],
                    ),
                )
            )
        return tuple(specs)

    def analyze(self, trace: Trace, planes=None) -> list[Alarm]:
        if len(trace) == 0:
            return []
        alarms: list[Alarm] = []
        planes = self._plane_cache(trace, planes)
        for direction in ("src", "dst"):
            alarms.extend(self._analyze_direction(trace, direction, planes))
        return alarms

    def _analyze_direction(
        self, trace: Trace, direction: str, planes
    ) -> list[Alarm]:
        p = self.params
        seed = p["hash_seed"] + (0 if direction == "src" else 1)
        hasher = self._hasher(p["n_sketches"], seed)
        t_start, t_end = trace.start_time, trace.end_time
        # The whole sketch/scale/Gamma-fit pipeline depends only on the
        # structure the tunings share; the per-sketch deviation vector
        # is one plane serving all three configurations.
        deviations = planes.get(
            trace,
            (
                "gamma_deviations",
                direction,
                p["n_sketches"],
                seed,
                p["base_window"],
                p["n_scales"],
            ),
        )
        alarms: list[Alarm] = []
        for sketch in np.nonzero(deviations > p["threshold"])[0]:
            ips = dominant_keys(
                trace,
                direction,
                range(len(trace)),
                hasher,
                int(sketch),
                top=p["max_ips_per_sketch"],
                engine=self.engine,
                planes=planes,
            )
            for ip in ips:
                if direction == "src":
                    feature_filter = FeatureFilter(src=ip, t0=t_start, t1=t_end)
                else:
                    feature_filter = FeatureFilter(dst=ip, t0=t_start, t1=t_end)
                alarms.append(
                    self._alarm(
                        t_start,
                        t_end,
                        filters=(feature_filter,),
                        score=float(deviations[sketch]),
                    )
                )
        return alarms

    @staticmethod
    def _gamma_features(counts: np.ndarray, n_scales: int) -> np.ndarray:
        """Per-sketch feature vectors of Gamma MoM fits across scales.

        Returns an array of shape (n_sketches, 2 * n_scales).
        """
        _n_windows, n_sketches = counts.shape
        features = np.zeros((n_sketches, 2 * n_scales))
        for j in range(n_scales):
            # Dyadic aggregation to scale j.
            agg = counts
            for _ in range(j):
                if agg.shape[0] < 2:
                    break
                trim = agg.shape[0] - (agg.shape[0] % 2)
                agg = agg[:trim].reshape(-1, 2, n_sketches).sum(axis=1)
            mean = agg.mean(axis=0)
            var = agg.var(axis=0)
            # Method of moments: shape = mean^2/var, scale = var/mean.
            with np.errstate(divide="ignore", invalid="ignore"):
                shape = np.where(var > 0, mean**2 / np.maximum(var, 1e-12), 0.0)
                scale = np.where(mean > 0, var / np.maximum(mean, 1e-12), 0.0)
            features[:, 2 * j] = np.log1p(shape)
            features[:, 2 * j + 1] = np.log1p(scale)
        return features

    @staticmethod
    def _deviations(features: np.ndarray) -> np.ndarray:
        """Robust distance of each sketch from the median reference.

        The per-sketch deviation is the *maximum* robust z-score over
        the feature vector: an anomaly typically distorts the Gamma fit
        at one or two scales, and averaging over scales would dilute
        exactly the signal the detector looks for.
        """
        reference = np.median(features, axis=0)
        mad = np.median(np.abs(features - reference), axis=0)
        scale = np.where(mad > 0, 1.4826 * mad, 1.0)
        z = np.abs(features - reference) / scale
        return z.max(axis=1)


#: Tunings for the experiments.
GAMMA_TUNINGS = {
    # Tunings vary the detection threshold only: keeping the sketch
    # structure identical makes the three configurations' outputs
    # nested (conservative detections are a subset of sensitive ones),
    # which is what lets all three vote for the same community.
    "optimal": {},
    "sensitive": {"threshold": 1.8},
    "conservative": {"threshold": 3.5},
}
