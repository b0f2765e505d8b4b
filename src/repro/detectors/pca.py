"""PCA-subspace anomaly detector on sketched traffic.

Reimplements the detector of Section 3.2(1): the classic
Lakhina-style subspace method, applied to sketches (random projections
of source addresses) so that detections can be traced back to the
source IPs responsible — the known blind spot of link-level PCA
(Ringberg'07) that Li'06/Kanda'10 fixed with sketching.

Algorithm
---------
1. Hash each packet's source address into one of ``n_sketches``
   buckets; count packets per (time bin, sketch) -> matrix ``X``.
2. Center columns of ``X``; PCA via SVD; the top ``n_components``
   principal axes span the *normal* subspace.
3. The squared prediction error (SPE / Q-statistic) of each time bin is
   the squared norm of its residual-subspace projection.  Bins whose
   SPE exceeds ``mean + threshold * std`` (computed robustly over bins)
   are anomalous.
4. For each anomalous bin, rank sketches by their residual
   contribution; within each offending sketch, report the dominant
   source IPs as alarms spanning that time bin.

Tunings
-------
``optimal``      balanced threshold and subspace size.
``sensitive``    lower threshold, fewer normal components — many alarms.
``conservative`` higher threshold — few alarms.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Alarm, Detector
from repro.detectors.sketch import dominant_keys
from repro.net.filters import FeatureFilter
from repro.net.trace import Trace


class PCADetector(Detector):
    """Sketch + PCA subspace detector reporting source IPs."""

    name = "pca"

    @classmethod
    def default_params(cls) -> dict:
        return {
            "n_bins": 24,
            "n_sketches": 16,
            "n_components": 4,
            "threshold": 3.0,
            "hash_seed": 11,
            "max_ips_per_sketch": 3,
            "max_sketches_per_bin": 2,
        }

    def plane_specs(self) -> tuple:
        p = self.params
        return (
            ("column", "time", None),
            ("sketch_buckets", "src", p["n_sketches"], p["hash_seed"]),
            (
                "pca_residual",
                "src",
                p["n_sketches"],
                p["hash_seed"],
                p["n_bins"],
                p["n_components"],
            ),
        )

    def analyze(self, trace: Trace, planes=None) -> list[Alarm]:
        if len(trace) == 0:
            return []
        p = self.params
        planes = self._plane_cache(trace, planes)
        hasher = self._hasher(p["n_sketches"], p["hash_seed"])
        t_start, t_end = trace.start_time, trace.end_time
        # The residual matrix depends only on the sketch/bin structure,
        # which the tunings share — one plane serves all three configs.
        residual = planes.get(
            trace,
            (
                "pca_residual",
                "src",
                p["n_sketches"],
                p["hash_seed"],
                p["n_bins"],
                p["n_components"],
            ),
        )
        spe = (residual**2).sum(axis=1)
        anomalous_bins = self._threshold_bins(spe, p["threshold"])
        bin_width = max(t_end - t_start, 1e-9) / p["n_bins"]

        alarms: list[Alarm] = []
        for b in anomalous_bins:
            t0 = t_start + b * bin_width
            t1 = t0 + bin_width
            contributions = residual[b] ** 2
            order = np.argsort(contributions)[::-1]
            window = trace.time_slice(t0, t1)
            for sketch in order[: p["max_sketches_per_bin"]]:
                if contributions[sketch] <= 0:
                    continue
                ips = dominant_keys(
                    trace,
                    "src",
                    window,
                    hasher,
                    int(sketch),
                    top=p["max_ips_per_sketch"],
                    engine=self.engine,
                    planes=planes,
                )
                for ip in ips:
                    alarms.append(
                        self._alarm(
                            t0,
                            t1,
                            filters=(FeatureFilter(src=ip, t0=t0, t1=t1),),
                            score=float(spe[b]),
                        )
                    )
        return alarms

    @staticmethod
    def _residual_matrix(matrix: np.ndarray, n_components: int) -> np.ndarray:
        """Residual (anomalous-subspace) projection of each row."""
        centered = matrix - matrix.mean(axis=0, keepdims=True)
        # SVD-based PCA; V rows are principal axes in sketch space.
        _u, _s, vt = np.linalg.svd(centered, full_matrices=False)
        k = min(n_components, vt.shape[0])
        normal_axes = vt[:k]
        projected = centered @ normal_axes.T @ normal_axes
        return centered - projected

    @staticmethod
    def _threshold_bins(spe: np.ndarray, threshold: float) -> list[int]:
        """Bins with SPE above a robust mean + threshold*std cut."""
        if spe.size == 0:
            return []
        median = float(np.median(spe))
        mad = float(np.median(np.abs(spe - median)))
        scale = 1.4826 * mad if mad > 0 else float(spe.std()) or 1.0
        cut = median + threshold * scale
        return [int(i) for i in np.nonzero(spe > cut)[0]]


#: Tunings used in the experiments (Section 3.2: optimal / sensitive /
#: conservative parameter sets).
PCA_TUNINGS = {
    # Tunings share the sketch/bin structure and the normal-subspace
    # size; only the SPE threshold and the per-bin report budget move,
    # so the three configurations' outputs are comparable.
    "optimal": {},
    "sensitive": {"threshold": 1.5, "max_sketches_per_bin": 3},
    "conservative": {"threshold": 5.0, "max_sketches_per_bin": 1},
}
