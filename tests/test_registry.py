"""Detector registry coverage: construction-from-name round-trips.

Satellite of the engine-layer PR: every registered configuration must
be constructible by name with non-default parameters, and unknown
names must fail with the package's typed error, never a bare
``KeyError``.
"""

import pytest

from repro.detectors.registry import (
    DETECTOR_NAMES,
    TUNINGS,
    default_ensemble,
    detector_for_config,
)
from repro.errors import DetectorError, ReproError


def _nondefault_override(cls) -> tuple[str, object]:
    """One (param, non-default numeric value) pair for a detector class."""
    for name, value in cls.default_params().items():
        if isinstance(value, int) and not isinstance(value, bool):
            return name, value + 3
        if isinstance(value, float):
            return name, value * 2 + 0.25
    raise AssertionError(f"{cls.name} has no numeric parameter to override")


class TestConstructionFromName:
    @pytest.mark.parametrize("family", DETECTOR_NAMES)
    @pytest.mark.parametrize("tuning", TUNINGS)
    def test_round_trip_with_nondefault_params(self, family, tuning):
        config_name = f"{family}/{tuning}"
        baseline = detector_for_config(config_name)
        param, value = _nondefault_override(type(baseline))
        detector = detector_for_config(config_name, **{param: value})
        # Identity round-trips through the name...
        assert detector.name == family
        assert detector.tuning == tuning
        assert detector.config_name == config_name
        assert type(detector) is type(baseline)
        # ...and the override actually landed (and is non-default).
        assert detector.params[param] == value
        assert detector.params[param] != type(baseline).default_params().get(
            param, object()
        )
        # Untouched parameters keep the tuning's values.
        for other, expected in baseline.params.items():
            if other != param:
                assert detector.params[other] == expected

    @pytest.mark.parametrize("family", DETECTOR_NAMES)
    def test_engine_selection_reaches_detector(self, family):
        assert (
            detector_for_config(f"{family}/optimal", engine="python")
            .engine.name
            == "python"
        )
        assert (
            detector_for_config(f"{family}/optimal").engine.vectorized is True
        )


class TestTypedErrors:
    def test_unknown_family_raises_detector_error(self):
        with pytest.raises(DetectorError, match="unknown detector"):
            detector_for_config("wavelet/optimal")

    def test_unknown_tuning_raises_detector_error(self):
        with pytest.raises(DetectorError, match="no tuning"):
            detector_for_config("pca/paranoid")

    def test_malformed_name_raises_detector_error(self):
        with pytest.raises(DetectorError, match="family/tuning"):
            detector_for_config("pca")

    def test_unknown_parameter_raises_detector_error(self):
        # ``backend`` is no engine alias: it is an unknown parameter.
        for params in ({"warp_factor": 9}, {"backend": "python"}):
            with pytest.raises(DetectorError, match="unknown parameters"):
                detector_for_config("kl/optimal", **params)

    def test_unknown_engine_raises_detector_error(self):
        with pytest.raises(DetectorError):
            detector_for_config("kl/optimal", engine="cuda")

    def test_errors_are_package_typed(self):
        """Callers can catch ReproError for every registry failure."""
        for bad in ("nope/optimal", "pca/paranoid", "justafamily"):
            with pytest.raises(ReproError):
                detector_for_config(bad)


class TestEnsembleConsistency:
    def test_default_ensemble_matches_name_construction(self):
        """The ensemble is exactly the cross product, each member equal
        in (type, tuning, params) to its from-name twin."""
        ensemble = default_ensemble()
        assert [d.config_name for d in ensemble] == [
            f"{family}/{tuning}"
            for family in DETECTOR_NAMES
            for tuning in TUNINGS
        ]
        for member in ensemble:
            twin = detector_for_config(member.config_name)
            assert type(twin) is type(member)
            assert twin.params == member.params
            assert twin.engine is member.engine

    def test_unknown_ensemble_selection_raises(self):
        with pytest.raises(DetectorError):
            default_ensemble(detectors=("pca", "wavelet"))
        with pytest.raises(DetectorError):
            default_ensemble(tunings=("optimal", "paranoid"))
