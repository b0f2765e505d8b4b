"""The engine layer itself: registry, resolution, kernels, scratch."""

import pickle

import pytest

from repro.engine import (
    ENGINE_ALIASES,
    KERNEL_OPS,
    Engine,
    EngineError,
    auto_engine,
    available_engines,
    get_engine,
    resolve_engine,
)
from repro.errors import ReproError


class TestResolution:
    def test_auto_resolves_to_vectorized_engine(self):
        assert resolve_engine("auto") is auto_engine()
        assert resolve_engine(None) is auto_engine()
        assert auto_engine().vectorized

    def test_names_resolve_to_singletons(self):
        assert resolve_engine("numpy") is get_engine("numpy")
        assert resolve_engine("python") is get_engine("python")

    def test_engine_instance_passes_through(self):
        engine = get_engine("python")
        assert resolve_engine(engine) is engine

    def test_unknown_spec_raises_typed_error(self):
        with pytest.raises(EngineError, match="cuda"):
            resolve_engine("cuda")
        with pytest.raises(ReproError):
            resolve_engine("cuda")

    def test_error_names_the_requesting_layer(self):
        with pytest.raises(EngineError, match="extractor"):
            resolve_engine("cuda", what="extractor")

    def test_aliases_cover_every_registered_engine(self):
        names = {engine.name for engine in available_engines()}
        assert names <= set(ENGINE_ALIASES)


class TestKernels:
    def test_every_engine_implements_every_canonical_op(self):
        for engine in available_engines():
            for op in KERNEL_OPS:
                assert engine.has_kernel(op), (engine.name, op)
                assert callable(engine.kernel(op))

    def test_unknown_kernel_raises_and_lists_registered(self):
        with pytest.raises(EngineError, match="registered"):
            get_engine("numpy").kernel("warp_drive")

    def test_duplicate_registration_rejected(self):
        engine = get_engine("numpy")
        op = KERNEL_OPS[0]
        with pytest.raises(EngineError, match="already"):
            engine.register(op, lambda: None)

    def test_register_as_decorator_on_fresh_engine(self):
        engine = Engine("scratchpad", "test-only", vectorized=False)

        @engine.register("double")
        def _double(x):
            return 2 * x

        assert engine.kernel("double")(4) == 8
        assert engine.kernels() == ("double",)


class TestIdentity:
    def test_engines_pickle_by_name_to_the_singleton(self):
        for engine in available_engines():
            clone = pickle.loads(pickle.dumps(engine))
            assert clone is engine

    def test_detector_holding_an_engine_pickles(self):
        from repro.detectors.registry import detector_for_config

        detector = detector_for_config("kl/optimal", engine="python")
        clone = pickle.loads(pickle.dumps(detector))
        assert clone.engine is get_engine("python")
        assert clone.params == detector.params
