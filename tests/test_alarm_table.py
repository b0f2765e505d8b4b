"""Columnar alarm/label storage: round-trips, slicing algebra, parity.

The satellite properties:

* ``list(AlarmTable.from_alarms(alarms)) == alarms`` for any alarm
  list (wildcard filters, flow-key sets, scores);
* ``concat(slice(a), slice(b))`` is the identity on any split point,
  and slices keep the views the source table already holds;
* the pipeline labels identically from an object list, a warm table
  and a cold (pickled) table, with annotations, on both engines — one
  table path whatever the engine;
* ``LabelStore`` round-trips records exactly.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alarm_table import ALL_ARRAYS, AlarmTable
from repro.core.annotations import Annotation
from repro.detectors.base import Alarm
from repro.net.filters import FeatureFilter
from repro.net.flow import FlowKey, Granularity
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP

# -- strategies -------------------------------------------------------

_opt_addr = st.none() | st.integers(0, 2**32 - 1)
_opt_port = st.none() | st.integers(0, 2**16 - 1)
_protos = st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP])

filters = st.builds(
    FeatureFilter,
    src=_opt_addr,
    dst=_opt_addr,
    sport=_opt_port,
    dport=_opt_port,
    proto=st.none() | _protos,
    t0=st.none() | st.floats(0.0, 5.0, allow_nan=False),
    t1=st.none() | st.floats(5.0, 10.0, allow_nan=False),
)

flow_keys = st.builds(
    FlowKey,
    src=st.integers(0, 2**32 - 1),
    sport=st.integers(0, 2**16 - 1),
    dst=st.integers(0, 2**32 - 1),
    dport=st.integers(0, 2**16 - 1),
    proto=_protos,
)


@st.composite
def alarms_strategy(draw):
    detector = draw(st.sampled_from(["pca", "gamma", "hough", "kl"]))
    tuning = draw(st.sampled_from(["optimal", "sensitive", "conservative"]))
    t0 = draw(st.floats(0.0, 5.0, allow_nan=False))
    t1 = draw(st.floats(5.0, 10.0, allow_nan=False))
    alarm_filters = tuple(draw(st.lists(filters, max_size=3)))
    keys = frozenset(draw(st.lists(flow_keys, max_size=4)))
    if not alarm_filters and not keys:
        alarm_filters = (FeatureFilter(src=draw(st.integers(0, 10))),)
    return Alarm(
        detector=detector,
        config=f"{detector}/{tuning}",
        t0=t0,
        t1=t1,
        filters=alarm_filters,
        flow_keys=keys,
        score=draw(st.floats(-10.0, 10.0, allow_nan=False)),
    )


alarm_lists = st.lists(alarms_strategy(), max_size=25)

_SETTINGS = settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


# -- AlarmTable <-> list round-trip ------------------------------------


@pytest.mark.parametrize("engine", ["numpy", "python"])
@given(alarm_lists)
@_SETTINGS
def test_from_alarms_to_alarms_round_trips(engine, alarm_list):
    table = AlarmTable.from_alarms(alarm_list, engine=engine)
    assert len(table) == len(alarm_list)
    assert list(table) == alarm_list


@given(alarm_lists)
@_SETTINGS
def test_round_trip_survives_pickling(alarm_list):
    """A pickled table (the cache / pool-pipe format) rebuilds views
    equal to the source objects, through cold caches."""
    table = pickle.loads(
        pickle.dumps(AlarmTable.from_alarms(alarm_list))
    )
    assert list(table) == alarm_list
    assert table == AlarmTable.from_alarms(alarm_list)


@given(alarm_lists)
@_SETTINGS
def test_engines_encode_identically(alarm_list):
    assert AlarmTable.from_alarms(
        alarm_list, engine="numpy"
    ) == AlarmTable.from_alarms(alarm_list, engine="python")


# -- slicing algebra ----------------------------------------------------


@given(alarm_lists, st.integers(0, 25))
@_SETTINGS
def test_concat_of_slices_is_identity(alarm_list, raw_split):
    split = min(raw_split, len(alarm_list))
    table = AlarmTable.from_alarms(alarm_list)
    head = table.take(np.arange(0, split))
    tail = table.take(np.arange(split, len(table)))
    rebuilt = AlarmTable.concatenate([head, tail])
    assert list(rebuilt) == alarm_list
    # Cold-cache equality too: codes, bounds and encoded designations
    # must all survive, not just the views.
    assert list(pickle.loads(pickle.dumps(rebuilt))) == alarm_list


@given(alarm_lists, st.data())
@_SETTINGS
def test_take_matches_list_indexing(alarm_list, data):
    table = AlarmTable.from_alarms(alarm_list)
    rows = data.draw(
        st.lists(
            st.integers(0, max(len(alarm_list) - 1, 0)), max_size=12
        )
        if alarm_list
        else st.just([])
    )
    subset = table.take(np.array(rows, dtype=np.int64))
    assert list(subset) == [alarm_list[i] for i in rows]


@given(alarm_lists, st.data())
@_SETTINGS
def test_slices_keep_the_encoded_objects(alarm_list, data):
    """``take`` and ``concatenate`` carry the view caches: the subset's
    alarms, filters and flow keys are the very objects encoded, never
    rebuilt from the columns."""
    table = AlarmTable.from_alarms(alarm_list)
    rows = data.draw(st.permutations(range(len(alarm_list))))
    subset = table.take(np.array(rows, dtype=np.int64))
    rebuilt = AlarmTable.concatenate([subset, table])
    for view, i in zip(rebuilt, rows + list(range(len(alarm_list)))):
        assert view is alarm_list[i]
    filters = [f for i in rows for f in alarm_list[i].filters]
    assert all(
        subset.filter_at(j) is f for j, f in enumerate(filters)
    )
    flow_keys = {id(k) for a in alarm_list for k in a.flow_keys}
    assert all(
        id(subset.flow_key_at(j)) in flow_keys
        for j in range(len(subset.w_src))
    )


@given(alarm_lists)
@_SETTINGS
def test_boolean_mask_take(alarm_list):
    table = AlarmTable.from_alarms(alarm_list)
    mask = table.t1 <= 7.5
    survivors = table.take(~mask)
    assert list(survivors) == [
        a for a in alarm_list if not a.t1 <= 7.5
    ]


def test_empty_table():
    table = AlarmTable.empty()
    assert len(table) == 0
    assert list(table) == []
    assert AlarmTable.concatenate([]) == table
    assert list(table.take(np.empty(0, dtype=np.int64))) == []


def _one_alarm_arrays(**filter_values) -> dict:
    """The columns of a one-alarm table, with some filter values
    overwritten (as a crafted segment could hold them)."""
    table = AlarmTable.from_alarms(
        [Alarm("pca", "pca/a", 0.0, 1.0, (FeatureFilter(sport=80),))]
    )
    arrays = {name: getattr(table, name) for name in ALL_ARRAYS}
    for name, value in filter_values.items():
        arrays[name] = np.array([value], dtype=arrays[name].dtype)
    return arrays


def _table_of(arrays) -> AlarmTable:
    return AlarmTable(
        *(arrays[name] for name in ALL_ARRAYS),
        detectors=("pca",),
        configs=("pca/a",),
    )


@pytest.mark.parametrize(
    "column, limit",
    [
        ("f_src", 1 << 32),
        ("f_dst", 1 << 32),
        ("f_sport", 1 << 16),
        ("f_dport", 1 << 16),
        ("f_proto", 1 << 8),
    ],
)
def test_filter_values_must_fit_their_packet_column(column, limit):
    """A filter value is the wildcard -1 or one its packet column can
    hold; anything else cannot come from a FeatureFilter."""
    for value in (-1, 0, limit - 1):
        assert len(_table_of(_one_alarm_arrays(**{column: value}))) == 1
    for value in (-2, limit):
        with pytest.raises(ValueError, match=column):
            _table_of(_one_alarm_arrays(**{column: value}))


def test_impossible_filter_value_is_a_corrupt_segment(tmp_path):
    """A crafted one-alarm segment holding ``f_sport=70000`` decodes to
    ``WarehouseError``, and as an alarm-cache entry (right envelope and
    digest) it is an evicted miss: no engine ever extracts it."""
    from repro.errors import WarehouseError
    from repro.labeling.warehouse import (
        Segment,
        alarm_table_from_segment,
        encode_segment,
    )
    from repro.runner import AlarmCache
    from repro.runner.cache import _ENTRY_MAGIC

    payload = encode_segment(
        "alarms",
        _one_alarm_arrays(f_sport=70000),
        {"detectors": ["pca"], "configs": ["pca/a"]},
        {},
    )
    with pytest.raises(WarehouseError, match="f_sport"):
        alarm_table_from_segment(Segment(payload, kind="alarms"))

    cache = AlarmCache(tmp_path)
    key = AlarmCache.make_key("arch", "day", "ens")
    cache.path_for(key).write_bytes(
        _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
    )
    assert cache.get(key) is None
    assert (cache.evictions, cache.misses, cache.hits) == (1, 1, 0)
    assert not cache.path_for(key).exists()


def test_code_columns_group_by_name():
    alarms = [
        Alarm("pca", "pca/a", 0.0, 1.0, (FeatureFilter(src=1),)),
        Alarm("kl", "kl/a", 0.0, 1.0, (FeatureFilter(src=2),)),
        Alarm("pca", "pca/a", 1.0, 2.0, (FeatureFilter(src=3),)),
    ]
    table = AlarmTable.from_alarms(alarms)
    assert table.detectors == ("pca", "kl")
    assert table.configs == ("pca/a", "kl/a")
    assert table.det_code.tolist() == [0, 1, 0]
    assert table.config_code.tolist() == [0, 1, 0]
    assert table.config_names_at([0, 2]) == {"pca/a"}
    assert table.detector_names_at([0, 1]) == {"pca", "kl"}


# -- pipeline parity: list path vs table path ---------------------------


@pytest.fixture(scope="module")
def archive_day():
    from repro.mawi.archive import SyntheticArchive

    return SyntheticArchive(seed=11, trace_duration=8.0).day("2005-03-01")


#: One annotation overlapping the day's web traffic, so the pseudo-alarm
#: joins communities and shows up in the labels.
_ANNOTATIONS = (
    Annotation(tag="web", t0=1.0, t1=5.0, filters=(FeatureFilter(dport=80),)),
)


@pytest.fixture(scope="module")
def numpy_csvs(archive_day):
    """The numpy engine's CSV per granularity and annotation setting
    (the reference)."""
    from repro.labeling.mawilab import MAWILabPipeline, labels_to_csv

    table = MAWILabPipeline(engine="numpy").detect(archive_day.trace)
    return {
        (granularity, annotations): labels_to_csv(
            MAWILabPipeline(engine="numpy", granularity=granularity)
            .run_with_alarms(archive_day.trace, table, annotations=annotations)
            .labels
        )
        for granularity in Granularity
        for annotations in ((), _ANNOTATIONS)
    }


@pytest.mark.parametrize("granularity", list(Granularity), ids=str)
@pytest.mark.parametrize("engine", ["numpy", "python"])
def test_pipeline_labels_identically_from_list_and_table(
    archive_day, numpy_csvs, engine, granularity
):
    """Every engine runs Steps 2-4 over one alarm table at every
    granularity: an object list, the detector-warm table and a cold
    (pickled) table label byte-identically to the numpy engine, with
    and without annotations, and the result carries the table it ran
    over."""
    from repro.labeling.mawilab import MAWILabPipeline, labels_to_csv

    pipeline = MAWILabPipeline(engine=engine, granularity=granularity)
    trace = archive_day.trace
    table = pipeline.detect(trace)
    assert isinstance(table, AlarmTable)
    cold = pickle.loads(pickle.dumps(table))
    for alarms in (list(table), table, cold):
        for annotations in ((), _ANNOTATIONS):
            result = pipeline.run_with_alarms(
                trace, alarms, annotations=annotations
            )
            assert isinstance(result.alarms, AlarmTable)
            assert result.community_set.alarms is result.alarms
            assert len(result.alarms) == len(table) + len(annotations)
            assert (
                labels_to_csv(result.labels)
                == numpy_csvs[granularity, annotations]
            )
    assert numpy_csvs[granularity, ()] != numpy_csvs[granularity, _ANNOTATIONS]


# -- LabelStore ---------------------------------------------------------


def test_label_store_round_trips_records(archive_day):
    from repro.labeling.mawilab import MAWILabPipeline, labels_to_csv
    from repro.labeling.store import LabelStore, taxonomy_counts

    result = MAWILabPipeline().run(archive_day.trace)
    store = LabelStore.from_records(result.labels)
    assert store.to_records() == result.labels
    assert labels_to_csv(store) == labels_to_csv(result.labels)
    # Cold caches (the pickled store) materialize equal records too.
    clone = pickle.loads(pickle.dumps(store))
    assert clone.to_records() == result.labels
    counts = taxonomy_counts(store)
    assert counts["anomalous"] == len(result.anomalous())
    assert counts["suspicious"] == len(result.suspicious())
    assert counts["notice"] == len(result.notice())


def test_label_store_take_is_a_column_gather(archive_day):
    from repro.labeling.mawilab import MAWILabPipeline
    from repro.labeling.store import LabelStore

    result = MAWILabPipeline().run(archive_day.trace)
    store = LabelStore.from_records(result.labels)
    rows = [i for i in range(len(store)) if i % 2 == 0][::-1]
    subset = store.take(np.array(rows, dtype=np.int64))
    assert subset.to_records() == [result.labels[i] for i in rows]
    mask = store.taxonomy_code == 0
    assert store.take(mask).to_records() == [
        r for r in result.labels if r.taxonomy == "anomalous"
    ]


def test_label_store_with_columns_overrides(archive_day):
    from repro.labeling.mawilab import MAWILabPipeline
    from repro.labeling.store import LabelStore

    result = MAWILabPipeline().run(archive_day.trace)
    store = LabelStore.from_records(result.labels)
    renumbered = store.with_columns(
        community_id=np.arange(len(store)) + 100
    )
    assert [r.community_id for r in renumbered] == [
        i + 100 for i in range(len(store))
    ]
    # Everything else is untouched.
    assert [r.taxonomy for r in renumbered] == [
        r.taxonomy for r in result.labels
    ]
    with pytest.raises(KeyError):
        store.with_columns(no_such_column=np.arange(len(store)))
