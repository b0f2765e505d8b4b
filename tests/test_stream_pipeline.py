"""Streaming engine tests: parity, deltas, warm starts, dedup.

The central acceptance property: with one window covering the whole
trace, the streaming pipeline's CSV is byte-identical to the offline
:class:`~repro.labeling.mawilab.MAWILabPipeline`'s on both engines.
Around it, unit tests pin the incremental graph's delta algebra, the
Louvain warm start and the cross-window label merging.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicSimilarityGraph
from repro.core.graph import SimilarityGraph, build_similarity_graph
from repro.core.louvain import louvain, modularity
from repro.errors import GraphError, StreamError
from repro.labeling.mawilab import labels_to_csv
from repro.net.flow import Granularity
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.net.trace import Trace
from repro.stream import StreamingPipeline, chunk_table


# -- incremental similarity graph --------------------------------------


class TestDynamicGraph:
    def test_matches_offline_builder(self):
        arrays = [_codes(0, 1, 2), _codes(1, 2, 3), _codes(9), _codes(2, 9)]
        dynamic = DynamicSimilarityGraph(measure="simpson")
        dynamic.add_alarms(arrays)
        graph, node_of = dynamic.build()
        reference = build_similarity_graph(_sets(arrays), engine="python")
        assert node_of == {0: 0, 1: 1, 2: 2, 3: 3}
        assert _ordered(graph) == _ordered(reference)

    def test_expiry_equals_rebuild_without_expired(self):
        arrays = [_codes(1, 2, 3), _codes(2, 3), _codes(3, 4), _codes(4, 5)]
        dynamic = DynamicSimilarityGraph(measure="jaccard")
        ids = dynamic.add_alarms(arrays)
        dynamic.expire_alarms([ids[1]])
        graph, node_of = dynamic.build()
        survivors = [arrays[0], arrays[2], arrays[3]]
        reference = build_similarity_graph(
            _sets(survivors), measure="jaccard", engine="python"
        )
        assert graph.n_nodes == 3
        assert _ordered(graph) == _ordered(reference)
        # Stable ids: survivors keep their original ids, compacted.
        assert node_of == {ids[0]: 0, ids[2]: 1, ids[3]: 2}

    def test_interleaved_deltas_match_final_population(self):
        rng = np.random.default_rng(3)
        dynamic = DynamicSimilarityGraph(measure="simpson")
        live: dict[int, np.ndarray] = {}
        for step in range(60):
            if live and rng.random() < 0.35:
                victim = int(rng.choice(sorted(live)))
                dynamic.expire_alarms([victim])
                del live[victim]
            else:
                codes = np.unique(rng.integers(0, 12, rng.integers(1, 6)))
                (alarm_id,) = dynamic.add_alarms([codes])
                live[alarm_id] = codes
        graph, node_of = dynamic.build()
        ordered_ids = sorted(live)
        reference = build_similarity_graph(
            _sets([live[i] for i in ordered_ids]), engine="python"
        )
        assert _ordered(graph) == _ordered(reference)

    def test_expire_unknown_raises(self):
        dynamic = DynamicSimilarityGraph()
        with pytest.raises(GraphError):
            dynamic.expire_alarms([7])

    def test_unknown_measure_raises(self):
        with pytest.raises(GraphError):
            DynamicSimilarityGraph(measure="nope")


def _codes(*codes: int) -> np.ndarray:
    return np.array(codes, dtype=np.int64)


def _sets(arrays) -> list[frozenset]:
    return [frozenset(codes.tolist()) for codes in arrays]


#: A small flow universe: (src, sport, dst, dport, proto) per flow.
_flows = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(0, 2),
        st.sampled_from([PROTO_TCP, PROTO_UDP]),
    ),
    min_size=1,
    max_size=10,
    unique=True,
)


@given(
    universe=_flows,
    granularity=st.sampled_from([Granularity.UNIFLOW, Granularity.BIFLOW]),
    measure=st.sampled_from(["simpson", "jaccard", "constant"]),
    engine=st.sampled_from(["numpy", "python"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_carried_codes_track_their_flows(
    universe, granularity, measure, engine, data
):
    """Random windows over a small flow universe, each with a random
    subset of the flows present, random expiries and fresh alarms over
    the window's flows: after every window the graph is the offline
    graph of the live alarms' flow-key sets, every live alarm decodes
    to the set it was added with, and a code lies past the window's
    flows exactly when its flow has no packet in the window, which
    the extended table gives no rows."""
    dynamic = DynamicSimilarityGraph(measure=measure, engine=engine)
    live: dict[int, frozenset] = {}
    for _window in range(data.draw(st.integers(1, 5), label="windows")):
        present = data.draw(
            st.lists(
                st.sampled_from(universe), min_size=1, unique=True
            ),
            label="present",
        )
        packets = [
            Packet(
                time=float(t), src=src, sport=sport, dst=dst, dport=dport,
                proto=proto, size=60,
            )
            for t, (src, sport, dst, dport, proto) in enumerate(
                present + present[: len(present) // 2]
            )
        ]
        flows = Trace(packets).flow_table(granularity)
        victims = data.draw(
            st.lists(st.sampled_from(sorted(live)), unique=True)
            if live
            else st.just([]),
            label="expired",
        )
        dynamic.expire_alarms(victims)
        for victim in victims:
            del live[victim]
        extended = dynamic.recode(flows)
        fresh = [
            np.array(sorted(codes), dtype=np.int64)
            for codes in data.draw(
                st.lists(
                    st.sets(st.integers(0, len(flows) - 1)), max_size=4
                ),
                label="fresh",
            )
        ]
        for alarm_id, codes in zip(dynamic.add_alarms(fresh), fresh):
            live[alarm_id] = frozenset(flows.keys_of(codes))

        graph, node_of = dynamic.build()
        ids = sorted(live)
        reference = build_similarity_graph(
            [live[i] for i in ids], measure=measure, engine="python"
        )
        assert _ordered(graph) == _ordered(reference)
        assert dynamic.live_ids() == ids
        assert node_of == {alarm_id: node for node, alarm_id in enumerate(ids)}
        window_keys = set(flows.keys())
        assert extended.key_columns[: len(flows)].tolist() == (
            flows.key_columns.tolist()
        )
        for alarm_id, codes in zip(ids, dynamic.live_codes()):
            assert codes.tolist() == sorted(set(codes.tolist()))
            keys = extended.keys_of(codes)
            assert frozenset(keys) == live[alarm_id]
            for code, key in zip(codes.tolist(), keys):
                assert (code >= len(flows)) == (key not in window_keys)
        past = np.arange(len(flows), len(extended.key_columns))
        assert extended.rows_of(past).size == 0
        assert len(extended) == len(flows)
        assert extended.lookup(extended.key_columns[past]).tolist() == (
            [-1] * len(past)
        )


def _ordered(graph: SimilarityGraph):
    return {
        node: list(neighbors.items())
        for node, neighbors in graph.adjacency.items()
    }


# -- louvain warm start ------------------------------------------------


def _ring_of_cliques(n_cliques: int = 4, size: int = 4) -> SimilarityGraph:
    graph = SimilarityGraph(n_nodes=n_cliques * size)
    for c in range(n_cliques):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                graph.add_edge(base + i, base + j, 1.0)
        graph.add_edge(
            base + size - 1, ((c + 1) % n_cliques) * size, 0.1
        )
    return graph


class TestLouvainWarmStart:
    def test_default_is_cold_start(self):
        graph = _ring_of_cliques()
        assert louvain(graph, seed=3) == louvain(
            graph, seed=3, seed_partition=None
        )

    def test_seeding_with_result_is_stable(self):
        graph = _ring_of_cliques()
        cold = louvain(graph, seed=0)
        warm = louvain(graph, seed=0, seed_partition=cold)
        assert modularity(graph, warm) >= modularity(graph, cold) - 1e-12

    def test_warm_start_escapes_glued_seed(self):
        # All nodes seeded into one mega-community: refinement must
        # split it back apart instead of keeping the glue.
        graph = _ring_of_cliques()
        glued = {node: 0 for node in range(graph.n_nodes)}
        warm = louvain(graph, seed=0, seed_partition=glued)
        cold = louvain(graph, seed=0)
        assert len(set(warm.values())) > 1
        assert modularity(graph, warm) >= modularity(graph, cold) - 1e-9

    def test_partial_seed_gives_new_nodes_singletons(self):
        graph = _ring_of_cliques(n_cliques=2, size=3)
        seed_partition = {0: 0, 1: 0}  # nodes 2..5 unseeded
        partition = louvain(graph, seed=1, seed_partition=seed_partition)
        assert set(partition) == set(range(graph.n_nodes))
        labels = set(partition.values())
        assert labels == set(range(len(labels)))  # contiguous

    def test_warm_start_deterministic(self):
        graph = _ring_of_cliques(5, 3)
        seed_partition = {node: node % 3 for node in range(graph.n_nodes)}
        first = louvain(graph, seed=9, seed_partition=seed_partition)
        second = louvain(graph, seed=9, seed_partition=dict(seed_partition))
        assert first == second

    def test_empty_graph_warm_start(self):
        graph = SimilarityGraph(n_nodes=3)
        partition = louvain(graph, seed_partition={0: 0, 1: 0, 2: 1})
        assert set(partition) == {0, 1, 2}


# -- streaming pipeline ------------------------------------------------


@pytest.fixture(scope="module")
def archive_trace():
    from repro.mawi.archive import SyntheticArchive

    return SyntheticArchive(seed=2010, trace_duration=20.0).day(
        "2005-06-01"
    ).trace


class TestStreamingParity:
    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_full_window_matches_offline_csv(self, archive_trace, engine):
        from repro.labeling.mawilab import MAWILabPipeline

        offline = labels_to_csv(
            MAWILabPipeline(engine=engine).run(archive_trace).labels
        )
        pipeline = StreamingPipeline(window=1e9, engine=engine)
        result = pipeline.run(
            chunk_table(archive_trace.table, 400),
            metadata=archive_trace.metadata,
        )
        assert len(result.windows) == 1
        assert result.to_csv() == offline

    def test_chunk_size_invariance(self, archive_trace):
        outputs = {
            chunk: StreamingPipeline(window=1e9)
            .run(chunk_table(archive_trace.table, chunk))
            .to_csv()
            for chunk in (100, 1000, 10**6)
        }
        assert len(set(outputs.values())) == 1


class TestStreamingWindows:
    def test_hop_emits_expected_windows(self, archive_trace):
        pipeline = StreamingPipeline(window=8.0, hop=4.0)
        result = pipeline.run(chunk_table(archive_trace.table, 300))
        assert result.stats.n_windows >= 3
        # Windows advance by hop.
        starts = [w.t0 for w in result.windows[:-1]]
        assert all(
            b - a == pytest.approx(4.0) for a, b in zip(starts, starts[1:])
        )
        # Ring stays bounded below the whole trace.
        assert result.stats.peak_ring_packets < len(archive_trace)
        assert result.stats.total_packets == len(archive_trace)
        assert result.stats.packets_per_sec > 0
        assert result.stats.p95_latency >= max(
            w.latency for w in result.windows
        ) * 0.0  # non-negative, defined
        assert len(result.stats.window_latencies) == len(result.windows)

    def test_overlap_merges_labels_with_extended_spans(self, archive_trace):
        pipeline = StreamingPipeline(window=8.0, hop=4.0)
        result = pipeline.run(chunk_table(archive_trace.table, 300))
        per_window = sum(len(w.labels) for w in result.windows)
        assert 0 < len(result.labels) < per_window
        assert any(
            label.t1 - label.t0 > 8.0 + 1e-9 for label in result.labels
        )
        # Renumbered contiguously.
        assert [label.community_id for label in result.labels] == list(
            range(len(result.labels))
        )

    def test_overlap_dedupes_alarms(self, archive_trace):
        pipeline = StreamingPipeline(window=8.0, hop=4.0)
        result = pipeline.run(chunk_table(archive_trace.table, 300))
        later = result.windows[1:]
        assert all(w.n_new_alarms <= w.n_live_alarms for w in later)
        # At least one window carried alarms over instead of
        # re-detecting everything from scratch.
        assert any(w.n_new_alarms < w.n_live_alarms for w in later)

    def test_expired_alarms_leave_the_graph(self, archive_trace):
        pipeline = StreamingPipeline(window=5.0, hop=5.0)
        result = pipeline.run(chunk_table(archive_trace.table, 300))
        # Tumbling windows: no alarm survives its window, so the live
        # population equals each window's own detections.
        final_live = pipeline._graph.n_live
        assert final_live == result.windows[-1].n_live_alarms
        assert final_live < sum(w.n_new_alarms for w in result.windows)


class TestLabelMerging:
    def test_same_key_interleaved_labels_keep_emission_order(self):
        """Within one window, same-key labels interleaved with others
        must come out in emission order — the offline CSV order."""
        from dataclasses import replace as dc_replace

        from repro.labeling.heuristics import HeuristicLabel
        from repro.labeling.mawilab import LabelRecord
        from repro.rules.summarize import CommunitySummary

        def record(community_id, detail, t0, t1):
            return LabelRecord(
                community_id=community_id,
                taxonomy="notice",
                heuristic=HeuristicLabel(category="unknown", detail=detail),
                summary=CommunitySummary(),
                t0=t0,
                t1=t1,
                n_alarms=1,
                detectors=("kl",),
            )

        pipeline = StreamingPipeline(window=10.0)
        emitted = [
            record(0, "Unknown", 0.0, 5.0),
            record(1, "Other", 1.0, 2.0),
            record(2, "Unknown", 3.0, 6.0),  # same key as the first
        ]
        pipeline._merge_labels(emitted)
        merged = pipeline.merged_labels()
        assert [r.heuristic.detail for r in merged] == [
            "Unknown",
            "Other",
            "Unknown",
        ]
        assert [r.community_id for r in merged] == [0, 1, 2]
        assert [(r.t0, r.t1) for r in merged] == [
            (r.t0, r.t1) for r in emitted
        ]
        # Across windows the same key *does* merge.
        pipeline._window_index += 1
        pipeline._merge_labels([dc_replace(emitted[2], t0=5.0, t1=9.0)])
        merged = pipeline.merged_labels()
        assert len(merged) == 3
        assert (merged[2].t0, merged[2].t1) == (3.0, 9.0)


class TestStreamingValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(StreamError):
            StreamingPipeline(window=0.0)

    def test_rejects_bad_hop(self):
        with pytest.raises(StreamError):
            StreamingPipeline(window=10.0, hop=20.0)
        with pytest.raises(StreamError):
            StreamingPipeline(window=10.0, hop=0.0)

    def test_rejects_packet_granularity(self):
        with pytest.raises(StreamError):
            StreamingPipeline(window=10.0, granularity=Granularity.PACKET)

    def test_empty_stream_yields_nothing(self):
        pipeline = StreamingPipeline(window=10.0)
        assert list(pipeline.process(iter(()))) == []
        assert pipeline.merged_labels() == []


class TestKLBaselineCarry:
    def test_first_window_matches_offline(self, archive_trace):
        from repro.detectors.kl import KLDetector

        detector = KLDetector()
        state: dict = {}
        streamed = detector.analyze_stream(archive_trace, state)
        assert streamed == detector.analyze(archive_trace)
        assert "baseline" in state
        assert set(state["baseline"]) == {"src", "dst", "sport", "dport"}
        # The last bin's rows ride along, as a rule-mining block, for
        # the lift filter.
        block = state["baseline_block"]
        assert isinstance(block, np.ndarray)
        assert block.ndim == 2 and block.shape[1] == 4 and len(block) > 0

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_engines_agree_with_baseline(self, archive_trace, engine):
        """Both engines carry identical baselines and agree on the
        windows where alarms fire."""
        from repro.detectors.kl import KLDetector

        half = archive_trace.duration / 2
        t0 = archive_trace.start_time
        first = _slice_trace(archive_trace, t0, t0 + half)
        second = _slice_trace(archive_trace, t0 + half, t0 + 2 * half + 1)

        results = {}
        baselines = {}
        blocks = {}
        for b in ("numpy", "python"):
            detector = KLDetector(engine=b)
            state: dict = {}
            detector.analyze_stream(first, state)
            baselines[b] = state["baseline"]
            blocks[b] = state["baseline_block"]
            results[b] = detector.analyze_stream(second, state)
        assert baselines["numpy"] == baselines["python"]
        assert np.array_equal(blocks["numpy"], blocks["python"])
        assert results["numpy"] == results["python"]

    def test_engines_agree_on_streamed_bin_zero(self):
        """A second window whose bin 0 bursts against the carried last
        bin: bin 0 is scored and mined against the baseline, its lift
        filter drops the steady flow the baseline already carried, and
        both engines emit the same alarms."""
        from repro.detectors.kl import KLDetector

        rng = np.random.default_rng(7)
        first = _synthetic_window(0.0, rng)
        second = _synthetic_window(12.0, rng, burst=450)
        results = {}
        for engine in ("numpy", "python"):
            detector = KLDetector(engine=engine)
            state: dict = {}
            detector.analyze_stream(first, state)
            results[engine] = detector.analyze_stream(second, state)
        bin_zero = [
            f
            for alarm in results["numpy"]
            if alarm.t0 == second.start_time
            for f in alarm.filters
        ]
        assert any(
            f.src == _BURST_SRC and f.dst == _SERVER and f.dport == 80
            for f in bin_zero
        )
        # Mined in bin 0 too, but as common in the carried last bin.
        assert not any(f.src == _STEADY_SRC for f in bin_zero)
        assert results["numpy"] == results["python"]


@pytest.fixture(scope="module")
def gapped_day():
    """An archive day with packets cut from 10 s to 19 s after its
    first, except the gap's first two: streamed in 4 s windows with a
    2 s hop, one window holds 2 packets and the next two hold none."""
    from repro.mawi.archive import SyntheticArchive

    trace = SyntheticArchive(seed=2010, trace_duration=30.0).day(
        "2003-12-22"
    ).trace
    time = trace.table.time
    start = float(time.min())
    in_gap = np.flatnonzero((time >= start + 10) & (time < start + 19))
    keep = np.setdiff1d(np.arange(len(trace)), in_gap[2:])
    return trace.table.take(keep), trace.metadata


class TestSparseWindow:
    """A window too small for KL (under 4 packets) and two empty ones:
    KL returns early and keeps the baseline it carried into the gap."""

    def test_engines_and_pool_write_the_same_labels(self, gapped_day):
        from repro.session import LabelingSession

        table, metadata = gapped_day
        csvs = {}
        for engine in ("numpy", "python"):
            result = StreamingPipeline(window=4.0, hop=2.0, engine=engine).run(
                chunk_table(table, 500), metadata=metadata
            )
            csvs[engine] = result.to_csv()
            assert [w.n_packets for w in result.windows][4:9] == [
                433, 2, 0, 0, 320,
            ]
            assert len(result.labels) == 382
        with LabelingSession(workers=2) as session:
            pipeline = session.streaming_pipeline(window=4.0, hop=2.0)
            csvs["pool"] = pipeline.run(
                chunk_table(table, 500), metadata=metadata
            ).to_csv()
            pipeline.close()
        assert csvs["numpy"] == csvs["python"] == csvs["pool"]

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_kl_baseline_carries_across_the_gap(self, gapped_day, engine):
        """The sparse and the empty windows leave every KL tuning's
        baseline as the window before the gap left it, its last time
        bin, and the window after the gap replaces it."""
        from tests.kl_oracle import bin_counters

        table, metadata = gapped_day
        pipeline = StreamingPipeline(window=4.0, hop=2.0, engine=engine)
        kl = [w for w in pipeline.detectors if w.detector.name == "kl"]
        assert len(kl) == 3
        seen = [
            (window, [w.state["baseline"] for w in kl],
             [w.state["baseline_block"] for w in kl])
            for window in pipeline.process(chunk_table(table, 500), metadata)
        ]
        sizes = [window.n_packets for window, _, _ in seen]
        first = sizes.index(433)
        assert sizes[first : first + 5] == [433, 2, 0, 0, 320]
        window, baselines, blocks = seen[first]
        for _, gap_baselines, gap_blocks in seen[first + 1 : first + 4]:
            assert all(a is b for a, b in zip(gap_baselines, baselines))
            assert all(a is b for a, b in zip(gap_blocks, blocks))
        _, after, _ = seen[first + 4]
        assert all(a is not b for a, b in zip(after, baselines))

        rows = np.flatnonzero(
            (table.time >= window.t0) & (table.time < window.t1)
        )
        before_gap = Trace.from_table(table.take(rows))
        n_bins = kl[0].detector.params["n_bins"]
        last_bin = {
            feature: bin_counters(before_gap, feature, n_bins)[-1]
            for feature in ("src", "dst", "sport", "dport")
        }
        assert sum(last_bin["src"].values()) > 0
        for baseline, block in zip(baselines, blocks):
            assert baseline == last_bin
            assert len(block) == sum(last_bin["src"].values())


_STEADY_SRC, _SERVER, _BURST_SRC = 0x0A000001, 0x0B000001, 0x0A0B0C0D


def _synthetic_window(start, rng, burst=0):
    """12 s of background plus a steady flow to port 80 of one server;
    ``burst`` more packets to that port from a new host in the first
    second."""
    from repro.net.table import PacketTable
    from repro.net.trace import Trace

    def packets(time, src, dst, sport, dport):
        n = len(time)
        return PacketTable(
            time=time,
            **{
                name: np.broadcast_to(value, n)
                for name, value in (
                    ("src", src), ("dst", dst), ("sport", sport), ("dport", dport),
                )
            },
            proto=np.full(n, 6),
            size=np.full(n, 60),
            tcp_flags=np.full(n, 16),
            icmp_type=np.zeros(n),
        )

    n, m = 3600, 1800
    parts = [
        packets(
            start + np.sort(rng.uniform(0, 12, n)),
            0x0C000000 + rng.integers(0, 50, n),
            0x0D000000 + rng.integers(0, 20, n),
            rng.integers(1024, 60000, n),
            rng.choice([22, 25, 53, 443], n),
        ),
        packets(
            start + np.linspace(0, 12, m, endpoint=False),
            _STEADY_SRC,
            _SERVER,
            rng.integers(1024, 60000, m),
            80,
        ),
    ]
    if burst:
        parts.append(
            packets(
                start + np.linspace(0, 0.9, burst), _BURST_SRC, _SERVER, 4444, 80
            )
        )
    return Trace.from_table(PacketTable.concatenate(parts))


def _slice_trace(trace, t0, t1):
    from repro.net.trace import Trace

    window = trace.time_slice(t0, t1)
    return Trace.from_table(
        trace.table.take(np.arange(window.start, window.stop))
    )
