"""Structural plan identity: the plan cache's fingerprint contract.

``graph_signature`` keys every built-in transform by its structural
fingerprint — its exact type plus every constructor argument, with aux
RNGs, shuffle buffers and series stages fingerprinted in turn
(``repro.engine.plan._FINGERPRINT_FIELDS``). The contract pinned here:

* equal constructor arguments give one fingerprint, hence one cached
  plan, and that plan — which walks the *first* graph's instances —
  gives the bits the interpreter gives on the second graph;
* changing any single constructor parameter changes the fingerprint;
* using an instance (compiled kernels, composed LUTs, period and window
  memos, the streaming cursor) does not change its key;
* subclasses and unlisted types fall back to instance identity;
* fresh builds of one graph stop growing the plan cache and memory.
"""

import dataclasses
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SCGraph, engine
from repro.core import (
    Decorrelator,
    Desynchronizer,
    Isolator,
    IsolatorPair,
    SeriesPair,
    SeriesStream,
    ShuffleBuffer,
    Synchronizer,
    TFMPair,
    TrackingForecastMemory,
)
from repro.engine.library import long_stream_graph
from repro.engine.plan import _FINGERPRINT_FIELDS, _fingerprint, graph_signature
from repro.graph.nodes import TransformNode
from repro.rng import (
    LFSR,
    CounterRNG,
    Halton,
    RotatedView,
    Sobol,
    StreamRNG,
    SystemRNG,
    VanDerCorput,
)

# Tier-1 profile: few examples, the same ones on every run.
TIER1 = settings(max_examples=6, derandomize=True, deadline=None)


# ---------------------------------------------------------------------- #
# Recipes: (type, kwargs) that build fresh, equal instances on demand
# ---------------------------------------------------------------------- #

def _build(recipe, made=None):
    """A fresh instance of ``recipe``; nested recipes (aux RNGs, series
    stages) are built fresh too, and every instance is appended to
    ``made``."""
    cls, kwargs = recipe
    obj = cls(**{name: _realize(value, made) for name, value in kwargs.items()})
    if made is not None:
        made.append(obj)
    return obj


def _realize(value, made):
    if isinstance(value, tuple) and value and isinstance(value[0], type):
        return _build(value, made)
    if isinstance(value, list):
        return [_realize(v, made) for v in value]
    return value


def _recipe(cls, **fields):
    return st.fixed_dictionaries(fields).map(lambda kwargs: (cls, kwargs))


_WIDTH = st.integers(3, 8)
_PHASE = st.integers(0, 300)
_BASE_RNGS = {
    LFSR: _recipe(LFSR, width=_WIDTH, seed=st.integers(1, 7), phase=st.integers(0, 20)),
    VanDerCorput: _recipe(VanDerCorput, width=_WIDTH, phase=_PHASE),
    Halton: _recipe(
        Halton, base=st.sampled_from((2, 3, 5, 7)), width=_WIDTH, phase=_PHASE
    ),
    Sobol: _recipe(
        Sobol, dimension=st.integers(0, Sobol.MAX_DIMENSION), width=_WIDTH,
        phase=_PHASE,
    ),
    CounterRNG: _recipe(CounterRNG, width=_WIDTH, offset=_PHASE),
    SystemRNG: _recipe(SystemRNG, width=_WIDTH, seed=st.integers(0, 100)),
}
_RNGS = {
    **_BASE_RNGS,
    RotatedView: _recipe(
        RotatedView, parent=st.one_of(*_BASE_RNGS.values()), phase=_PHASE
    ),
}
_ANY_RNG = st.one_of(*_RNGS.values())

_SYNC = st.integers(1, 4).flatmap(lambda depth: _recipe(
    Synchronizer, depth=st.just(depth), flush=st.booleans(),
    initial_state=st.integers(-depth, depth),
))
_DESYNC = _recipe(
    Desynchronizer, depth=st.integers(1, 4), flush=st.booleans(),
    first_save=st.sampled_from("xy"),
)
_ISO = _recipe(IsolatorPair, delay=st.integers(1, 5), fill=st.sampled_from((0, 1)))


def _deco(rng=_ANY_RNG):
    return _recipe(
        Decorrelator, rng_x=rng, rng_y=_ANY_RNG, depth=st.integers(1, 8),
        init=st.sampled_from(("half_ones", "zeros", "ones")),
    )


def _tfm(rng=_ANY_RNG):
    return _recipe(
        TFMPair, rng_x=rng, rng_y=st.none() | _ANY_RNG, bits=st.integers(2, 8),
        shift=st.integers(0, 4),
    )


_SERIES = _recipe(
    SeriesPair,
    stages=st.lists(st.one_of(_SYNC, _DESYNC, _ISO, _deco(), _tfm()),
                    min_size=1, max_size=3),
)

# Every table type, as the pair circuit that carries it into a graph:
# stream circuits ride inside their pair (a decorrelator's shuffle
# buffers, an isolator pair's delay line, a TFM pair's units), RNGs as a
# decorrelator's or TFM's aux source. No built-in pair circuit holds a
# SeriesStream, so it is checked at the circuit level only (below).
_IN_GRAPH = {
    Synchronizer: _SYNC,
    Desynchronizer: _DESYNC,
    Decorrelator: _deco(),
    ShuffleBuffer: _deco(),
    IsolatorPair: _ISO,
    Isolator: _ISO,
    TFMPair: _tfm(),
    TrackingForecastMemory: _tfm(),
    SeriesPair: _SERIES,
    **{cls: st.one_of(_deco(rng), _tfm(rng)) for cls, rng in _RNGS.items()},
}

_STREAM_CIRCUITS = {
    ShuffleBuffer: _recipe(
        ShuffleBuffer, rng=_ANY_RNG, depth=st.integers(1, 8),
        init=st.sampled_from(("half_ones", "zeros", "ones")),
    ),
    Isolator: _recipe(Isolator, delay=st.integers(1, 5), fill=st.sampled_from((0, 1))),
    TrackingForecastMemory: _recipe(
        TrackingForecastMemory, rng=_ANY_RNG, bits=st.integers(2, 8),
        shift=st.integers(0, 4), initial=st.floats(0.0, 1.0),
    ),
}
_STREAM_CIRCUITS[SeriesStream] = _recipe(
    SeriesStream,
    stages=st.lists(st.one_of(*_STREAM_CIRCUITS.values()), min_size=1, max_size=3),
)


def _splice_graph(transform) -> SCGraph:
    g = SCGraph()
    g.source("a", 0.7, "vdc")
    g.source("b", 0.4, "halton3")
    shared: dict = {}
    g.add(TransformNode("t_x", transform, ("a", "b"), 0, shared))
    g.add(TransformNode("t_y", transform, ("a", "b"), 1, shared))
    g.op("prod", "mul", "t_x", "t_y")
    return g


def _canonical(audit) -> str:
    """Float-exact audit text; NaN SCCs compare equal."""
    return json.dumps(dataclasses.asdict(audit), sort_keys=True)


def _name(cls) -> str:
    return cls.__name__


# ---------------------------------------------------------------------- #
# Equal arguments: one plan, the interpreter's bits
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("subject", list(_IN_GRAPH), ids=_name)
@TIER1
@given(data=st.data())
def test_equal_builds_share_one_plan_with_the_interpreters_bits(subject, data):
    recipe = data.draw(_IN_GRAPH[subject], label="circuit")
    length = data.draw(st.integers(1, 700), label="length")
    made = []
    first = _splice_graph(_build(recipe, made))
    second = _splice_graph(_build(recipe))
    plan = engine.compile(first)
    assert engine.compile(second) is plan

    # The plan walks the first graph's instances; the oracle is the
    # interpreter on the second graph's.
    interp = second.run(length, backend="interpreter")
    batch = plan.run_batch(length)
    for name, bits in interp.items():
        assert np.array_equal(batch.bits(name)[0], bits), name
    oracle = _canonical(second.audit(length, backend="interpreter"))
    for tile_words in (1, 64):
        for jobs in (1, 2):
            audit = engine.audit_streaming(
                plan, length, tile_words=tile_words, jobs=jobs
            )
            assert _canonical(audit) == oracle, (tile_words, jobs)

    # Running filled the first graph's caches; none of them is part of
    # its key.
    for obj in made:
        if isinstance(obj, StreamRNG):
            obj.next_value()
    assert graph_signature(first) == graph_signature(second)


@pytest.mark.parametrize("subject", list(_STREAM_CIRCUITS), ids=_name)
@TIER1
@given(data=st.data())
def test_equal_stream_circuits_share_a_fingerprint_and_bits(subject, data):
    recipe = data.draw(_STREAM_CIRCUITS[subject], label="circuit")
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=1, max_size=300), label="bits"
    )
    stream = np.array([bits], dtype=np.uint8)
    first, second = _build(recipe), _build(recipe)
    assert _fingerprint(first) is not None
    assert _fingerprint(first) == _fingerprint(second)
    assert np.array_equal(first.process(stream), second.process(stream))


# ---------------------------------------------------------------------- #
# Any changed parameter changes the fingerprint
# ---------------------------------------------------------------------- #

def _lfsr(seed):
    return LFSR(8, seed=seed)


# Per table type: base constructor arguments, and another value for every
# constructor parameter. A parameter added later needs an entry here, and
# then fails until the fingerprint table lists its attribute.
_VARIANTS = {
    Synchronizer: (
        dict(depth=2),
        dict(depth=3, flush=True, initial_state=1),
    ),
    Desynchronizer: (dict(), dict(depth=2, flush=True, first_save="y")),
    ShuffleBuffer: (
        dict(rng=_lfsr(45)),
        dict(rng=_lfsr(46), depth=8, init="zeros"),
    ),
    Decorrelator: (
        dict(rng_x=_lfsr(45), rng_y=_lfsr(142)),
        dict(rng_x=_lfsr(46), rng_y=_lfsr(143), depth=8, init="ones"),
    ),
    Isolator: (dict(), dict(delay=2, fill=1)),
    IsolatorPair: (dict(), dict(delay=2, fill=1)),
    TrackingForecastMemory: (
        dict(rng=_lfsr(77)),
        dict(rng=_lfsr(78), bits=6, shift=2, initial=0.25),
    ),
    TFMPair: (
        dict(rng_x=_lfsr(77)),
        dict(rng_x=_lfsr(78), rng_y=_lfsr(79), bits=6, shift=2),
    ),
    SeriesPair: (dict(stages=[Synchronizer(1)]), dict(stages=[Desynchronizer(1)])),
    SeriesStream: (dict(stages=[Isolator(1)]), dict(stages=[Isolator(2)])),
    LFSR: (dict(), dict(width=7, seed=2, taps=(8, 7), phase=3)),
    VanDerCorput: (dict(), dict(width=7, phase=3)),
    Halton: (dict(), dict(base=5, width=7, phase=2)),
    Sobol: (dict(), dict(dimension=1, width=7, phase=3)),
    CounterRNG: (dict(), dict(width=7, offset=3)),
    SystemRNG: (dict(), dict(width=7, seed=1)),
    RotatedView: (
        dict(parent=_lfsr(45), phase=3),
        dict(parent=_lfsr(46), phase=4, period=255),
    ),
}


@pytest.mark.parametrize("cls", list(_FINGERPRINT_FIELDS), ids=_name)
def test_changing_any_parameter_changes_the_fingerprint(cls):
    base, other = _VARIANTS[cls]
    params = list(inspect.signature(cls).parameters)
    assert sorted(other) == sorted(params), (
        f"{cls.__name__}: give every constructor parameter another value"
    )
    reference = _fingerprint(cls(**base))
    assert reference is not None
    assert _fingerprint(cls(**base)) == reference
    for name in params:
        changed = _fingerprint(cls(**dict(base, **{name: other[name]})))
        assert changed != reference, f"{cls.__name__}({name}=...) kept its fingerprint"


# ---------------------------------------------------------------------- #
# Subclasses and unlisted types key by identity
# ---------------------------------------------------------------------- #

class _Tweaked(Synchronizer):
    pass


class _Ramp(StreamRNG):
    """A StreamRNG subclass the fingerprint table does not list."""

    def __init__(self) -> None:
        super().__init__(modulus=256)

    @property
    def name(self) -> str:
        return "ramp"

    def _generate(self, length: int) -> np.ndarray:
        return np.arange(length, dtype=np.int64) % 256


def test_subclasses_and_unlisted_types_fall_back_to_identity():
    assert _fingerprint(_Tweaked(1)) is None
    first = engine.compile(_splice_graph(_Tweaked(1)))
    assert engine.compile(_splice_graph(_Tweaked(1))) is not first
    # An inherited key would hand the subclass its parent's plan, with
    # the parent's kernel-domain classification.
    parent = engine.compile(_splice_graph(Synchronizer(1)))
    assert parent is not first
    assert first.fsm_nodes == ["t_x", "t_y"] and parent.fsm_nodes == []

    # One unlisted part unkeys the whole transform.
    for build in (
        lambda: Decorrelator(_Ramp(), _lfsr(142)),
        lambda: TFMPair(RotatedView(_Ramp(), 3)),
        lambda: SeriesPair([Synchronizer(1), _Tweaked(1)]),
    ):
        assert _fingerprint(build()) is None
        assert engine.compile(_splice_graph(build())) is not engine.compile(
            _splice_graph(build())
        )


# ---------------------------------------------------------------------- #
# Fresh builds: one plan, flat memory
# ---------------------------------------------------------------------- #

def test_fresh_graph_audits_hit_one_plan_and_hold_no_memory():
    length = 1 << 12

    def fresh_audit():
        engine.audit_streaming(engine.compile(long_stream_graph(12)), length)

    engine.clear_cache()
    fresh_audit()
    size = engine.cache_info()["size"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(29):
            fresh_audit()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    info = engine.cache_info()
    assert (info["misses"], info["hits"]) == (1, 29)
    assert info["size"] == size
    assert growth < 1 << 20, f"30 fresh-graph audits kept {growth} bytes"
