"""RNG factory and registry.

Experiment configuration files and the benchmark harness name RNGs by
string ("lfsr", "vdc", "halton3", ...). :func:`make_rng` turns such a spec
into a concrete :class:`~repro.rng.base.StreamRNG` instance;
:func:`register_rng` lets downstream users plug in their own generators and
have them usable everywhere an RNG spec is accepted (Table II harness,
pipeline configs, ...).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Optional

from ..exceptions import RNGConfigurationError
from .base import StreamRNG
from .counter import CounterRNG
from .halton import Halton
from .lfsr import LFSR
from .sobol import Sobol
from .system import SystemRNG
from .vandercorput import VanDerCorput

__all__ = [
    "make_rng",
    "register_rng",
    "available_rngs",
    "default_seed",
    "get_default_seed",
    "set_default_seed",
]

_BUILDERS: Dict[str, Callable[..., StreamRNG]] = {}
_SEEDABLE: Dict[str, bool] = {}
_SEED_MAPS: Dict[str, Callable[[int, int], int]] = {}
_DEFAULT_SEED: Optional[int] = None


def register_rng(
    name: str,
    builder: Callable[..., StreamRNG],
    *,
    seedable: bool = False,
    seed_map: Optional[Callable[[int, int], int]] = None,
) -> None:
    """Register a builder callable under a spec name (case-insensitive).

    ``seedable`` marks builders that accept a ``seed`` keyword; only those
    receive the ambient :func:`default_seed` (the low-discrepancy
    sequences — VDC, Halton, Sobol, counter — are seedless by
    construction and keep their deterministic sequences). ``seed_map``
    folds the ambient seed ``(seed, width) -> valid builder seed`` for
    generators with a constrained seed domain (the LFSR rejects 0 and
    values past its period); explicit ``seed=`` kwargs are never mapped.
    """
    key = name.lower()
    if key in _BUILDERS:
        raise RNGConfigurationError(f"RNG spec {name!r} is already registered")
    _BUILDERS[key] = builder
    _SEEDABLE[key] = seedable
    _SEED_MAPS[key] = seed_map if seed_map is not None else (lambda seed, width: seed)


def available_rngs() -> tuple:
    """Sorted tuple of registered RNG spec names."""
    return tuple(sorted(_BUILDERS))


def get_default_seed() -> Optional[int]:
    """The ambient seed installed by :func:`default_seed` (None = builder
    defaults — the paper's published configurations)."""
    return _DEFAULT_SEED


def set_default_seed(seed: Optional[int]) -> Optional[int]:
    """Install the ambient seed non-contextually; returns the previous
    value. The persistent pool's long-lived workers sync it with this at
    every call prime."""
    global _DEFAULT_SEED
    previous = _DEFAULT_SEED
    _DEFAULT_SEED = seed
    return previous


@contextmanager
def default_seed(seed: Optional[int]):
    """Ambient seed for every seedable :func:`make_rng` call in the block.

    This is how ``python -m repro run --seed S`` reaches each experiment:
    the runner wraps shard execution in ``default_seed(S)`` so every
    factory-made seedable RNG (LFSR, system) derives from the command-line
    seed without threading a parameter through every experiment signature.
    Explicit ``seed=`` arguments (and direct constructor calls, which the
    paper's fixed configurations use) always win. ``None`` is a no-op.
    """
    global _DEFAULT_SEED
    previous = _DEFAULT_SEED
    _DEFAULT_SEED = seed
    try:
        yield
    finally:
        _DEFAULT_SEED = previous


def _builder_kwargs(spec: str, *, width: int = 8, **kwargs) -> Dict[str, object]:
    """The arguments ``make_rng(spec, width=width, **kwargs)`` hands its
    builder right now: ``width``, the given ``kwargs``, and, for a
    seedable spec with no explicit ``seed``, the ambient
    :func:`default_seed` folded through the spec's ``seed_map``.

    Equal arguments build equal generators, so a memo of generated
    sequences keys on these rather than on the spec's own kwargs, which
    do not change with the ambient seed.

    Raises:
        RNGConfigurationError: for unknown specs.
    """
    key = spec.lower()
    if key not in _BUILDERS:
        raise RNGConfigurationError(
            f"unknown RNG spec {spec!r}; available: {', '.join(available_rngs())}"
        )
    if _SEEDABLE[key] and "seed" not in kwargs and _DEFAULT_SEED is not None:
        kwargs["seed"] = _SEED_MAPS[key](_DEFAULT_SEED, width)
    kwargs["width"] = width
    return kwargs


def make_rng(spec: str, *, width: int = 8, **kwargs) -> StreamRNG:
    """Instantiate an RNG from a spec name.

    Args:
        spec: a registered name, e.g. ``"lfsr"``, ``"vdc"``, ``"halton3"``,
            ``"halton5"``, ``"sobol0"``, ``"counter"``, ``"system"``.
        width: bit width passed through to the builder.
        **kwargs: extra builder arguments (``seed``, ``phase``, ...).

    Seedable specs with no explicit ``seed`` pick up the ambient
    :func:`default_seed` when one is installed.

    Raises:
        RNGConfigurationError: for unknown specs.
    """
    kwargs = _builder_kwargs(spec, width=width, **kwargs)
    return _BUILDERS[spec.lower()](**kwargs)


register_rng(
    "lfsr",
    lambda width=8, **kw: LFSR(width=width, **kw),
    seedable=True,
    # Non-zero state within the period: the whole int range folds onto
    # [1, 2**width - 1].
    seed_map=lambda seed, width: 1 + seed % ((1 << width) - 1),
)
register_rng("vdc", lambda width=8, **kw: VanDerCorput(width=width, **kw))
register_rng("halton2", lambda width=8, **kw: Halton(base=2, width=width, **kw))
register_rng("halton3", lambda width=8, **kw: Halton(base=3, width=width, **kw))
register_rng("halton5", lambda width=8, **kw: Halton(base=5, width=width, **kw))
register_rng("halton7", lambda width=8, **kw: Halton(base=7, width=width, **kw))
register_rng("sobol0", lambda width=8, **kw: Sobol(dimension=0, width=width, **kw))
register_rng("sobol1", lambda width=8, **kw: Sobol(dimension=1, width=width, **kw))
register_rng("sobol2", lambda width=8, **kw: Sobol(dimension=2, width=width, **kw))
register_rng("counter", lambda width=8, **kw: CounterRNG(width=width, **kw))
register_rng("system", lambda width=8, **kw: SystemRNG(width=width, **kw), seedable=True)
