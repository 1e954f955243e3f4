"""Backward error lens semantics: spaces, lenses, and the interpreter."""

from .interp import BeanLens, lens_of_definition, lens_of_program
from .lens import (
    Lens,
    LensDomainError,
    check_property_1,
    check_property_2,
    compose,
    copair,
    grade_lens,
    identity_lens,
    inj1,
    inj2,
    proj1,
    proj2,
    tensor,
)
from .primitives import (
    lens_add,
    lens_div,
    lens_dmul,
    lens_mul,
    lens_sub,
)
from .spaces import (
    INF,
    DiscreteSpace,
    GradedSpace,
    NumSpace,
    Space,
    SumSpace,
    TensorSpace,
    UnitObjectI,
    UnitSpace,
    grade_bound,
    rp_distance,
    space_of_type,
    type_distance,
)
from .witness import ParamWitness, WitnessReport, env_from_pythons, run_witness

__all__ = [name for name in dir() if not name.startswith("_")]

# The batch/shard engines are the only numpy consumers in the package;
# load them lazily (PEP 562) so plain checking/witnessing never pays the
# numpy import.
_LAZY_BATCH = ("BatchWitnessEngine", "BatchWitnessReport", "run_witness_batch")
_LAZY_SHARD = ("run_witness_sharded", "shard_bounds")
_LAZY_POOL = ("ShardWorkerPool",)
__all__ += list(_LAZY_BATCH) + list(_LAZY_SHARD) + list(_LAZY_POOL)


def __getattr__(name):
    if name in _LAZY_BATCH:
        from . import batch

        return getattr(batch, name)
    if name in _LAZY_SHARD:
        from . import shard

        return getattr(shard, name)
    if name in _LAZY_POOL:
        from . import pool

        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
