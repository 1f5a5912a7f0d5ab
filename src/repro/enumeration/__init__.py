"""Exhaustive execution enumeration and conformance-test synthesis (§4)."""

from .canonical import canonical_key, dedup
from .complete import complete_skeleton, enumerate_executions
from .config import (
    ARMV8_CONFIG,
    CONFIGS,
    CPP_CONFIG,
    POWER_CONFIG,
    SC_CONFIG,
    X86_CONFIG,
    EnumerationConfig,
    get_config,
)
from .minimality import is_minimal_inconsistent, weakenings
from .sharding import (
    complete_shard_range,
    complete_skeleton_range,
    completion_count,
    cumulative_counts,
    shard_completion_counts,
    shard_signatures,
    shard_skeletons,
    signature_label,
)
from .shapes import (
    LOC_NAMES,
    Skeleton,
    enumerate_skeletons,
    interval_sets,
    partitions,
    restricted_growth_strings,
    sample_growth_string,
    sample_interval_set,
    sample_partition,
)
from .synthesis import SynthesisResult

__all__ = [
    "ARMV8_CONFIG",
    "CONFIGS",
    "CPP_CONFIG",
    "LOC_NAMES",
    "POWER_CONFIG",
    "SC_CONFIG",
    "X86_CONFIG",
    "EnumerationConfig",
    "Skeleton",
    "SynthesisResult",
    "canonical_key",
    "complete_shard_range",
    "complete_skeleton",
    "complete_skeleton_range",
    "completion_count",
    "cumulative_counts",
    "dedup",
    "enumerate_executions",
    "enumerate_skeletons",
    "get_config",
    "interval_sets",
    "is_minimal_inconsistent",
    "partitions",
    "restricted_growth_strings",
    "sample_growth_string",
    "sample_interval_set",
    "sample_partition",
    "shard_completion_counts",
    "shard_signatures",
    "shard_skeletons",
    "signature_label",
    "weakenings",
]
