"""Analysis toolkit: channel-load throughput, statistics, table printers."""

from .channel_load import (
    TIER_GATEWAY,
    TIER_INTRA,
    channel_loads,
    link_tiers,
    max_channel_utilization,
    saturation_throughput,
    throughput_table,
    tier_load_report,
    tiered_channel_loads,
)
from .stats import (
    SummaryStats,
    cdf_at,
    empirical_cdf,
    ks_distance,
    median,
    normalized_against,
    percentile,
)
from .tables import format_series, format_table

__all__ = [
    "SummaryStats",
    "TIER_GATEWAY",
    "TIER_INTRA",
    "cdf_at",
    "channel_loads",
    "empirical_cdf",
    "format_series",
    "format_table",
    "ks_distance",
    "link_tiers",
    "max_channel_utilization",
    "median",
    "normalized_against",
    "percentile",
    "saturation_throughput",
    "throughput_table",
    "tier_load_report",
    "tiered_channel_loads",
]
