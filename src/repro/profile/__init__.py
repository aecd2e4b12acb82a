"""Host-time profiling.

Everything in :mod:`repro.trace` and :mod:`repro.metrics` measures
*virtual* cycles — the currency of the paper's tables.  This package
measures the other budget: **host** CPU seconds per simulated machine,
the number that decides whether a 1000-machine fleet is affordable.

:class:`~repro.profile.profiler.HostProfiler` is a
``sys.setprofile``-based instrumenting profiler that attributes host
wall time and call counts to the simulator's phase taxonomy (the
dispatch fast path, trap dispatch, sysreg classification, ``ws.*``
world-switch phases, the VNCR deferred path, hook-chain fan-out), so
the host-time table lines up 1:1 with the virtual-cycle spans from
``repro.trace``.  :mod:`repro.profile.export` turns a profiling window
into a ``repro-profile/2`` document, and diffs, merges and validates
such documents.

Profiling is strictly observe-only: it installs no simulator hook,
never charges the ledger and never touches the registry
(``san-profile-zero-cycles`` enforces byte-identical exports).  All
state is per-instance — nothing module-level and mutable — so the
statecheck shardability gate stays clean.
"""

from repro.profile.export import (
    PROFILE_SCHEMA,
    collapsed_stacks,
    diff_documents,
    merge_profiles,
    profile_document,
    render_diff,
    render_phase_table,
    validate_profile,
)
from repro.profile.profiler import HostProfiler

__all__ = [
    "PROFILE_SCHEMA",
    "HostProfiler",
    "collapsed_stacks",
    "diff_documents",
    "merge_profiles",
    "profile_document",
    "render_diff",
    "render_phase_table",
    "validate_profile",
]
