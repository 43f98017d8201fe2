"""``repro.obs`` — the observability subsystem.

Three capabilities, all off by default and verified to leave simulation
outputs bit-identical:

* **Interval time-series metrics** (:mod:`repro.obs.timeline`): snapshot
  every registered stats bag each N instructions into columnar deltas —
  per-interval LLT/LLC MPKI, bypass rates, walk activity.
* **Decision-event tracing** (:mod:`repro.obs.events`): a bounded ring
  buffer of structured predictor decisions (LLT bypass, shadow-table
  promotion and misprediction flush, PFQ push/hit, cbPred bypass,
  verdict-vs-ground-truth), emitted through nullable probes.
* **Baseline regression gate** (:mod:`repro.obs.baseline`, ``python -m
  repro.obs``): record named metric baselines and fail with a readable
  diff when a later run regresses beyond a tolerance.

Entry points::

    from repro.obs import TelemetrySpec
    telemetry = TelemetrySpec(interval=5000).build()
    result = run_trace(trace, config, telemetry=telemetry)
    telemetry.timeline.series("llt.misses")   # per-interval LLT MPKI
    telemetry.events.counts()                  # decision-event histogram

    python -m repro.obs record --out baseline.json
    python -m repro.obs check --baseline baseline.json

This package's core (timeline/events/telemetry) depends only on
:mod:`repro.common`, so the simulator can import it without cycles;
exporters and the baseline gate live in their own modules and are
imported on use.
"""

from repro.obs.events import (
    EV_CACHE_CORRUPT,
    EV_FAULT_INJECT,
    EV_LLC_BYPASS,
    EV_LLC_MARK_DP,
    EV_LLC_VERDICT,
    EV_LLT_BYPASS,
    EV_LLT_DEMOTE,
    EV_LLT_VERDICT,
    EV_PFQ_HIT,
    EV_PFQ_PUSH,
    EV_POOL_REBUILD,
    EV_RUN_RETRY,
    EV_RUN_TIMEOUT,
    EV_SHADOW_EVICT,
    EV_SHADOW_HIT,
    EV_SHADOW_PROMOTE,
    EV_WALK,
    EVENT_FIELDS,
    EventTrace,
)
from repro.obs.harness import (
    counters_snapshot,
    harness_counters,
    harness_events,
    reset_harness,
)
from repro.obs.telemetry import (
    Telemetry,
    TelemetrySpec,
    auto_state,
    build_auto,
    disable_auto,
    enable_auto,
    set_auto_state,
)
from repro.obs.timeline import DEFAULT_INTERVAL, TimelineSampler

__all__ = [
    "DEFAULT_INTERVAL",
    "EVENT_FIELDS",
    "EV_CACHE_CORRUPT",
    "EV_FAULT_INJECT",
    "EV_POOL_REBUILD",
    "EV_RUN_RETRY",
    "EV_RUN_TIMEOUT",
    "EV_LLC_BYPASS",
    "EV_LLC_MARK_DP",
    "EV_LLC_VERDICT",
    "EV_LLT_BYPASS",
    "EV_LLT_DEMOTE",
    "EV_LLT_VERDICT",
    "EV_PFQ_HIT",
    "EV_PFQ_PUSH",
    "EV_SHADOW_EVICT",
    "EV_SHADOW_HIT",
    "EV_SHADOW_PROMOTE",
    "EV_WALK",
    "EventTrace",
    "Telemetry",
    "TelemetrySpec",
    "TimelineSampler",
    "auto_state",
    "build_auto",
    "counters_snapshot",
    "disable_auto",
    "enable_auto",
    "harness_counters",
    "harness_events",
    "reset_harness",
    "set_auto_state",
]
