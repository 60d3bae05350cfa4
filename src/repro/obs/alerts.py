"""Declarative alert rules evaluated over a telemetry stream.

Three rule families, all evaluated per ``(rule, node)`` on the window
samples a :class:`~repro.obs.monitor.TelemetryMonitor` emits:

* ``threshold`` — compare one sample metric against a constant; fire
  after ``for_windows`` consecutive breaches, resolve after
  ``clear_windows`` consecutive clears (hysteresis, so a metric grazing
  the line does not flap).
* ``burn_rate`` — multi-window SLO burn rate à la error budgets: the
  bad fraction (requests that resolved without meeting their SLO, over
  requests that resolved) divided by the error ``budget``.  The rule
  fires only when **both** a short window (``short_windows`` samples)
  and a long window (``long_windows`` samples) burn at ≥
  ``burn_threshold`` — the short window gives detection latency, the
  long window immunity to single-window blips.  Burn is computed from
  summed counts, so zero-traffic windows contribute burn 0 rather than
  a division by zero.
* ``ewma`` — z-score anomaly detection: an exponentially-weighted mean
  and variance track one metric; a sample more than ``z_threshold``
  deviations out (with ``min_std`` flooring the denominator and
  ``warmup_windows`` samples of grace) breaches.  Deliberately
  conservative defaults: on a deterministic stream a rule tuned to zero
  false alarms stays at zero false alarms.

The engine records a typed, append-only :class:`AlertEvent` log
(``fired`` / ``resolved`` transitions with integer-ps timestamps and
severity), exposes the currently-firing set for control loops, exports
the log as Perfetto-visible trace instants, and scores itself against a
chaos ground truth (:func:`score_alerts`) — detection latency,
precision/recall and false-alarm rate per rule family, something only a
simulator with a known fault oracle can measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

RULE_KINDS = ("threshold", "burn_rate", "ewma")
SEVERITIES = ("info", "warning", "critical")
_OPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule; frozen so rule sets are shareable/hashable."""

    name: str
    kind: str
    metric: str = "bad_fraction"
    severity: str = "warning"
    # -- threshold family ---------------------------------------------- #
    op: str = ">"
    value: float = 0.0
    #: Consecutive breaching windows required to fire.
    for_windows: int = 1
    # -- burn_rate family ----------------------------------------------- #
    #: Error budget: the bad fraction considered "spend as planned".
    budget: float = 0.1
    #: Fire when burn (bad_fraction / budget) reaches this in both windows.
    burn_threshold: float = 5.0
    short_windows: int = 1
    long_windows: int = 4
    # -- ewma family ----------------------------------------------------- #
    alpha: float = 0.3
    z_threshold: float = 8.0
    warmup_windows: int = 8
    min_std: float = 1.0
    # -- common ---------------------------------------------------------- #
    #: Consecutive clear windows required to resolve (and re-arm).
    clear_windows: int = 2

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"rule kind must be one of {RULE_KINDS}, "
                             f"got {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.kind == "burn_rate":
            if self.budget <= 0:
                raise ValueError(f"budget must be positive, got {self.budget}")
            if self.short_windows < 1 or self.long_windows < self.short_windows:
                raise ValueError(
                    f"need 1 <= short_windows <= long_windows, got "
                    f"{self.short_windows}/{self.long_windows}")
        if self.for_windows < 1 or self.clear_windows < 1:
            raise ValueError("for_windows and clear_windows must be >= 1")


class AlertEvent(NamedTuple):
    """One ``fired``/``resolved`` transition in the typed alert log."""

    t_ps: int
    rule: str
    family: str
    node_id: int
    event: str          # "fired" | "resolved"
    severity: str
    value: float        # the reading that crossed (burn, metric, or z)
    epoch: int

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._asdict())


#: The stock rule set: a fast-burn SLO rule (the detection workhorse — a
#: dead node burns its error budget ~10× over, healthy load well under
#: 1×), a sustained-shed threshold, and a queue-depth anomaly tracker.
DEFAULT_RULES: Tuple[AlertRule, ...] = (
    AlertRule(name="slo_fast_burn", kind="burn_rate", severity="critical",
              budget=0.1, burn_threshold=5.0, short_windows=1, long_windows=4),
    AlertRule(name="shed_spike", kind="threshold", metric="shed_rate",
              op=">", value=0.5, for_windows=2, severity="warning"),
    AlertRule(name="queue_runaway", kind="ewma", metric="queue_depth",
              severity="warning", alpha=0.3, z_threshold=8.0,
              warmup_windows=8, min_std=2.0),
)

#: DEFAULT_RULES plus the idle detector the alerts-mode autoscaler uses
#: to scale *down* (info severity: idleness is not an incident).
AUTOSCALER_RULES: Tuple[AlertRule, ...] = DEFAULT_RULES + (
    AlertRule(name="fleet_idle", kind="threshold", metric="busy_fraction",
              op="<", value=0.30, for_windows=4, severity="info"),
)


class _RuleState:
    """Mutable evaluation state for one (rule, node) pair."""

    __slots__ = ("firing", "breach_streak", "clear_streak",
                 "window", "ewma_mean", "ewma_var", "seen")

    def __init__(self) -> None:
        self.firing = False
        self.breach_streak = 0
        self.clear_streak = 0
        #: burn_rate: deque-ish list of (bad, resolved) count pairs.
        self.window: List[Tuple[int, int]] = []
        self.ewma_mean = 0.0
        self.ewma_var = 0.0
        self.seen = 0


def _compare(value: float, op: str, threshold: float) -> bool:
    if op == ">":
        return value > threshold
    if op == ">=":
        return value >= threshold
    if op == "<":
        return value < threshold
    return value <= threshold


def _burn(pairs: Iterable[Tuple[int, int]], budget: float) -> float:
    bad = resolved = 0
    for b, r in pairs:
        bad += b
        resolved += r
    if resolved == 0:
        return 0.0
    return (bad / resolved) / budget


class AlertEngine:
    """Evaluates a rule set on-stream, keeping firing/resolved state.

    Feed it window samples in the stream's canonical order
    (:meth:`consume` handles a whole :class:`TelemetryStream`); the
    engine is deterministic given the same sample sequence — the alert
    log is part of the reproducibility contract and is pinned
    hashseed-independent in ``tests/test_alerts.py``.
    """

    def __init__(self, rules: Iterable[AlertRule] = DEFAULT_RULES) -> None:
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.events: List[AlertEvent] = []
        self._states: Dict[Tuple[str, int], _RuleState] = {}

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def observe(self, sample: Dict[str, Any]) -> List[AlertEvent]:
        """Evaluate every rule against one window sample; returns the
        transitions this sample caused (also appended to the log)."""
        emitted: List[AlertEvent] = []
        node_id = sample["node_id"]
        for rule in self.rules:
            state = self._states.setdefault((rule.name, node_id), _RuleState())
            if rule.kind == "threshold":
                reading = float(sample[rule.metric])
                breach = _compare(reading, rule.op, rule.value)
            elif rule.kind == "burn_rate":
                state.window.append((sample["bad"], sample["resolved"]))
                if len(state.window) > rule.long_windows:
                    del state.window[0]
                short = _burn(state.window[-rule.short_windows:], rule.budget)
                long_ = _burn(state.window, rule.budget)
                reading = min(short, long_)
                breach = (short >= rule.burn_threshold
                          and long_ >= rule.burn_threshold)
            else:  # ewma
                x = float(sample[rule.metric])
                if state.seen < rule.warmup_windows:
                    breach = False
                    reading = 0.0
                else:
                    std = max(state.ewma_var ** 0.5, rule.min_std)
                    reading = abs(x - state.ewma_mean) / std
                    breach = reading > rule.z_threshold
                # Update after evaluation so a spike is judged against
                # the pre-spike baseline.
                delta = x - state.ewma_mean
                state.ewma_mean += rule.alpha * delta
                state.ewma_var = ((1.0 - rule.alpha)
                                  * (state.ewma_var + rule.alpha * delta * delta))
                state.seen += 1
            transition = self._advance(rule, state, breach)
            if transition is not None:
                event = AlertEvent(
                    t_ps=sample["t_ps"], rule=rule.name, family=rule.kind,
                    node_id=node_id, event=transition,
                    severity=rule.severity, value=reading,
                    epoch=sample["epoch"])
                self.events.append(event)
                emitted.append(event)
        return emitted

    @staticmethod
    def _advance(rule: AlertRule, state: _RuleState,
                 breach: bool) -> Optional[str]:
        if breach:
            state.breach_streak += 1
            state.clear_streak = 0
            if not state.firing and state.breach_streak >= rule.for_windows:
                state.firing = True
                return "fired"
        else:
            state.clear_streak += 1
            state.breach_streak = 0
            if state.firing and state.clear_streak >= rule.clear_windows:
                # Resolve *re-arms* the rule: a later breach streak fires
                # a fresh event (pinned in tests/test_alerts.py).
                state.firing = False
                return "resolved"
        return None

    def consume(self, stream) -> List[AlertEvent]:
        """Observe every sample of a (merged, sorted) stream."""
        emitted: List[AlertEvent] = []
        for sample in stream.samples:
            emitted.extend(self.observe(sample))
        return emitted

    # ------------------------------------------------------------------ #
    # Control-facing queries
    # ------------------------------------------------------------------ #
    def is_firing(self, rule: str, node_id: int) -> bool:
        state = self._states.get((rule, node_id))
        return state is not None and state.firing

    def firing(self, min_severity: str = "info") -> List[Tuple[str, int]]:
        """Currently-firing ``(rule, node_id)`` pairs at or above
        ``min_severity``, in deterministic sorted order."""
        floor = SEVERITIES.index(min_severity)
        by_name = {rule.name: rule for rule in self.rules}
        active = [(name, node) for (name, node), state
                  in self._states.items()
                  if state.firing
                  and SEVERITIES.index(by_name[name].severity) >= floor]
        return sorted(active)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def export(self, tracer, pid: Optional[Any] = None) -> None:
        """Mirror the alert log into a tracer as Perfetto-visible
        instants on an ``alerts`` track of ``pid`` (the tracer's default
        pid when ``None``)."""
        for seq, event in enumerate(self.events):
            tracer.instant(
                f"{event.rule}:{event.event}", "alerts", event.t_ps,
                cat="alert", pid=pid,
                args={"node": event.node_id, "severity": event.severity,
                      "family": event.family, "value": event.value,
                      "seq": seq})


# ---------------------------------------------------------------------- #
# Scoring against the chaos ground truth
# ---------------------------------------------------------------------- #
def score_alerts(events: Iterable[AlertEvent],
                 truth: Iterable[Dict[str, Any]],
                 horizon_ps: int,
                 kinds: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Score fired alerts against ground-truth fault records.

    ``truth`` rows come from ``FaultSchedule.ground_truth`` (plain dicts
    with ``kind``/``node_id``/``t_ps``).  A fault is *detected* when any
    alert fired on its node within ``horizon_ps`` after its injection
    instant; an alert firing is a *true alarm* when any fault on its node
    precedes it within the horizon, else a *false alarm*.  Returns
    overall and per-rule-family precision/recall, false-alarm counts and
    detection-latency stats (ps).
    """
    truth_rows = [t for t in truth
                  if kinds is None or t["kind"] in set(kinds)]
    fired = sorted((e for e in events if e.event == "fired"),
                   key=lambda e: (e.t_ps, e.node_id, e.rule))

    def covered(alert: AlertEvent) -> bool:
        return any(t["node_id"] == alert.node_id
                   and t["t_ps"] <= alert.t_ps <= t["t_ps"] + horizon_ps
                   for t in truth_rows)

    def score(alerts: List[AlertEvent]) -> Dict[str, Any]:
        latencies: List[int] = []
        detected = 0
        for fault in truth_rows:
            hits = [a.t_ps - fault["t_ps"] for a in alerts
                    if a.node_id == fault["node_id"]
                    and fault["t_ps"] <= a.t_ps <= fault["t_ps"] + horizon_ps]
            if hits:
                detected += 1
                latencies.append(min(hits))
        true_alarms = sum(1 for a in alerts if covered(a))
        false_alarms = len(alerts) - true_alarms
        return {
            "faults": len(truth_rows),
            "detected": detected,
            "recall": detected / len(truth_rows) if truth_rows else 1.0,
            "fired": len(alerts),
            "true_alarms": true_alarms,
            "false_alarms": false_alarms,
            "false_alarm_rate": false_alarms / len(alerts) if alerts else 0.0,
            "precision": true_alarms / len(alerts) if alerts else 1.0,
            "mean_detection_latency_ps": (
                sum(latencies) / len(latencies) if latencies else 0.0),
            "max_detection_latency_ps": max(latencies) if latencies else 0,
        }

    result = score(fired)
    result["by_family"] = {
        family: score([a for a in fired if a.family == family])
        for family in sorted({a.family for a in fired})
    }
    return result
