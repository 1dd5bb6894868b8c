"""Seeded inputs: notebook query logs, interface events and serving traffic.

Everything here is a pure function of a ``random.Random`` and the demo
datasets; the program under test only ever receives the SQL strings, event
payloads and rows these functions produce.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from datetime import date, timedelta

from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    sdss_extended_query_log,
    sp500_query_log,
    sp500_window_query_log,
)
from repro.datasets.covid import STATE_PROFILES
from repro.datasets.sp500 import TICKER_PROFILES
from repro.interface.interactions import InteractionType
from repro.interface.widgets import WidgetType

#: Regeneration scenarios, each a notebook whose cells the analyst ticks in order.
REGEN_SCENARIOS = ("covid", "sdss", "sp500", "sp500_window", "widening")

#: Dataset each regeneration scenario runs against.
SCENARIO_DATASET = {
    "covid": "covid",
    "sdss": "sdss",
    "sp500": "sp500",
    "sp500_window": "sp500",
    "widening": "covid",
}

#: Cells of the synthetic widening covid log.  20-query logs take seconds per
#: generation; 7 keeps a session's last generation under a second and makes a
#: cycle of all scenarios an odd 25 requests, so its median is one request's
#: latency rather than the midpoint of a gap between two.
WIDENING_CELLS = 7

_DATE = re.compile(r"'(\d{4}-\d{2}-\d{2})'")
_RANGE = re.compile(r"\b(ra|dec) BETWEEN (-?\d+\.\d+) AND (-?\d+\.\d+)")
_SECTORS = sorted({sector for _ticker, sector, *_rest in TICKER_PROFILES})
_STATES = [state for state, *_rest in STATE_PROFILES]


def covid_v3_log() -> list[str]:
    """The Figure 7 V3 notebook: Q1-Q4 plus the Northeast variant of Q4."""
    return covid_query_log() + [covid_region_variant_queries()[1]]


def shift_dates(sql: str, days: int) -> str:
    """Move every ``'YYYY-MM-DD'`` literal by ``days``."""

    def shifted(match: re.Match) -> str:
        moved = date.fromisoformat(match.group(1)) + timedelta(days=days)
        return f"'{moved.isoformat()}'"

    return _DATE.sub(shifted, sql)


def _shift_sdss(sql: str, ra: float, dec: float) -> str:
    def shifted(match: re.Match) -> str:
        delta = ra if match.group(1) == "ra" else dec
        low = float(match.group(2)) + delta
        high = float(match.group(3)) + delta
        return f"{match.group(1)} BETWEEN {low:.1f} AND {high:.1f}"

    return _RANGE.sub(shifted, sql)


def widening_log(rng: random.Random) -> list[str]:
    """An analyst widening one covid investigation over sliding windows."""
    queries = [
        "SELECT date, sum(cases) AS total_cases FROM covid_cases GROUP BY date ORDER BY date"
    ]
    start = date(2021, 11, 1) + timedelta(days=rng.randint(0, 10))
    for _ in range(3):
        low = start + timedelta(days=rng.randint(0, 30))
        high = low + timedelta(days=13)
        queries.append(
            "SELECT date, sum(cases) AS total_cases FROM covid_cases "
            f"WHERE date BETWEEN '{low.isoformat()}' AND '{high.isoformat()}' "
            "GROUP BY date ORDER BY date"
        )
    for threshold in sorted(rng.sample(range(100, 4000, 50), WIDENING_CELLS - len(queries))):
        queries.append(
            "SELECT date, state, sum(cases) AS cases FROM covid_cases "
            f"WHERE cases > {threshold} GROUP BY date, state ORDER BY date"
        )
    return queries


def regen_log(scenario: str, rng: random.Random) -> list[str]:
    """One notebook session's cells: a scenario's log with its literals perturbed."""
    if scenario == "covid":
        days = -rng.randint(0, 20)
        return [shift_dates(sql, days) for sql in covid_v3_log()]
    if scenario == "sdss":
        ra = rng.uniform(-10.0, 10.0)
        dec = rng.uniform(-2.0, 2.0)
        cut = f"r < {rng.uniform(19.0, 21.0):.1f}"
        return [_shift_sdss(sql, ra, dec).replace("r < 20.0", cut) for sql in sdss_extended_query_log()]
    if scenario == "sp500":
        days = -rng.randint(0, 30)
        sector = rng.choice(_SECTORS)
        return [
            shift_dates(sql, days).replace("'Technology'", f"'{sector}'")
            for sql in sp500_query_log()
        ]
    if scenario == "sp500_window":
        frame = f"{rng.randint(2, 9)} PRECEDING"
        lag = f"lag(close, {rng.randint(1, 3)}, close)"
        return [
            sql.replace("6 PRECEDING", frame).replace("lag(close, 1, close)", lag)
            for sql in sp500_window_query_log()
        ]
    if scenario == "widening":
        return widening_log(rng)
    raise ValueError(f"unknown scenario {scenario!r}")


# --------------------------------------------------------------------------- #
# Interface events
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Event:
    """One user gesture on a live interface."""

    method: str  # InterfaceState method name
    component_id: str
    args: tuple
    continuous: bool

    def apply(self, state) -> None:
        getattr(state, self.method)(self.component_id, *self.args)


def _window_set(values: list, slots: int = 8) -> list[tuple]:
    """A bounded set of (low, high) windows over sorted domain values.

    Dates snap to whole days (windows of 7 or 14 days); numbers snap to
    eighths of their range.  The set is fixed per domain, so repeated brushes
    revisit the same few queries.
    """
    ordered = sorted(set(values))
    if isinstance(ordered[0], str):
        first = date.fromisoformat(ordered[0])
        last = date.fromisoformat(ordered[-1])
        span = (last - first).days
        starts = [first + timedelta(days=span * i // slots) for i in range(slots)]
        return [
            (start.isoformat(), min(start + timedelta(days=width), last).isoformat())
            for start in starts
            for width in (7, 14)
        ]
    low, high = float(ordered[0]), float(ordered[-1])
    step = (high - low) / slots
    return [
        (round(low + step * i, 3), round(low + step * (i + width), 3))
        for i in range(slots - 2)
        for width in (1, 2)
    ]


def _column_values(result, attribute: str) -> list:
    name = attribute.split(".")[-1]
    index = result.columns.index(name)
    return [row[index] for row in result.rows if row[index] is not None]


class EventSource:
    """Draws seeded events for one live interface.

    Discrete gestures (toggles, option widgets, brushes over a bounded window
    set, clicks on a bounded value set) revisit a small set of queries; pan and
    zoom draws fresh continuous ranges and never repeats.  Every widget and
    interaction type the mapper can emit has an event model, so the loop keeps
    working when a change to the search picks different components.
    """

    def __init__(self, state) -> None:
        self.makers = []
        interface = state.interface
        for widget in interface.widgets:
            self.makers.append(self._widget_maker(widget))
        for interaction in interface.interactions:
            source = state.data_for(interaction.source_vis_id)
            self.makers.append(self._interaction_maker(interaction, source))
        if not self.makers:
            raise ValueError(f"interface {interface.name!r} has no interactive components")

    @staticmethod
    def _widget_maker(widget):
        kind = widget.widget_type
        wid = widget.widget_id
        if widget.is_boolean():
            return lambda rng: Event("set_widget", wid, (rng.random() < 0.5,), False)
        if widget.is_discrete():
            count = len(widget.options)
            return lambda rng: Event("set_widget", wid, (rng.randrange(count),), False)
        if kind in (WidgetType.RANGE_SLIDER, WidgetType.DATE_RANGE):
            windows = _window_set(list(widget.domain))
            return lambda rng: Event("set_widget", wid, (rng.choice(windows),), False)
        if kind is WidgetType.SLIDER:
            low, high = widget.domain
            steps = [low + (high - low) * i / 8 for i in range(9)]
            return lambda rng: Event("set_widget", wid, (rng.choice(steps),), False)
        raise ValueError(f"no event model for widget type {kind.value}")

    @staticmethod
    def _interaction_maker(interaction, source):
        kind = interaction.interaction_type
        iid = interaction.interaction_id
        values = _column_values(source, interaction.attribute)
        if kind in (InteractionType.BRUSH_X, InteractionType.BRUSH_2D):
            windows = _window_set(values)
            return lambda rng: Event("apply_brush", iid, rng.choice(windows), False)
        if kind is InteractionType.CLICK_SELECT:
            choices = sorted(set(values))[:16]
            return lambda rng: Event("apply_click", iid, (rng.choice(choices),), False)
        if kind is InteractionType.PAN_ZOOM:
            x_low, x_high = min(values), max(values)
            y_values = _column_values(source, interaction.secondary_attribute)
            y_low, y_high = min(y_values), max(y_values)

            def pan_zoom(rng):
                x_width = rng.uniform(0.05, 0.3) * (x_high - x_low)
                y_width = rng.uniform(0.05, 0.3) * (y_high - y_low)
                x0 = rng.uniform(x_low, x_high - x_width)
                y0 = rng.uniform(y_low, y_high - y_width)
                return Event(
                    "apply_pan_zoom", iid, ((x0, x0 + x_width), (y0, y0 + y_width)), True
                )

            return pan_zoom
        raise ValueError(f"no event model for interaction type {kind.value}")

    def draw(self, rng: random.Random) -> Event:
        return rng.choice(self.makers)(rng)


# --------------------------------------------------------------------------- #
# Serving traffic
# --------------------------------------------------------------------------- #


def maintainable_reads(rng: random.Random, count: int) -> list[str]:
    """Group-by aggregates over ``covid_cases`` that incremental maintenance folds."""
    reads = []
    for _ in range(count):
        day = (date(2021, 10, 1) + timedelta(days=rng.randint(0, 80))).isoformat()
        state = rng.choice(_STATES)
        reads.append(
            rng.choice(
                (
                    "SELECT state, sum(cases) AS cases FROM covid_cases "
                    f"WHERE date >= '{day}' GROUP BY state",
                    "SELECT date, count(*) AS reports, max(cases) AS peak FROM covid_cases "
                    f"WHERE state = '{state}' GROUP BY date",
                    f"SELECT count(*) AS n, avg(cases) AS mean FROM covid_cases WHERE date >= '{day}'",
                )
            )
        )
    return reads


def interface_reads(state, rng: random.Random, events: int) -> list[str]:
    """Distinct SQL a live interface issues under a seeded stream of bindings."""
    source = EventSource(state)
    seen: dict[str, None] = {}
    for tree_index in range(state.interface.forest.tree_count):
        seen[state.current_sql(tree_index)] = None
    for _ in range(events):
        source.draw(rng).apply(state)
        for tree_index in range(state.interface.forest.tree_count):
            seen[state.current_sql(tree_index)] = None
    return list(seen)


def covid_batch(rng: random.Random) -> list[list]:
    """A small batch of new daily case reports."""
    day = (date(2021, 12, 1) + timedelta(days=rng.randint(0, 27))).isoformat()
    return [
        [rng.choice(_STATES), day, rng.randint(500, 20000)] for _ in range(rng.randint(1, 4))
    ]
