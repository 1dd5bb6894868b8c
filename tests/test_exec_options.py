"""The unified ExecOptions API: the options check, ExplainReport and
package exports.

Covers the contract end to end: one frozen options object accepted by every
execute entry point (catalog, snapshot, session, service, async frontend,
process tier), the old per-call keywords and bare-bool form rejected with a
``TypeError`` at each of them, and ``explain()`` returning structured data
whose text is byte-identical to the classic rendering.
"""

from __future__ import annotations

import asyncio
import pickle
import re
import subprocess
import sys
import warnings
from contextlib import ExitStack
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.engine.catalog import Catalog
from repro.engine.explain import ExplainReport
from repro.engine.options import DEFAULT_OPTIONS, ExecOptions, check_options

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "items",
        ["id", "kind", "price"],
        [[i, "ab"[i % 2], i * 3] for i in range(2000)],
    )
    cat.create_index("items", "id", "hash")
    return cat


class TestExecOptions:
    def test_frozen_and_defaults(self):
        options = ExecOptions()
        assert options.use_cache and options.optimize
        assert options.deadline is None and options.deadline_ms is None
        with pytest.raises(Exception):
            options.use_cache = False  # type: ignore[misc]

    def test_picklable(self):
        options = ExecOptions(use_cache=False, deadline=123.5)
        assert pickle.loads(pickle.dumps(options)) == options

    def test_pinned_resolves_relative_budget_once(self):
        options = ExecOptions(deadline_ms=50.0)
        pinned = options.pinned()
        assert pinned.deadline is not None and pinned.deadline_ms is None
        # Already-absolute options pin to themselves (no copy).
        assert pinned.pinned() is pinned

    def test_absolute_deadline_wins_over_relative(self):
        options = ExecOptions(deadline=99.0, deadline_ms=1.0)
        assert options.resolved_deadline() == 99.0


class TestCoercion:
    def test_exec_options_passes_through_unchanged(self):
        options = ExecOptions(use_cache=False)
        assert check_options(options, "here") is options

    def test_none_yields_defaults(self):
        assert check_options(None, "here") is DEFAULT_OPTIONS

    def test_legacy_keywords_warn_and_fold(self, catalog):
        """The old keywords are no longer folded into options: they raise."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(TypeError, match="use_cache"):
                catalog.execute("SELECT id FROM items", use_cache=False, optimize=None)

    def test_bare_bool_is_legacy_positional_use_cache(self):
        """A bare bool, the old positional ``use_cache``, is refused by name."""
        for flag in (False, True):
            with pytest.raises(TypeError, match="here: options must be an ExecOptions, got bool"):
                check_options(flag, "here")  # type: ignore[arg-type]

    def test_mixing_options_and_legacy_raises(self, catalog):
        with pytest.raises(TypeError, match="use_cache"):
            catalog.execute("SELECT id FROM items", ExecOptions(), use_cache=False)

    def test_non_options_object_raises(self):
        with pytest.raises(TypeError, match="here"):
            check_options("nope", "here")  # type: ignore[arg-type]


SQL = "SELECT kind, count(*) AS n FROM items GROUP BY kind"


def _service_call(method):
    def build(catalog, stack):
        from repro.serving import InterfaceService

        service = stack.enter_context(InterfaceService(catalog))
        session = service.create_session("opts")
        return partial(getattr(service, method), session.session_id, SQL)

    return build


def _session_call(catalog, stack):
    from repro.serving import InterfaceService

    service = stack.enter_context(InterfaceService(catalog))
    return partial(service.create_session("opts").execute, SQL)


def _async_call(catalog, stack):
    from repro.serving import AsyncInterfaceService

    frontend = AsyncInterfaceService(catalog)
    stack.callback(frontend.close_sync)

    def call(options, **extra):
        async def run():
            handle = await frontend.open_session("opts")
            return await frontend.execute(handle, SQL, options, **extra)

        return asyncio.run(run())

    return call


def _tier_call(catalog, stack):
    from repro.serving import ProcessExecutionTier

    tier = stack.enter_context(ProcessExecutionTier(processes=1))
    return partial(tier.submit_execute, catalog.snapshot(), SQL)


#: Every public entry point that takes execution options, as a builder
#: ``(catalog, exit_stack) -> call(options, **extra)``.
ENTRY_POINTS = {
    "Catalog.execute": lambda catalog, stack: partial(catalog.execute, SQL),
    "Catalog.explain": lambda catalog, stack: partial(catalog.explain, SQL, True),
    "CatalogSnapshot.execute": lambda catalog, stack: partial(catalog.snapshot().execute, SQL),
    "Session.execute": _session_call,
    "InterfaceService.submit_execute": _service_call("submit_execute"),
    "InterfaceService.execute": _service_call("execute"),
    "AsyncInterfaceService.execute": _async_call,
    "ProcessExecutionTier.submit_execute": _tier_call,
}


class TestEntryPoints:
    def test_catalog_execute_accepts_options(self, catalog):
        result = catalog.execute(SQL, ExecOptions(use_cache=False))
        assert result.row_count == 2

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_legacy_forms_are_rejected(self, catalog, entry):
        """A bare bool or an old per-call keyword raises instead of running."""
        with ExitStack() as stack:
            call = ENTRY_POINTS[entry](catalog, stack)
            with pytest.raises(TypeError, match=re.escape(entry)):
                call(False)
            with pytest.raises(TypeError, match="use_cache"):
                call(None, use_cache=False)

    def test_legacy_kwargs_warn_but_behave_identically(self, catalog):
        """The legacy keyword call raises where its ExecOptions twin runs."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            modern = catalog.execute(SQL, ExecOptions(use_cache=False))
            with pytest.raises(TypeError, match="use_cache"):
                catalog.execute(SQL, use_cache=False)
            again = catalog.execute(SQL, ExecOptions(use_cache=False))
        assert modern.rows == again.rows

    def test_snapshot_execute_accepts_options(self, catalog):
        snapshot = catalog.snapshot()
        result = snapshot.execute(SQL, ExecOptions(use_cache=False))
        assert result.row_count == 2

    def test_session_and_service_thread_tier(self, catalog):
        from repro.serving import InterfaceService

        with InterfaceService(catalog) as service:
            session = service.create_session("opts")
            result = service.execute(
                session.session_id, SQL, ExecOptions(use_cache=False)
            )
            assert result.row_count == 2

    def test_service_process_tier_end_to_end(self, catalog):
        from repro.serving import InterfaceService, ServiceConfig

        config = ServiceConfig(execution_tier="process", worker_processes=1)
        with InterfaceService(catalog, config) as service:
            session = service.create_session("opts-proc")
            result = service.execute(
                session.session_id, SQL, ExecOptions(use_cache=False)
            )
            assert sorted(result.rows) == [("a", 1000), ("b", 1000)]

    def test_unoptimized_run_matches(self, catalog):
        on = catalog.execute(SQL, ExecOptions(use_cache=False))
        off = catalog.execute(SQL, ExecOptions(use_cache=False, optimize=False))
        assert sorted(on.rows) == sorted(off.rows)


class TestExplainReport:
    def test_report_is_text_compatible(self, catalog):
        report = catalog.explain("SELECT id FROM items WHERE id = 3", physical=True)
        assert isinstance(report, ExplainReport)
        assert isinstance(report, str)
        assert str(report) == report
        assert report.startswith("== Logical plan ==")

    def test_sections_are_structured(self, catalog):
        report = catalog.explain("SELECT id FROM items WHERE id = 3", physical=True)
        assert report.logical and report.physical and report.optimized
        assert all(isinstance(event, tuple) and len(event) == 2 for event in report.trace)
        data = report.as_dict()
        assert set(data) == {"logical", "trace", "optimized", "physical", "access_paths"}

    def test_access_paths_capture_index_choice(self, catalog):
        report = catalog.explain("SELECT id FROM items WHERE id = 3", physical=True)
        chosen = [d for d in report.access_paths if d.get("chosen")]
        assert any(d.get("decision") == "index_scan" for d in chosen)

    def test_logical_only_report(self, catalog):
        report = catalog.explain("SELECT id FROM items")
        assert report.physical is None
        assert report.logical == str(report)


class TestPackageSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_serving_entry_points_exported(self):
        for name in ("InterfaceService", "ServiceConfig", "Session", "ExecOptions",
                     "ExplainReport"):
            assert name in repro.__all__

    def test_import_has_no_cycles(self):
        """A cold ``import repro`` must succeed in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", "import repro; print(len(repro.__all__))"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
