"""The PI2 notebook extension facade.

This is the headless counterpart of the JupyterLab extension in Figure 7: it
sits next to a :class:`~repro.notebook.session.NotebookSession`, watches which
cells are checked, and on :meth:`Pi2Extension.generate_interface` runs the
full pipeline, records the result as a new interface version (with a snapshot
of the query log for reproducibility), and can render the active version to a
standalone HTML document — the stand-in for the "Generated Interfaces" panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import NotebookError
from repro.interface.html import save_interface_html
from repro.interface.state import InterfaceState
from repro.notebook.session import NotebookSession
from repro.notebook.versioning import InterfaceVersion, VersionHistory
from repro.pipeline import GenerationResult, PipelineConfig, generate_interface
from repro.search.space import SearchCaches


@dataclass
class Pi2Extension:
    """The PI2 side panel attached to a notebook session."""

    session: NotebookSession
    config: PipelineConfig = field(default_factory=PipelineConfig)
    history: VersionHistory = field(default_factory=VersionHistory)
    #: Per-tree search caches kept across Generate clicks: ticking one more
    #: cell re-costs only the trees the new query changes.
    caches: SearchCaches = field(default_factory=SearchCaches, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def generate_interface(
        self, cell_ids: list[str] | None = None, config: PipelineConfig | None = None
    ) -> InterfaceVersion:
        """The "Generate Interface" button.

        Uses the checked cells (or an explicit cell list), snapshots their SQL,
        runs the generation pipeline and appends the result as a new version.
        """
        if cell_ids is not None:
            self.session.select_cells(cell_ids)
        queries = self.session.selected_queries()
        if not queries:
            raise NotebookError(
                "No cells are selected; tick at least one cell's checkbox before generating"
            )
        effective_config = config or self.config
        result: GenerationResult = generate_interface(
            queries, self.session.catalog, effective_config, caches=self.caches
        )
        return self.history.add(
            result, query_snapshot=queries, cell_snapshot=self.session.snapshot()
        )

    # ------------------------------------------------------------------ #
    # Versions panel
    # ------------------------------------------------------------------ #

    @property
    def active_version(self) -> InterfaceVersion:
        return self.history.active

    def switch_version(self, label: str) -> InterfaceVersion:
        return self.history.switch_to(label)

    def revert_to_version(self, label: str) -> InterfaceVersion:
        return self.history.revert_to(label)

    def version_summaries(self) -> list[dict]:
        return [version.summary() for version in self.history.versions]

    def query_log(self, label: str | None = None) -> list[str]:
        """The archived query log of a version (the collapsible section)."""
        version = self.history.get(label) if label else self.history.active
        return list(version.query_snapshot)

    # ------------------------------------------------------------------ #
    # Live interaction and rendering
    # ------------------------------------------------------------------ #

    def start_session(self, label: str | None = None) -> InterfaceState:
        """Attach the active (or named) version's interface to the catalog."""
        version = self.history.get(label) if label else self.history.active
        return version.result.start_session(self.session.catalog)

    def render_html(self, path: str | Path, label: str | None = None) -> Path:
        """Render a version's interface (with live data) to a standalone HTML file."""
        version = self.history.get(label) if label else self.history.active
        state = version.result.start_session(self.session.catalog)
        data = state.refresh_all()
        return save_interface_html(
            version.result.interface,
            path,
            data=data,
            title=f"PI2 {version.label}: {version.result.interface.name}",
        )
