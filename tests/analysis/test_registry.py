"""The artifact registry: declarations, subgraph selection, no orphans."""

import pytest

from repro import obs
from repro.analysis import registry
from repro.analysis.datasets import (
    Datasets,
    UndeclaredDatasetError,
    dataset_closure,
    dataset_names,
    get_dataset,
)
from repro.analysis.registry import (
    ArtifactContext,
    UnknownArtifactError,
    render_artifact,
    render_artifacts,
)
from repro.logs.store import LogStore

#: Infrastructure modules of repro.analysis that do not render artifacts.
_NON_ARTIFACT_MODULES = {"curation", "datasets", "registry"}


class TestDeclarations:
    def test_every_artifact_has_a_nonempty_description(self):
        for art in registry.artifacts():
            assert art.description.strip(), art.key

    def test_every_analysis_module_is_registered(self):
        # No orphans: every analysis module (except the pipeline
        # infrastructure itself) contributes at least one artifact.
        import repro.analysis as analysis

        registered_modules = {
            art.render.__module__ for art in registry.artifacts()}
        for name in analysis.__all__:
            if name in _NON_ARTIFACT_MODULES:
                continue
            assert f"repro.analysis.{name}" in registered_modules, (
                f"module {name!r} registers no artifact")

    def test_report_orders_are_unique(self):
        orders = [art.report_order for art in registry.artifacts()
                  if art.report_order is not None]
        assert len(orders) == len(set(orders))

    def test_report_sequence_walks_paper_order(self):
        keys = [art.key for art in registry.report_sequence()]
        for earlier, later in [("table1", "table3"), ("table3", "figure1"),
                               ("figure8", "section5.2"),
                               ("section5.5", "figure9"),
                               ("figure12", "section8"),
                               ("section8", "economics")]:
            assert keys.index(earlier) < keys.index(later)

    def test_deps_name_registered_datasets(self):
        names = set(dataset_names())
        for art in registry.artifacts():
            for dep in art.deps:
                assert dep in names, f"{art.key} depends on unknown {dep!r}"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            registry.artifact("table1", description="dup")(lambda ctx: "")

    def test_duplicate_report_order_rejected(self):
        with pytest.raises(ValueError, match="report_order"):
            registry.artifact("bogus-order-clash", description="x",
                              report_order=10)(lambda ctx: "")

    def test_unknown_key_raises(self):
        with pytest.raises(UnknownArtifactError):
            registry.get("figure99")


class TestSubgraphSelection:
    def test_renders_only_declared_closure(self, smoke_result):
        art = registry.get("figure5")
        with obs.recording() as recorder:
            ctx = ArtifactContext(smoke_result)
            render_artifact("figure5", ctx)
        built = set(ctx.datasets.built())
        assert built == set(dataset_closure(art.deps))
        # The obs counters tell the same story: one build per dataset in
        # the closure, nothing else.
        builds = {key[len("analysis.dataset.build."):]
                  for key in recorder.counters
                  if key.startswith("analysis.dataset.build.")}
        assert builds == built

    def test_undeclared_dataset_access_raises(self, smoke_result):
        registry.artifact(
            "bogus-undeclared", description="resolves outside its deps",
            deps=("hijacker_logins",),
        )(lambda ctx: ctx.dataset("forms_http_logs"))
        try:
            with pytest.raises(UndeclaredDatasetError):
                render_artifact("bogus-undeclared",
                                ArtifactContext(smoke_result))
        finally:
            registry._REGISTRY.pop("bogus-undeclared")

    def test_shared_context_reuses_datasets(self, smoke_result):
        with obs.recording() as recorder:
            render_artifacts(smoke_result, ["figure3", "figure4", "figure5"])
        counters = recorder.counters
        # One build of the Forms logs, two cache hits.
        assert counters.get("analysis.dataset.build.forms_http_logs") == 1
        assert counters.get("analysis.dataset.hit.forms_http_logs") == 2

    def test_standalone_equals_pipelined(self, smoke_result):
        """Every report artifact renders the same bytes on a private
        context as through one shared context, and sharing saves exactly
        the log-store scans and dataset builds it did when pinned."""
        keys = [art.key for art in registry.report_sequence()
                if not art.needs_earlier_era]
        assert len(keys) == 21
        with obs.recording() as standalone_recorder:
            standalone = {
                key: render_artifact(key, ArtifactContext(smoke_result))
                for key in keys}
        with obs.recording() as shared_recorder:
            shared = render_artifacts(smoke_result, keys)
        for key in keys:
            assert standalone[key] == shared[key], key

        def walk_counts(counters):
            scans = sum(value for name, value in counters.items()
                        if name.startswith("logstore.query."))
            return (scans, counters.get("analysis.dataset.miss", 0),
                    counters.get("analysis.dataset.hit", 0))

        assert walk_counts(standalone_recorder.counters) == (50, 80, 16)
        assert walk_counts(shared_recorder.counters) == (26, 35, 44)

    def test_composite_report_exempt_from_restriction(self, smoke_result):
        text = render_artifact("report", ArtifactContext(smoke_result))
        assert "REPRODUCTION REPORT" in text

    def test_evolution_without_earlier_era_notes_it(self, smoke_result):
        text = render_artifact("evolution", ArtifactContext(smoke_result))
        assert "earlier-era" in text

    def test_evolution_with_earlier_era_renders_table(self, smoke_result):
        ctx = ArtifactContext(smoke_result, earlier_era_result=smoke_result)
        assert "evolution" in render_artifact("evolution", ctx)


def _track_builds(monkeypatch):
    """Patch ``Datasets.get`` to keep a live stack of the builds in flight."""
    building = []
    resolve = Datasets.get

    def tracked_get(data, name):
        building.append(name)
        try:
            return resolve(data, name)
        finally:
            building.pop()

    monkeypatch.setattr(Datasets, "get", tracked_get)
    return building


class TestLogReadBoundary:
    """DESIGN §6: artifacts read the log store only through datasets."""

    def test_every_artifact_reads_logs_through_datasets(self, smoke_result,
                                                        monkeypatch):
        building = _track_builds(monkeypatch)

        def guarded(read):
            def checked(store, *args, **kwargs):
                if not building:
                    raise AssertionError(
                        f"LogStore.{read.__name__} outside a dataset build")
                return read(store, *args, **kwargs)
            return checked

        monkeypatch.setattr(LogStore, "query", guarded(LogStore.query))
        monkeypatch.setattr(LogStore, "for_account",
                            guarded(LogStore.for_account))
        for art in registry.artifacts():
            earlier = smoke_result if art.needs_earlier_era else None
            text = render_artifact(
                art.key, ArtifactContext(smoke_result, earlier))
            assert "earlier-era run" not in text
        report_keys = {art.key for art in registry.report_sequence()
                       if not art.needs_earlier_era}
        assert len(report_keys) == 21
        assert set(registry.artifact_keys()) == report_keys | {
            "report", "metrics", "evolution"}


#: Result attributes that hold simulator ground truth, not provider logs.
GROUND_TRUTH = frozenset({
    "incidents", "remediation", "pages", "campaigns", "crew_states",
    "targeted_depth_score", "botnet_report", "access_incidents",
    "exploited_incidents", "summary"})
#: The datasets that stand in for a named review and may read them.
GROUND_TRUTH_DATASETS = frozenset({
    "reviewed_incidents", "recovery_cases", "targeted_depth", "run_summary"})


class _GroundTruthGuard:
    """A result proxy: ground truth is readable only inside a build of a
    pinned ground-truth dataset; every other attribute passes through."""

    def __init__(self, result, building, readers):
        self._result = result
        self._building = building
        self._readers = readers

    def __getattr__(self, name):
        if name in GROUND_TRUTH:
            if not self._building:
                raise AssertionError(
                    f"result.{name} read outside a dataset build")
            reader = self._building[-1]
            if reader not in GROUND_TRUTH_DATASETS:
                raise AssertionError(
                    f"dataset {reader!r} read ground truth result.{name}")
            self._readers.add(reader)
        return getattr(self._result, name)


class TestGroundTruthBoundary:
    """DESIGN §6: artifacts reach simulator ground truth only through the
    pinned ground-truth datasets."""

    def test_every_artifact_reads_ground_truth_through_pinned_datasets(
            self, smoke_result, monkeypatch):
        assert all(hasattr(smoke_result, name) for name in GROUND_TRUTH)
        building = _track_builds(monkeypatch)
        readers = set()
        guarded = _GroundTruthGuard(smoke_result, building, readers)
        for art in registry.artifacts():
            earlier = guarded if art.needs_earlier_era else None
            text = render_artifact(art.key, ArtifactContext(guarded, earlier))
            assert "no data in this scenario" not in text
        # Building every dataset pins the set: exactly these read it.
        data = Datasets(guarded)
        for name in dataset_names():
            data.get(name)
        assert readers == GROUND_TRUTH_DATASETS


class TestDatasetLayer:
    def test_memoizes_per_resolver(self, smoke_result):
        data = Datasets(smoke_result)
        with obs.recording() as recorder:
            first = data.get("hijacker_logins")
            second = data.get("hijacker_logins")
        assert first is second
        assert recorder.counters.get("analysis.dataset.miss") == 1
        assert recorder.counters.get("analysis.dataset.hit") == 1

    def test_builder_undeclared_access_raises(self, smoke_result):
        from repro.analysis.datasets import dataset, _DATASETS

        @dataset("bogus-greedy-builder")
        def _greedy(data):
            return data.get("hijacker_logins")  # never declared

        try:
            with pytest.raises(UndeclaredDatasetError):
                Datasets(smoke_result).get("bogus-greedy-builder")
        finally:
            _DATASETS.pop("bogus-greedy-builder")

    def test_closure_is_transitive(self):
        closure = dataset_closure(("recovery_latencies",))
        assert closure == frozenset(
            {"recovery_latencies", "recovery_claims", "hijack_flags"})

    def test_builder_deps_resolve(self, smoke_result):
        data = Datasets(smoke_result)
        windows = data.get("incident_timeline")
        assert set(data.built()) == dataset_closure(("incident_timeline",))
        for first, last in windows.values():
            assert first <= last

    def test_every_dataset_builds_on_a_live_result(self, smoke_result):
        data = Datasets(smoke_result)
        for name in dataset_names():
            data.get(name)
        assert set(data.built()) == set(dataset_names())

    def test_descriptions_present(self):
        for name in dataset_names():
            assert get_dataset(name).description.strip(), name
