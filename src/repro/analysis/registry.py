"""The artifact registry: every figure, table, and section, declared.

The paper's deliverable is a fixed catalog of artifacts (Tables 1–3,
Figures 1–12, the Section 5/8 analyses).  Each analysis module registers
its artifacts here with a key, the report section title, a one-line
description, a render function, and the **datasets** it depends on
(:mod:`repro.analysis.datasets`).  Everything downstream is derived from
this registry — the full report is a walk over :func:`report_sequence`,
``--list-artifacts`` prints :func:`descriptions`, and ``--artifact``
selection resolves exactly the declared dependency subgraph.

Registration happens at import time of :mod:`repro.analysis` and is
deterministic: module import order fixes registration order, and every
artifact carries an explicit ``report_order`` that pins its slot in the
paper-ordered report, independent of import order.  Nothing in the
registry holds per-run state — render functions receive an
:class:`ArtifactContext` that owns the per-result dataset cache and
exposes no result, only datasets, config and world size — so
results produced by :func:`repro.core.parallel.run_worlds` feed straight
into :func:`render_artifact` in the parent process; no registry object
ever needs pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import obs
from repro.analysis.datasets import (
    Datasets,
    UndeclaredDatasetError,
    dataset_closure,
    get_dataset,
)
from repro.core.simulation import SimulationResult

__all__ = [
    "Artifact", "ArtifactContext", "UnknownArtifactError", "artifact",
    "artifact_keys", "artifacts", "descriptions", "get", "render_artifact",
    "render_artifacts", "report_sequence",
]


class UnknownArtifactError(KeyError):
    """An artifact key that nothing registered."""


@dataclass(frozen=True)
class Artifact:
    """One registered measurement artifact."""

    key: str
    title: str
    description: str
    deps: Tuple[str, ...]
    render: Callable[["ArtifactContext"], str]
    #: Slot in the default full report (paper order); ``None`` keeps the
    #: artifact CLI-only (e.g. ``report`` itself, ``metrics``).
    report_order: Optional[int]
    #: Skipped by the report walk unless an earlier-era result is given.
    needs_earlier_era: bool
    #: Composite artifacts (the full report) delegate to other artifacts
    #: and are exempt from their own dataset-subgraph restriction — each
    #: delegated render is restricted individually.
    composite: bool


_REGISTRY: Dict[str, Artifact] = {}


def artifact(key: str, *, title: Optional[str] = None, description: str,
             deps: Iterable[str] = (), report_order: Optional[int] = None,
             needs_earlier_era: bool = False,
             composite: bool = False) -> Callable:
    """Register an artifact render function.

    ::

        @artifact("figure5", title="Figure 5", report_order=80,
                  description="Figure 5: page submission rates",
                  deps=("forms_http_logs",))
        def _figure5(ctx: ArtifactContext) -> str:
            return render(compute(ctx))

    where ``compute(ctx)`` reads ``ctx.dataset("forms_http_logs")``.

    Keys must be unique, descriptions non-empty, dependencies registered
    datasets, and report orders unique — all enforced at import time so
    a drifting registration fails the first test that touches analysis.
    """
    dep_tuple = tuple(deps)

    def register(render: Callable[["ArtifactContext"], str]) -> Callable:
        if key in _REGISTRY:
            raise ValueError(f"artifact {key!r} registered twice")
        if not description.strip():
            raise ValueError(f"artifact {key!r} has an empty description")
        for dep in dep_tuple:
            get_dataset(dep)  # raises UnknownDatasetError on a bad name
        if report_order is not None:
            clash = next((a.key for a in _REGISTRY.values()
                          if a.report_order == report_order), None)
            if clash is not None:
                raise ValueError(
                    f"artifact {key!r} reuses report_order {report_order} "
                    f"of {clash!r}")
        _REGISTRY[key] = Artifact(
            key=key, title=title or key, description=description,
            deps=dep_tuple, render=render, report_order=report_order,
            needs_earlier_era=needs_earlier_era, composite=composite)
        return render

    return register


def get(key: str) -> Artifact:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownArtifactError(key) from None


def artifact_keys() -> Tuple[str, ...]:
    """All registered keys, sorted (the CLI's ``choices`` list)."""
    return tuple(sorted(_REGISTRY))


def artifacts() -> Tuple[Artifact, ...]:
    """All registered artifacts, key-sorted."""
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


def report_sequence() -> Tuple[Artifact, ...]:
    """The default report's sections in paper order.

    This is the registry's topological walk: artifacts depend only on
    datasets (never on each other), so the explicit ``report_order``
    is a valid topological order of the artifact/dataset DAG; dataset
    dependencies resolve lazily — and memoized — at render time.
    """
    ordered = [a for a in _REGISTRY.values() if a.report_order is not None]
    ordered.sort(key=lambda a: a.report_order)
    return tuple(ordered)


def descriptions() -> Dict[str, str]:
    """Key → one-line description (``--list-artifacts``)."""
    return {key: _REGISTRY[key].description for key in sorted(_REGISTRY)}


class ArtifactContext:
    """Everything a render function may read: datasets, config, world size.

    The result itself is not exposed: :mod:`repro.analysis.datasets` is
    the one module that knows its layout, so every input an artifact
    reads is a declared dataset.  One context shared across several
    renders is what makes the pipeline cheap: the dataset cache on the
    context is the unit of sharing.  An earlier-era result (Section
    5.4's longitudinal comparison) gets its own context,
    :attr:`earlier_era`, with its own dataset cache; both share one
    restriction stack, so an artifact's declared subgraph bounds what it
    reads from either era.
    """

    def __init__(self, result: SimulationResult,
                 earlier_era_result: Optional[SimulationResult] = None):
        self.config = result.config
        #: World size: provider accounts (per-million normalizations).
        self.n_accounts = len(result.population)
        self.datasets = Datasets(result)
        self._allowed: List[Optional[FrozenSet[str]]] = []
        self.earlier_era: Optional[ArtifactContext] = None
        if earlier_era_result is not None:
            self.earlier_era = ArtifactContext(earlier_era_result)
            self.earlier_era._allowed = self._allowed

    def dataset(self, name: str):
        """Resolve a dataset the *current artifact declared*."""
        if self._allowed and self._allowed[-1] is not None \
                and name not in self._allowed[-1]:
            raise UndeclaredDatasetError(
                f"artifact resolved dataset {name!r} outside its declared "
                f"dependency subgraph {sorted(self._allowed[-1])}")
        return self.datasets.get(name)


def render_artifact(key: str, ctx: ArtifactContext) -> str:
    """Render one artifact, restricted to its declared dataset subgraph."""
    art = get(key)
    allowed = None if art.composite else dataset_closure(art.deps)
    ctx._allowed.append(allowed)
    try:
        with obs.trace("analysis.artifact", key=key):
            obs.count(f"analysis.artifact.rendered.{key}")
            return art.render(ctx)
    finally:
        ctx._allowed.pop()


def render_artifacts(result: SimulationResult, keys: Iterable[str],
                     earlier_era_result: Optional[SimulationResult] = None,
                     ) -> Dict[str, str]:
    """Render several artifacts off one shared dataset cache.

    The convenience entry point for multi-world studies: feed each
    :func:`repro.core.parallel.run_worlds` result through this in the
    parent process.  Returns key → rendered text in the order given.
    """
    ctx = ArtifactContext(result, earlier_era_result)
    return {key: render_artifact(key, ctx) for key in keys}
