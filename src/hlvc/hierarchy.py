"""Layered label vocabularies and the entity-to-vertical parent map.

A hierarchy is an ordered list of concept layers, coarsest first (verticals,
then entities in the two-layer case), plus parent edges attached to the
finest layer. Edges only ever connect the finest layer to the layer directly
above it; every finest-layer label carries between MIN_PARENTS and
MAX_PARENTS parents.

The on-disk format is a plain text file::

    [layer verticals]
    Arts & Entertainment
    Autos & Vehicles

    [layer entities]
    guitar
    car

    [edges]
    guitar: Arts & Entertainment
    car: Autos & Vehicles

Label names may contain spaces but not ':' or ',' (both are structural in
the edges section) and are unique within their layer.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .atomic import atomic_open

MIN_PARENTS = 1
MAX_PARENTS = 3

# Reserved by the vocabulary file (":" and ",") and by predict's TSV.
_FORBIDDEN_NAME_CHARS = ":,\t\n\r"


class VocabularyError(ValueError):
    """A vocabulary file or hierarchy structure violates the format."""


def _check_name(name: str, where: str) -> str:
    if not name or name != name.strip():
        raise VocabularyError(f"{where}: empty or padded label name {name!r}")
    if any(c in name for c in _FORBIDDEN_NAME_CHARS):
        raise VocabularyError(f"{where}: label name {name!r} contains a reserved character")
    return name


@dataclasses.dataclass(frozen=True)
class ConceptLayer:
    """One named layer of labels; index within ``labels`` is the label id."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_name(self.name, "layer name")
        if not self.labels:
            raise VocabularyError(f"layer {self.name!r} has no labels")
        seen: set[str] = set()
        for lab in self.labels:
            _check_name(lab, f"layer {self.name!r}")
            if lab in seen:
                raise VocabularyError(f"layer {self.name!r}: duplicate label {lab!r}")
            seen.add(lab)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


@dataclasses.dataclass(frozen=True)
class LabelHierarchy:
    """Concept layers ordered coarse to fine, plus finest-layer parent edges.

    ``edges`` maps each finest-layer label index to a sorted tuple of parent
    indices in the next-coarser layer. With a single layer ``edges`` is empty.
    Instances are immutable; treat ``edges`` as read-only.
    """

    layers: tuple[ConceptLayer, ...]
    edges: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise VocabularyError("hierarchy has no layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise VocabularyError(f"duplicate layer names {names}")
        edges = {int(k): tuple(sorted(int(p) for p in v)) for k, v in self.edges.items()}
        object.__setattr__(self, "edges", edges)
        if len(self.layers) == 1:
            if edges:
                raise VocabularyError("edges given for a single-layer hierarchy")
            return
        n_fine = self.layers[-1].size
        n_parent = self.layers[-2].size
        for ent in range(n_fine):
            parents = edges.get(ent)
            if parents is None:
                raise VocabularyError(
                    f"entity {self.layers[-1].labels[ent]!r} has no parents"
                )
            if not (MIN_PARENTS <= len(parents) <= MAX_PARENTS):
                raise VocabularyError(
                    f"entity {self.layers[-1].labels[ent]!r} has {len(parents)} parents, "
                    f"expected {MIN_PARENTS}..{MAX_PARENTS}"
                )
            if len(set(parents)) != len(parents):
                raise VocabularyError(
                    f"entity {self.layers[-1].labels[ent]!r} lists a duplicate parent"
                )
            if any(not (0 <= p < n_parent) for p in parents):
                raise VocabularyError(
                    f"entity {self.layers[-1].labels[ent]!r} has a parent index out of range"
                )
        if len(edges) != n_fine:
            extra = sorted(set(edges) - set(range(n_fine)))
            raise VocabularyError(f"edges reference unknown entity indices {extra}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(layer.size for layer in self.layers)

    def parents_of(self, entity: int) -> tuple[int, ...]:
        """Parent indices (next-coarser layer) of a finest-layer label."""
        if self.num_layers < 2:
            raise VocabularyError("single-layer hierarchy has no parent edges")
        if not (0 <= entity < self.layers[-1].size):
            raise IndexError(f"entity index {entity} out of range")
        return self.edges[entity]

    @cached_property
    def children_of(self) -> tuple[tuple[int, ...], ...]:
        """For each next-coarser-layer label, the sorted finest-layer children."""
        if self.num_layers < 2:
            raise VocabularyError("single-layer hierarchy has no parent edges")
        kids: list[list[int]] = [[] for _ in range(self.layers[-2].size)]
        for ent in range(self.layers[-1].size):
            for p in self.edges[ent]:
                kids[p].append(ent)
        return tuple(tuple(k) for k in kids)

    def induce_vertical_labels(self, entities) -> set[int]:
        """Union of the parents of the given finest-layer labels."""
        out: set[int] = set()
        for ent in entities:
            out.update(self.parents_of(int(ent)))
        return out

    def induce_vertical_scores(self, entity_scores):
        """Lift finest-layer scores to the parent layer by max over children.

        ``entity_scores`` has shape (..., n_entities); the result has shape
        (..., n_parent), in the dtype of float scores. A label with no
        children gets score 0, the floor of the probability range.
        """
        scores = np.asarray(entity_scores)
        scores = scores.astype(np.promote_types(scores.dtype, np.float32), copy=False)
        if scores.shape[-1] != self.layers[-1].size:
            raise ValueError(
                f"expected last axis {self.layers[-1].size}, got {scores.shape[-1]}"
            )
        out = np.zeros(scores.shape[:-1] + (self.layers[-2].size,), dtype=scores.dtype)
        for v, kids in enumerate(self.children_of):
            if kids:
                out[..., v] = scores[..., list(kids)].max(axis=-1)
        return out


def save_vocabulary(hierarchy: LabelHierarchy, path) -> None:
    """Write a hierarchy in the plain-text vocabulary format, atomically."""
    lines: list[str] = []
    for layer in hierarchy.layers:
        lines.append(f"[layer {layer.name}]")
        lines.extend(layer.labels)
        lines.append("")
    if hierarchy.num_layers >= 2:
        lines.append("[edges]")
        fine = hierarchy.layers[-1]
        parent = hierarchy.layers[-2]
        for ent in range(fine.size):
            parents = ", ".join(parent.labels[p] for p in hierarchy.edges[ent])
            lines.append(f"{fine.labels[ent]}: {parents}")
        lines.append("")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def load_vocabulary(path) -> LabelHierarchy:
    """Parse a vocabulary file; raises VocabularyError with a line number.

    Parent counts, duplicate parents and entities without an edge line are
    checked by LabelHierarchy; those errors carry the path but no line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()

    layers: list[ConceptLayer] = []
    cur_name: str | None = None
    cur_labels: list[str] = []
    in_edges = False
    edge_lines: list[tuple[int, str]] = []

    def flush_layer() -> None:
        nonlocal cur_name, cur_labels
        if cur_name is not None:
            try:
                layers.append(ConceptLayer(cur_name, tuple(cur_labels)))
            except VocabularyError as exc:
                raise VocabularyError(f"{path}: {exc}") from None
            cur_name, cur_labels = None, []

    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if header == "edges":
                flush_layer()
                if in_edges:
                    raise VocabularyError(f"{path}:{lineno}: repeated [edges] section")
                if len(layers) < 2:
                    raise VocabularyError(
                        f"{path}:{lineno}: [edges] requires at least two layers"
                    )
                in_edges = True
                continue
            if header.startswith("layer "):
                if in_edges:
                    raise VocabularyError(
                        f"{path}:{lineno}: layer section after [edges]"
                    )
                flush_layer()
                cur_name = header[len("layer "):].strip()
                if not cur_name:
                    raise VocabularyError(f"{path}:{lineno}: empty layer name")
                continue
            raise VocabularyError(f"{path}:{lineno}: unknown section {line!r}")
        if in_edges:
            edge_lines.append((lineno, line))
        elif cur_name is not None:
            cur_labels.append(line)
        else:
            raise VocabularyError(f"{path}:{lineno}: content before any section header")

    flush_layer()
    if not layers:
        raise VocabularyError(f"{path}: no layer sections")

    edges: dict[int, tuple[int, ...]] = {}
    if len(layers) >= 2:
        if not in_edges:
            raise VocabularyError(f"{path}: missing [edges] section")
        fine_index = layers[-1].index
        parent_index = layers[-2].index
        for lineno, line in edge_lines:
            head, sep, tail = line.partition(":")
            if not sep:
                raise VocabularyError(f"{path}:{lineno}: edge line missing ':'")
            ent_name = head.strip()
            if ent_name not in fine_index:
                raise VocabularyError(
                    f"{path}:{lineno}: unknown entity {ent_name!r}"
                )
            ent = fine_index[ent_name]
            if ent in edges:
                raise VocabularyError(
                    f"{path}:{lineno}: repeated edge line for {ent_name!r}"
                )
            parents: list[int] = []
            for part in tail.split(","):
                pname = part.strip()
                if pname not in parent_index:
                    raise VocabularyError(
                        f"{path}:{lineno}: unknown parent {pname!r}"
                    )
                parents.append(parent_index[pname])
            edges[ent] = tuple(parents)

    try:
        return LabelHierarchy(tuple(layers), edges)
    except VocabularyError as exc:
        raise VocabularyError(f"{path}: {exc}") from None
