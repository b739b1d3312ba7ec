"""Finite groupoid models for the abstract factorization theory.

Arrows are (source, label, target) triples with an explicit partial
multiplication table; labels play the role of the underlying point
transformations, so intersections like N_theta with the projected subgroup
are label-set intersections.  Everything is finite and every check is an
exhaustive enumeration, which is a complete decision procedure at this
scale (models are capped at 8 objects / 200 arrows).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from . import schema

MAX_OBJECTS = 8
MAX_ARROWS = 200


class GroupoidError(ValueError):
    pass


class ModelNotUniform(GroupoidError):
    pass


@dataclass(frozen=True)
class Arrow:
    src: str
    label: str
    tgt: str


class FiniteGroupoid:
    """Explicit objects/arrows/partial multiplication with verified axioms."""

    def __init__(self, objects: list[str], arrows: list[Arrow],
                 mult: dict[tuple[int, int], int]):
        if len(objects) > MAX_OBJECTS or len(arrows) > MAX_ARROWS:
            raise GroupoidError("model exceeds the exhaustive-checking cap")
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.mult = dict(mult)
        self.unit: dict[str, int] = {}
        self.inv: dict[int, int] = {}
        if len(set(arrows)) != len(arrows):
            raise GroupoidError("duplicate arrows")
        self._validate()

    # -- validation (exhaustive)

    def _validate(self):
        n = len(self.arrows)
        for (i, j), k in self.mult.items():
            a, b, c = self.arrows[i], self.arrows[j], self.arrows[k]
            if a.tgt != b.src:
                raise GroupoidError("multiplication defined for non-composable pair")
            if c.src != a.src or c.tgt != b.tgt:
                raise GroupoidError("composition endpoints are wrong")
        for i in range(n):
            for j in range(n):
                if self.arrows[i].tgt == self.arrows[j].src and (i, j) not in self.mult:
                    raise GroupoidError("missing composition for a composable pair")
        # associativity
        for (i, j), ij in self.mult.items():
            for k in range(n):
                if self.arrows[j].tgt != self.arrows[k].src:
                    continue
                left = self.mult[(ij, k)]
                right = self.mult[(i, self.mult[(j, k)])]
                if left != right:
                    raise GroupoidError("associativity fails")
        # units
        for obj in self.objects:
            candidates = [i for i, a in enumerate(self.arrows)
                          if a.src == obj and a.tgt == obj
                          and all(self.mult[(i, j)] == j for j, b in enumerate(self.arrows)
                                  if b.src == obj)
                          and all(self.mult[(j, i)] == j for j, b in enumerate(self.arrows)
                                  if b.tgt == obj)]
            if len(candidates) != 1:
                raise GroupoidError(f"object {obj} has {len(candidates)} units")
            self.unit[obj] = candidates[0]
        unit_labels = {self.arrows[i].label for i in self.unit.values()}
        if len(unit_labels) != 1:
            raise GroupoidError("unit arrows must share a single identity label")
        self.unit_label = next(iter(unit_labels))
        # inverses
        for i, a in enumerate(self.arrows):
            invs = [j for j, b in enumerate(self.arrows)
                    if b.src == a.tgt and b.tgt == a.src
                    and self.mult[(i, j)] == self.unit[a.src]
                    and self.mult[(j, i)] == self.unit[a.tgt]]
            if len(invs) != 1:
                raise GroupoidError(f"arrow {a} has {len(invs)} inverses")
            self.inv[i] = invs[0]

    # -- basic queries

    def all_arrows(self) -> frozenset[int]:
        return frozenset(range(len(self.arrows)))

    def vertex_group(self, obj: str) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(self.arrows)
                         if a.src == obj and a.tgt == obj)

    def labels(self, arrow_ids: Iterable[int]) -> frozenset[str]:
        return frozenset(self.arrows[i].label for i in arrow_ids)

    def _closed(self, ids: frozenset[int]) -> bool:
        """Whether ids holds the inverse of each of its arrows and each
        product of two of them."""
        return all(self.inv[i] in ids for i in ids) and frobenius_product(self, ids, ids) <= ids

    def is_subgroupoid(self, ids: frozenset[int]) -> bool:
        """Whether ids is a wide subgroupoid: closed, with every unit."""
        return all(self.unit[obj] in ids for obj in self.objects) and self._closed(ids)

    def is_subgroup_at(self, obj: str, ids: frozenset[int]) -> bool:
        return ids <= self.vertex_group(obj) and self.unit[obj] in ids and self._closed(ids)


def frobenius_product(G: FiniteGroupoid, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """All defined compositions a * b with matching endpoints."""
    out = set()
    for i in A:
        for j in B:
            k = G.mult.get((i, j))
            if k is not None:
                out.add(k)
    return frozenset(out)


@dataclass
class GroupoidModel:
    """A groupoid with a distinguished action subgroupoid and symmetry family."""

    G: FiniteGroupoid
    H: frozenset[int]
    N: dict[str, frozenset[int]]
    Hbar: Optional[frozenset[int]] = None

    def __post_init__(self):
        if not self.G.is_subgroupoid(self.H):
            raise GroupoidError("H is not a wide subgroupoid")
        for obj in self.G.objects:
            ids = self.N.get(obj, frozenset())
            if not self.G.is_subgroup_at(obj, ids):
                raise GroupoidError(f"N[{obj}] is not a subgroup of the vertex group")
        if self.Hbar is not None and not self.G.is_subgroupoid(self.Hbar):
            raise GroupoidError("Hbar is not a wide subgroupoid")

    def n_f(self) -> frozenset[int]:
        out = set()
        for ids in self.N.values():
            out |= ids
        return frozenset(out)


def is_uniform(m: GroupoidModel) -> bool:
    """N_{s(T)} * T == T * N_{t(T)} for every arrow T of the action subgroupoid."""
    G = m.G
    for i in m.H:
        a = G.arrows[i]
        left = {G.mult[(j, i)] for j in m.N[a.src]}
        right = {G.mult[(i, j)] for j in m.N[a.tgt]}
        if left != right:
            return False
    return True


def _covers(m: GroupoidModel) -> bool:
    """is_semi_normalized's test, for a family already known to be uniform."""
    return frobenius_product(m.G, m.n_f(), m.H) == m.G.all_arrows()


def _disjoint(m: GroupoidModel) -> bool:
    """is_disjointedly's test, for a family already known to be uniform."""
    h_labels = m.G.labels(m.H)
    return all(m.G.labels(m.N[obj]) & h_labels == {m.G.unit_label} for obj in m.G.objects)


def is_semi_normalized(m: GroupoidModel) -> bool:
    """N^f * G^H covers the whole groupoid (requires a uniform family)."""
    if not is_uniform(m):
        raise ModelNotUniform("the symmetry family is not uniform for this action")
    return _covers(m)


def is_disjointedly(m: GroupoidModel) -> bool:
    """N_theta intersects the projected subgroup only in the identity
    (requires a uniform family)."""
    if not is_uniform(m):
        raise ModelNotUniform("the symmetry family is not uniform for this action")
    return _disjoint(m)


def kernel_labels(G: FiniteGroupoid) -> frozenset[str]:
    """Labels of transformations fixing every object (the kernel group)."""
    out = None
    for obj in G.objects:
        labs = G.labels(G.vertex_group(obj))
        out = labs if out is None else (out & labs)
    return out or frozenset()


def verify_factorization(m: GroupoidModel) -> dict:
    """Vertex-group factorization G_theta = G^ess_theta . N_theta.

    Also reports normality of N_theta, and (when the model is disjoint) the
    trivial-intersection and unique-decomposition strengthenings.
    """
    G = m.G
    if not is_uniform(m):
        return {"applicable": False, "reason": "family is not uniform",
                "passed": False}
    if not _covers(m):
        return {"applicable": False, "reason": "model is not semi-normalized",
                "passed": False}
    h_labels = G.labels(m.H)
    report = {"applicable": True, "objects": {}, "passed": True}
    disjoint = _disjoint(m)
    for obj in G.objects:
        vertex = G.vertex_group(obj)
        n_ids = m.N[obj]
        ess = frozenset(i for i in vertex if G.arrows[i].label in h_labels)
        entry = {}
        entry["ess_is_subgroup"] = G.is_subgroup_at(obj, ess)
        normal = all(
            G.mult[(G.mult[(G.inv[g], nn)], g)] in n_ids
            for g in vertex for nn in n_ids)
        entry["n_normal"] = normal
        prod = frobenius_product(G, ess, n_ids)
        entry["product_covers"] = prod == vertex
        if disjoint:
            entry["trivial_intersection"] = (ess & n_ids) == {G.unit[obj]}
            counts = {}
            for a in ess:
                for b in n_ids:
                    counts[G.mult[(a, b)]] = counts.get(G.mult[(a, b)], 0) + 1
            entry["unique_decomposition"] = (set(counts) == set(vertex)
                                             and all(v == 1 for v in counts.values()))
        report["objects"][obj] = entry
        if not (entry["ess_is_subgroup"] and entry["n_normal"] and entry["product_covers"]):
            report["passed"] = False
        if disjoint and not (entry["trivial_intersection"] and entry["unique_decomposition"]):
            report["passed"] = False
    report["disjoint"] = disjoint
    return report


def verify_extension(m: GroupoidModel) -> bool:
    """Semi-normalization persists for the larger subgroupoid m.Hbar (m.H
    where that is None) and for the kernel-enlarged symmetry family."""
    G = m.G
    Hbar = m.H if m.Hbar is None else m.Hbar
    if not m.H <= Hbar:
        raise GroupoidError("Hbar does not contain H")
    wider = GroupoidModel(G, Hbar, m.N)
    if not (is_uniform(wider) and _covers(wider)):
        return False
    klabels = kernel_labels(G)
    nbar = {}
    for obj in G.objects:
        kernel_ids = frozenset(i for i in G.vertex_group(obj)
                               if G.arrows[i].label in klabels)
        prod = frobenius_product(G, m.N[obj], kernel_ids)
        if not G.is_subgroup_at(obj, prod):
            return False
        nbar[obj] = prod
    mbar = GroupoidModel(G, Hbar, nbar)
    return is_uniform(mbar) and _covers(mbar)


def run_all_checks(m: GroupoidModel) -> dict:
    """The documented truth table entries for one model."""
    uniform = is_uniform(m)
    out = {"uniform": uniform,
           "semi_normalized": uniform and _covers(m),
           "disjoint": uniform and _disjoint(m)}
    fact = verify_factorization(m)
    # passed is False where the check is not applicable, and on a disjoint
    # model it requires a unique decomposition at every object
    out["factorization"] = fact["passed"]
    out["splitting"] = fact["passed"] and fact["disjoint"]
    try:
        out["extension"] = verify_extension(m)
    except GroupoidError:
        out["extension"] = False
    return out


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def model_to_json(m: GroupoidModel) -> dict:
    G = m.G
    return {
        "objects": list(G.objects),
        "arrows": [{"src": a.src, "label": a.label, "tgt": a.tgt} for a in G.arrows],
        "mult": sorted([i, j, k] for (i, j), k in G.mult.items()),
        "H": sorted(m.H),
        "N": {obj: sorted(G.arrows[i].label for i in ids) for obj, ids in m.N.items()},
        "Hbar": sorted(m.Hbar) if m.Hbar is not None else None,
    }


_INDICES = schema.list_of(schema.integer)
_MODEL = {
    "objects": (schema.list_of(schema.string), "a list of strings"),
    "arrows": (lambda v: type(v) is list, "a list of {src, label, tgt} objects"),
    "mult": (schema.list_of(schema.list_of(schema.integer, 3)),
             "a list of [i, j, k] arrow-index triples"),
    "H": (_INDICES, "a list of arrow indices"),
    "N": (lambda v: type(v) is dict and all(map(schema.list_of(schema.string), v.values())),
          "an object mapping objects to lists of arrow labels"),
    "Hbar": (lambda v: v is None or _INDICES(v), "null or a list of arrow indices"),
}


def _check_model(data) -> None:
    """Raise ValueError naming the first missing, malformed or dangling field."""
    schema.check(data, _MODEL, required=list(_MODEL)[:-1], name="groupoid model")
    objects = set(data["objects"])
    end = (lambda v: schema.string(v) and v in objects, "one of 'objects'")
    arrow = {"src": end, "label": (schema.string, "a string"), "tgt": end}
    for i, a in enumerate(data["arrows"]):
        schema.check(a, arrow, required=arrow, name=f"arrow {i}")
    count = len(data["arrows"])
    for key, ids in (("mult", [u for m in data["mult"] for u in m]), ("H", data["H"]),
                     ("Hbar", data.get("Hbar") or [])):
        if not all(0 <= u < count for u in ids):
            raise ValueError(f"groupoid model key {key!r} has an index that is not one "
                             f"of the {count} arrows")
    if not objects.issuperset(data["N"]):
        raise ValueError("groupoid model key 'N' has a key not in 'objects'")


def model_from_json(data) -> GroupoidModel:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        _check_model(data)
    except ValueError as err:
        raise GroupoidError(str(err)) from None
    arrows = [Arrow(d["src"], d["label"], d["tgt"]) for d in data["arrows"]]
    mult = {(i, j): k for i, j, k in data["mult"]}
    G = FiniteGroupoid(data["objects"], arrows, mult)
    H = frozenset(data["H"])
    N = {}
    for obj, labels in data["N"].items():
        wanted = set(labels)
        N[obj] = frozenset(i for i in G.vertex_group(obj)
                           if G.arrows[i].label in wanted)
    hbar = data.get("Hbar")
    return GroupoidModel(G, H, N, None if hbar is None else frozenset(hbar))


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------

# documented truth table for the four shipped fixtures
FIXTURE_TRUTH_TABLE = {
    "normalized": {"uniform": True, "semi_normalized": True, "disjoint": True,
                   "factorization": True, "splitting": True, "extension": True},
    "disjoint_semi": {"uniform": True, "semi_normalized": True, "disjoint": True,
                      "factorization": True, "splitting": True, "extension": True},
    "non_disjoint_semi": {"uniform": True, "semi_normalized": True, "disjoint": False,
                          "factorization": True, "splitting": False, "extension": True},
    "non_semi": {"uniform": True, "semi_normalized": False, "disjoint": True,
                 "factorization": False, "splitting": False, "extension": False},
}


def load_fixture(name: str) -> GroupoidModel:
    """A shipped model, read from its JSON file in ``schsym/data/groupoids``."""
    text = resources.files("schsym.data.groupoids").joinpath(f"{name}.json").read_text()
    return model_from_json(text)
