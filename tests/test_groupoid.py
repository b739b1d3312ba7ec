"""Finite groupoid kit: axioms, Frobenius products, fixture truth table."""
import json
from importlib import resources

import pytest

from schsym.groupoid import (FIXTURE_TRUTH_TABLE, Arrow, FiniteGroupoid, GroupoidError,
                             GroupoidModel, ModelNotUniform, frobenius_product, is_disjointedly,
                             is_semi_normalized, is_uniform, kernel_labels,
                             load_fixture, model_from_json, model_to_json,
                             run_all_checks, verify_extension, verify_factorization)


_S3 = {
    "e": (0, 1, 2), "r": (1, 2, 0), "rr": (2, 0, 1),
    "s": (1, 0, 2), "sr": (2, 1, 0), "srr": (0, 2, 1),
}


def _from_label_action(objects, compose, action, arrow_set) -> FiniteGroupoid:
    """A groupoid from a label group acting on objects.

    compose[(l1, l2)] is the label of 'first l1 then l2'; action[l] maps
    each object to its image; arrow_set lists (src, label) pairs.
    """
    arrows = [Arrow(src, lab, action[lab][src]) for src, lab in arrow_set]
    index = {(a.src, a.label): i for i, a in enumerate(arrows)}
    mult = {}
    for i, a in enumerate(arrows):
        for j, b in enumerate(arrows):
            if a.tgt != b.src:
                continue
            lab = compose[(a.label, b.label)]
            k = index.get((a.src, lab))
            if k is None:
                raise GroupoidError(
                    f"arrow set not closed: {a} * {b} needs label {lab} at {a.src}")
            mult[(i, j)] = k
    return FiniteGroupoid(objects, arrows, mult)


def _connected_components(G: FiniteGroupoid, arrow_ids) -> list[set[str]]:
    """The objects joined by the given arrows, one set per component."""
    parent = {o: o for o in G.objects}

    def find(o):
        while parent[o] != o:
            parent[o] = parent[parent[o]]
            o = parent[o]
        return o

    for i in arrow_ids:
        a, b = find(G.arrows[i].src), find(G.arrows[i].tgt)
        if a != b:
            parent[a] = b
    comps: dict[str, set[str]] = {}
    for o in G.objects:
        comps.setdefault(find(o), set()).add(o)
    return list(comps.values())


def _perm_group(perms: dict[str, tuple[int, ...]]):
    """Composition table for named permutations (apply first, then second)."""
    compose = {}
    byperm = {p: name for name, p in perms.items()}
    for n1, p1 in perms.items():
        for n2, p2 in perms.items():
            comp = tuple(p2[p1[i]] for i in range(len(p1)))
            compose[(n1, n2)] = byperm[comp]
    return compose


def s3_model():
    return load_fixture("disjoint_semi")


def test_axioms_validated_on_construction():
    G = s3_model().G
    # drop one composition entry -> missing-composition error
    bad_mult = dict(G.mult)
    bad_mult.pop(next(iter(bad_mult)))
    with pytest.raises(GroupoidError):
        FiniteGroupoid(G.objects, G.arrows, bad_mult)
    # corrupt one entry -> endpoint or associativity error
    key = next(iter(G.mult))
    wrong = dict(G.mult)
    a = G.arrows[wrong[key]]
    other = next(i for i, b in enumerate(G.arrows)
                 if (b.src, b.tgt) == (a.src, a.tgt) and i != wrong[key])
    wrong[key] = other
    with pytest.raises(GroupoidError):
        FiniteGroupoid(G.objects, G.arrows, wrong)


def test_frobenius_product_against_double_loop():
    m = s3_model()
    G = m.G
    A, B = sorted(m.n_f()), sorted(m.H)
    brute = set()
    for i in A:
        for j in B:
            if G.arrows[i].tgt == G.arrows[j].src:
                brute.add(G.mult[(i, j)])
    assert frobenius_product(G, A, B) == frozenset(brute)


def test_frobenius_units_are_neutral():
    m = s3_model()
    G = m.G
    units = [G.unit[obj] for obj in G.objects]
    arrows = sorted(G.all_arrows())
    assert frobenius_product(G, units, arrows) == frozenset(arrows)
    assert frobenius_product(G, arrows, units) == frozenset(arrows)


def test_fixture_truth_table():
    for name in FIXTURE_TRUTH_TABLE:
        model = load_fixture(name)
        assert run_all_checks(model) == FIXTURE_TRUTH_TABLE[name], name


def test_shipped_files_match_builders():
    # the shipped JSON files are the only source of the fixtures: exactly one
    # file per truth-table entry, each in the canonical form model_to_json writes
    shipped = resources.files("schsym.data.groupoids")
    names = sorted(p.name[:-len(".json")] for p in shipped.iterdir() if p.name.endswith(".json"))
    assert names == sorted(FIXTURE_TRUTH_TABLE)
    for name in names:
        on_disk = json.loads(shipped.joinpath(f"{name}.json").read_text())
        assert model_to_json(load_fixture(name)) == on_disk, name


def test_uniformity_counterexample():
    # a deliberately twisted family: full vertex group at one object only
    m = s3_model()
    G = m.G
    even = ("e", "r", "rr")
    N = {"a": frozenset(i for i in G.vertex_group("a") if G.arrows[i].label in even),
         "b": frozenset({G.unit["b"]})}
    twisted = GroupoidModel(G, m.H, N)
    assert not is_uniform(twisted)
    with pytest.raises(ModelNotUniform):
        is_semi_normalized(twisted)


def test_full_vertex_family_uniform_iff_normal():
    # N = full vertex groups is uniform since conjugation preserves them
    m = s3_model()
    G = m.G
    N = {obj: G.vertex_group(obj) for obj in G.objects}
    full = GroupoidModel(G, m.H, N)
    assert is_uniform(full)
    assert is_semi_normalized(full)


def test_factorization_details():
    rep = verify_factorization(s3_model())
    assert rep["applicable"] and rep["passed"] and rep["disjoint"]
    for entry in rep["objects"].values():
        assert entry["unique_decomposition"]
    ndm = load_fixture("non_disjoint_semi")
    rep2 = verify_factorization(ndm)
    assert rep2["applicable"] and rep2["passed"] and not rep2["disjoint"]
    nsm = load_fixture("non_semi")
    rep3 = verify_factorization(nsm)
    assert not rep3["applicable"] and not rep3["passed"]


def test_semidirect_vertex_group():
    # one object with full S3 vertex group: G = (C2 acting on C3), split exactly
    compose = _perm_group(_S3)
    action = {lab: {"pt": "pt"} for lab in _S3}
    arrow_set = [("pt", lab) for lab in _S3]
    G = _from_label_action(["pt"], compose, action, arrow_set)
    H = frozenset(i for i, a in enumerate(G.arrows) if a.label in ("e", "s"))
    N = {"pt": frozenset(i for i, a in enumerate(G.arrows)
                         if a.label in ("e", "r", "rr"))}
    m = GroupoidModel(G, H, N)
    assert is_uniform(m) and is_semi_normalized(m) and is_disjointedly(m)
    rep = verify_factorization(m)
    assert rep["passed"] and rep["objects"]["pt"]["unique_decomposition"]


def test_normal_subgroupoid_property():
    # conjugation carries N_src onto N_tgt along every arrow (semi-normalized)
    m = s3_model()
    G = m.G
    for i, a in enumerate(G.arrows):
        conj = {G.mult[(G.mult[(G.inv[i], nn)], i)] for nn in m.N[a.src]}
        assert conj == set(m.N[a.tgt])


def test_connectivity_matches_action_groupoid():
    m = s3_model()
    G = m.G
    full = _connected_components(G, G.all_arrows())
    act = _connected_components(G, m.H)
    assert sorted(map(sorted, full)) == sorted(map(sorted, act))


def test_kernel_and_extension():
    m = s3_model()
    assert kernel_labels(m.G) == {"e", "r", "rr"}
    assert verify_extension(m)  # uses the shipped Hbar
    assert verify_extension(GroupoidModel(m.G, m.H, m.N, m.H))  # Hbar = H is allowed
    assert verify_extension(GroupoidModel(m.G, m.H, m.N))  # no Hbar: H itself
    with pytest.raises(GroupoidError, match="Hbar is not a wide subgroupoid"):
        GroupoidModel(m.G, m.H, m.N, frozenset())
    units = frozenset(m.G.unit.values())  # wide, but without H's other arrows
    with pytest.raises(GroupoidError, match="Hbar does not contain H"):
        verify_extension(GroupoidModel(m.G, m.H, m.N, units))


def test_json_round_trip_and_malformed():
    m = s3_model()
    data = model_to_json(m)
    m2 = model_from_json(json.dumps(data))
    assert run_all_checks(m2) == run_all_checks(m)
    with pytest.raises(GroupoidError):
        model_from_json({"objects": ["a"]})


def test_model_caps():
    objects = [f"o{i}" for i in range(9)]
    with pytest.raises(GroupoidError):
        FiniteGroupoid(objects, [], {})
