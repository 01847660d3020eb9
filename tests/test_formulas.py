"""Closed-form catalog, characterizations, bound reports, certificates."""

from __future__ import annotations

import pytest

from resolvedim import (
    FormulaQuery,
    adim_labeling_certificate,
    all_pairs_distances,
    bound_report,
    build_graph,
    catalog_families,
    characterize_small,
    closed_form,
    complement,
    families,
    solve_adim,
    solve_bdim,
    solve_dim,
    spider_bdim,
    tree_dim,
    verify_zhang_structure,
)


def _value(kind, family, **params):
    return closed_form(FormulaQuery(kind, family, params))


def test_path_formulas():
    assert _value("dim", "path", n=9).value == 1
    assert _value("adim", "path", n=2).value == 1
    assert _value("bdim", "path", n=3).value == 1
    for n, want in ((4, 2), (9, 4), (11, 4), (12, 5)):
        assert _value("adim", "path", n=n).value == want
        assert _value("bdim", "path", n=n).value == want


def test_cycle_formulas():
    assert _value("dim", "cycle", n=3).value == 2
    assert not _value("dim", "cycle", n=8).applicable
    for n, want in ((3, 1), (4, 2), (10, 4)):
        got = _value("bdim", "cycle", n=n)
        if n == 3:
            # C3 = K3: n - 1 = 2
            assert _value("bdim", "cycle", n=3).value == 2
        else:
            assert got.value == want


def test_complete_and_empty_formulas():
    for kind in ("dim", "adim", "bdim"):
        assert _value(kind, "complete", n=6).value == 5
        assert _value(kind, "empty", n=6).value == 5
        assert _value(kind, "complete", n=1).value == 1


def test_wheel_exceptional_values():
    for kind in ("dim", "adim", "bdim"):
        assert _value(kind, "wheel", n=3).value == 3
        assert _value(kind, "wheel", n=6).value == 3
    assert _value("dim", "wheel", n=7).value == 3
    assert _value("dim", "wheel", n=10).value == 4
    assert _value("dim", "wheel", n=4).value == 2
    assert _value("dim", "wheel", n=5).value == 2


def test_fan_exceptional_values():
    assert _value("dim", "fan", n=1).value == 1
    assert _value("dim", "fan", n=2).value == 2
    assert _value("dim", "fan", n=3).value == 2
    assert _value("dim", "fan", n=6).value == 3
    assert _value("dim", "fan", n=7).value == 3
    assert _value("dim", "fan", n=4).value == 2


def test_kpartite_formula_both_branches():
    # no singleton parts: n - k
    assert _value("dim", "complete_multipartite", parts=(2, 2, 3)).value == 4
    # with singleton parts: n + s - k - 1
    assert _value("dim", "complete_multipartite", parts=(1, 2, 2)).value == 2
    assert _value("dim", "complete_multipartite", parts=(1, 1, 3)).value == 3
    assert _value("adim", "complete_multipartite", parts=(2, 2)).value == 2
    with pytest.raises(ValueError):
        _value("dim", "complete_multipartite", parts=(3,))
    with pytest.raises(ValueError):
        _value("dim", "complete_multipartite", parts=(0, 2))


def test_petersen_formula():
    for kind in ("dim", "adim", "bdim"):
        assert _value(kind, "petersen").value == 3


def test_spider_formula():
    assert _value("dim", "spider", x=4, s=2).value == 3
    assert _value("adim", "spider", x=4, s=3).value == 3
    assert _value("bdim", "spider", x=4, s=3).value == 3
    assert not _value("bdim", "spider", x=4, s=4).applicable
    assert _value("dim", "spider", x=4, s=4).value == 3
    with pytest.raises(ValueError):
        _value("dim", "spider", x=2, s=0)
    with pytest.raises(ValueError):
        _value("dim", "spider", x=3, s=4)


def test_catalog_rejects_unknown():
    assert "path" in catalog_families()
    with pytest.raises(ValueError):
        _value("dim", "hypercube", n=3)
    with pytest.raises(ValueError):
        _value("girth", "path", n=3)
    with pytest.raises(ValueError):
        _value("dim", "path")
    for family, params in (
        ("path", {"n": 2.5}),
        ("cycle", {"n": "7"}),
        ("complete_multipartite", {"parts": ("a", "b")}),
        ("spider", {"x": 4, "s": 1.0}),
        ("path", {"n": (5, 6)}),
    ):
        with pytest.raises(ValueError, match="takes integers"):
            _value("dim", family, **params)


def test_catalog_takes_exactly_the_family_parameters():
    samples = {
        "path": {"n": 5}, "cycle": {"n": 5}, "complete": {"n": 4}, "empty": {"n": 4},
        "wheel": {"n": 5}, "fan": {"n": 5}, "complete_multipartite": {"parts": (1, 2, 2)},
        "petersen": {}, "spider": {"x": 4, "s": 2},
    }
    assert set(samples) == set(catalog_families())
    for family, params in samples.items():
        assert tuple(params) == families.FAMILIES[family][0], family
        for kind in ("dim", "adim", "bdim"):
            closed_form(FormulaQuery(kind, family, params))
        with pytest.raises(ValueError, match="unexpected"):
            closed_form(FormulaQuery("bdim", family, {**params, "extra": 1}))
        for name in params:
            rest = {k: v for k, v in params.items() if k != name}
            with pytest.raises(ValueError, match="missing"):
                closed_form(FormulaQuery("bdim", family, rest))


def test_formula_matches_solver_spot_checks():
    for family, params, builder in (
        ("wheel", {"n": 6}, lambda: families.wheel(6)),
        ("fan", {"n": 6}, lambda: families.fan(6)),
        ("complete_multipartite", {"parts": (1, 2, 2)}, lambda: families.complete_multipartite((1, 2, 2))),
    ):
        g = builder()
        for kind, solver in (("dim", solve_dim), ("adim", solve_adim), ("bdim", solve_bdim)):
            assert closed_form(FormulaQuery(kind, family, params)).value == solver(g).value


def test_tree_dim_structural():
    assert tree_dim(families.path(7)) == 1
    assert tree_dim(families.path(1)) == 1
    assert tree_dim(families.star(5)) == 4
    assert tree_dim(families.spider(4, 2)) == 3
    # two exterior majors, five leaves
    g = build_graph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)])
    assert tree_dim(g) == 3
    with pytest.raises(ValueError):
        tree_dim(families.cycle(4))


def test_characterizations_on_small_graphs():
    g = families.path(3)
    records = {r.id: r for r in characterize_small(g, adim=1, bdim=1)}
    assert records["bdim-1"].member and records["bdim-1"].value_matches
    assert records["bdim-1"].consistent

    g = families.complete(4)
    records = {r.id: r for r in characterize_small(g, adim=3, bdim=3)}
    assert records["bdim-max"].member and records["bdim-max"].consistent
    assert records["adim-max"].consistent

    g = families.cycle(5)
    records = {r.id: r for r in characterize_small(g, adim=2, bdim=2)}
    assert records["bdim-2"].member and records["bdim-2"].consistent
    assert not records["bdim-1"].member

    # order 1: the n-1 biconditionals are out of range
    g = families.path(1)
    records = {r.id: r for r in characterize_small(g, adim=1, bdim=1)}
    assert not records["bdim-max"].applicable
    assert records["bdim-1"].member


def test_complement_membership_in_tiny_family():
    # the bdim-1 family: short paths and their complements, nothing else
    members = (
        families.path(1),
        families.path(2),
        families.path(3),
        families.empty(2),
        complement(families.path(3)),
    )
    for g in members:
        assert characterize_small(g, solve_adim(g).value, solve_bdim(g).value)[0].member
    assert not characterize_small(families.empty(3), 2, 2)[0].member
    assert not characterize_small(families.path(4), 2, 2)[0].member
    assert not characterize_small(complement(families.path(4)), 2, 2)[0].member


def test_bound_report_all_hold_on_petersen():
    g = families.petersen()
    d = all_pairs_distances(g)
    records = bound_report(g, dim=3, adim=3, bdim=3, d=d)
    by_id = {r.id: r for r in records}
    assert by_id["landmark-floor"].applicable and by_id["landmark-floor"].holds
    assert by_id["diameter-ceiling"].holds
    assert by_id["capacity-dim"].holds
    assert by_id["sandwich-lower"].holds
    assert by_id["sandwich-upper"].holds
    assert by_id["deltaprime-ratio"].holds
    assert by_id["max-order-adim"].holds
    assert by_id["max-order-bdim"].holds
    assert all(r.holds for r in records if r.applicable)


def test_bound_report_gates():
    g = families.complete(5)
    records = {r.id: r for r in bound_report(g, dim=4, adim=4, bdim=4)}
    # diameter 1: the upper sandwich does not apply
    assert not records["sandwich-upper"].applicable
    assert records["sandwich-lower"].applicable
    # nothing computed: every value-dependent record is inapplicable
    empty = bound_report(families.path(4))
    assert all(not r.applicable for r in empty if r.id != "deltaprime-order")


def test_adim_labeling_certificate():
    g = families.path(5)
    labels = adim_labeling_certificate(g, [1, 3])
    # landmarks are omitted; everyone else gets a distinct adjacency string
    assert sorted(labels) == [0, 2, 4]
    assert labels[0] == "10"
    assert labels[2] == "11"
    assert labels[4] == "01"
    assert len(set(labels.values())) == 3
    with pytest.raises(ValueError):
        adim_labeling_certificate(g, [0, 1])


def test_verify_zhang_structure():
    g = families.spider(3, 3)
    # legs 0-1-2, 0-3-4, 0-5-6; a minimum set picks one vertex
    # from each of two legs
    assert verify_zhang_structure(g, [1, 3])
    assert verify_zhang_structure(g, [2, 4])
    assert not verify_zhang_structure(g, [1, 2])
    assert not verify_zhang_structure(g, [1, 3, 5])
    assert not verify_zhang_structure(g, [1, 0])
    with pytest.raises(ValueError):
        verify_zhang_structure(families.cycle(5), [0])
    with pytest.raises(ValueError):
        verify_zhang_structure(families.path(5), [0])


def test_spider_bdim_short_paths_and_spiders():
    res = spider_bdim(families.path(2))
    assert res.applicable and res.value == 1
    assert res.witness.values == (1, 0)
    res = spider_bdim(families.path(3))
    assert res.applicable and res.value == 1

    res = spider_bdim(families.spider(4, 2))
    assert res.applicable and res.value == 3
    assert res.witness.cost == 3
    assert max(res.witness.values) == 1

    # every leg subdivided: no short leg left
    res = spider_bdim(families.spider(3, 3))
    assert not res.applicable

    # long paths no longer qualify
    assert not spider_bdim(families.path(4)).applicable
    with pytest.raises(ValueError):
        spider_bdim(families.cycle(5))


def test_spider_bdim_matches_solver():
    for x in (3, 4):
        for s in range(x):
            g = families.spider(x, s)
            res = spider_bdim(g)
            assert res.applicable
            assert res.value == solve_bdim(g).value == solve_dim(g).value
