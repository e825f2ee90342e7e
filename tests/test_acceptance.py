"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS line on success (run with -s or -v to see
them); tolerances are pinned here, not deferred to configuration.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from qmdkit.catalog import (CATALOG_DESCRIPTORS, TOLS, field_1d_quadratic,
                            field_corner, field_figure8_min,
                            field_figure8_perturbed, field_saddle,
                            field_torus_height, mask_annulus, monodromy,
                            reeb_chord_oracle, reeb_chord_table, tau_1d_quartic,
                            field_1d_quartic, tau_saddle, torus_circle_indices)
from qmdkit.cubical import betti_of_mask, betti_product_check
from qmdkit.fields import c1_distance, gradient_magnitude
from qmdkit.graphlag import isolation_scan
from qmdkit.morse import (SubmanifoldChart, build_rho, check_qmd, construct_tau,
                          detect_critical_set, flatten, index_preserved,
                          isolating_box, transverse_negative_index,
                          verify_thickening)
from qmdkit.specseq import build_from_qmd, converge, directed_limit_check, page

from _oracles import (differential_ranks, naive_homology_dims,
                      oracle_differential_ranks, oracle_page,
                      random_filtered_complex)

SEED = int(os.environ.get("QMD_SEED", "0"))


def _report(name: str, detail: str = "") -> None:
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


def test_criterion_01_monodromy_product():
    t0 = time.perf_counter()
    m = monodromy()
    elapsed = time.perf_counter() - t0
    assert m == [[2, 1], [-1, 0]]
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    assert elapsed < 1e-3
    _report("monodromy product", f"[[2,1],[-1,0]] in {elapsed*1e6:.0f} us")


def test_criterion_02_reeb_parity_sweep():
    t0 = time.perf_counter()
    cases = 0
    for p in range(1, 26):
        for q in range(1, 26):
            if math.gcd(p, q) != 1:
                continue
            assert reeb_chord_table(p, q) == reeb_chord_oracle(p, q), (p, q)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 300
    assert elapsed < 1.0
    _report("reeb-chord parity", f"{cases} coprime slopes in {elapsed:.2f}s")


def test_criterion_03_kunneth():
    t0 = time.perf_counter()
    b_ann = betti_of_mask(mask_annulus(16, 16))
    assert b_ann == (1, 1, 0)
    conv = betti_product_check(b_ann, b_ann)
    assert conv[:3] == (1, 2, 1) and not any(conv[3:])
    product = mask_annulus(4, 5).product(mask_annulus(4, 5))
    assert betti_of_mask(product) == (1, 2, 1, 0, 0)

    fc = build_from_qmd(CATALOG_DESCRIPTORS["annulus-kunneth"]())
    e1 = page(fc, 1)
    stable, einf = converge(fc)
    assert e1.dims() == {(1, -1): 1, (1, 0): 2, (1, 1): 1}
    assert stable == 1 and einf.dims() == e1.dims()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("kunneth", f"(1,2,1) across mask, convolution, pages in {elapsed:.2f}s")


def _flattening_fixture_cases():
    f1 = field_1d_quadratic()
    f2 = field_corner()
    f3 = field_torus_height().shift(-1.0)
    crit1 = detect_critical_set(f1, TOLS.grad_tol)
    crit2 = detect_critical_set(f2, TOLS.grad_tol)
    crit3 = detect_critical_set(f3, TOLS.grad_tol)
    _, i_min = torus_circle_indices()
    comp3 = next(i for i, c in enumerate(crit3.components) if c.cells[i_min, 0])
    return [("interval", f1, crit1, 0), ("corner", f2, crit2, 0),
            ("torus-band", f3, crit3, comp3)]


def test_criterion_04_flattening_contract():
    t0 = time.perf_counter()
    rho = build_rho(0.08)
    assert float(rho(0.02)) == 0.0 and float(rho(0.16)) == 0.16
    xs = np.linspace(0.04, 0.08, 10001)[1:-1]
    dv = rho.deriv(xs)
    assert (dv > 0.0).all() and (dv < 3.0).all()

    for name, f, crit, comp in _flattening_fixture_cases():
        distances = []
        for delta in (0.2, 0.1, 0.05, 0.025):
            res = flatten(f, delta, crit, TOLS, component=comp)
            # zero set of the composed field is exactly the sublevel set
            assert np.array_equal(res.f_check.values == 0.0,
                                  f.values <= res.delta_used / 2.0), name
            distances.append(c1_distance(f, res.f_check))
            report = verify_thickening(f, crit, res.sigma, TOLS, component=comp)
            assert report.betti_match, (name, delta)
            assert report.descent_reached_c, (name, delta)
        assert all(a > b for a, b in zip(distances, distances[1:])), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("flattening contract", f"3 fixtures x 4 deltas in {elapsed:.2f}s")


def _minimally_degenerate_triples():
    out = []
    f = field_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    out.append(("saddle", f, crit, SubmanifoldChart(axes=(0,), base=(16, 16)), 0))

    f = field_1d_quadratic()
    crit = detect_critical_set(f, TOLS.grad_tol)
    out.append(("interval-min", f, crit, SubmanifoldChart(axes=(0,), base=(16,)), 0))

    f = field_figure8_min()
    crit = detect_critical_set(f, TOLS.grad_tol)
    out.append(("figure8-min", f, crit,
                SubmanifoldChart(axes=(0, 1), base=(16, 16)), 0))

    f = field_figure8_perturbed()
    crit = detect_critical_set(f, TOLS.grad_tol)
    comp = next(i for i, c in enumerate(crit.components) if c.cells[16, 16])
    out.append(("figure8-perturbed", f, crit,
                SubmanifoldChart(axes=(0, 1), base=(16, 16)), comp))

    f = field_torus_height()
    crit = detect_critical_set(f, TOLS.grad_tol)
    i_max, i_min = torus_circle_indices()
    comp_min = next(i for i, c in enumerate(crit.components) if c.cells[i_min, 0])
    out.append(("torus-min", f, crit,
                SubmanifoldChart(axes=(0, 1), base=(0, 0)), comp_min))
    comp_max = 1 - comp_min
    out.append(("torus-max", f, crit,
                SubmanifoldChart(axes=(1,), base=(i_max, 0)), comp_max))
    return out


def test_criterion_05_tau_equivalence():
    eig_tol = 1e-6
    for name, f, crit, chart, comp in _minimally_degenerate_triples():
        tau = construct_tau(f, crit, chart, TOLS, component=comp)
        report = check_qmd(f, tau, crit, chart, TOLS, component=comp)
        assert report.passed, (name, report.details)
        for spec in report.hessian_spectra:
            scale = max(1.0, max(abs(x) for x in spec)) if spec else 1.0
            assert max(spec, default=0.0) <= eig_tol * scale, name
    # the classification split between the two critical figure-eights
    from qmdkit.catalog import run_example
    genus2 = run_example("genus2-figure8")
    assert genus2.passed
    _report("tau equivalence",
            f"{len(_minimally_degenerate_triples())} triples + figure-8 split")


def test_criterion_06_index_preservation():
    cases = []
    for name, f, crit, chart, comp in _minimally_degenerate_triples():
        tau = construct_tau(f, crit, chart, TOLS, component=comp)
        cases.append((name, f, f.sub(tau), crit, chart, comp))
    f1 = field_1d_quadratic()
    crit1 = detect_critical_set(f1, TOLS.grad_tol)
    res = flatten(f1, 0.08, crit1, TOLS)
    cases.append(("interval-rho", f1, res.f_check, crit1,
                  SubmanifoldChart(axes=(), base=(16,)), 0))
    f2 = field_corner()
    crit2 = detect_critical_set(f2, TOLS.grad_tol)
    res2 = flatten(f2, 0.005, crit2, TOLS)
    cases.append(("corner-rho", f2, res2.f_check, crit2,
                  SubmanifoldChart(axes=(0, 1), base=(16, 16)), 0))
    for name, f, f_check, crit, chart, comp in cases:
        assert index_preserved(f, f_check, crit, chart, component=comp), name
    saddle = field_saddle()
    assert transverse_negative_index(
        saddle, (16, 16), SubmanifoldChart(axes=(0,), base=(16, 16)), 1e-6) == 1
    _report("index preservation", f"{len(cases)} fixtures, exact integer equality")


def test_criterion_07_spectral_sequence_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        fc, _ = random_filtered_complex(rng, max_gens=40)
        # every page and d_k rank must match the cycle/boundary definition;
        # oracle_page asserts internally that d_k lands at (p-k, q+k-1) and
        # squares to zero, so a violation raises
        for k in range(1, fc.max_filtration + 2):
            got, want = page(fc, k), oracle_page(fc, k)
            assert got.dims() == want.dims(), k
            assert differential_ranks(got) == oracle_differential_ranks(want), k
        _, einf = converge(fc)
        graded = einf.total_dims()
        oracle = naive_homology_dims(fc)
        for n in set(graded) | set(oracle):
            assert graded.get(n, 0) == oracle.get(n, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("spectral-sequence soundness",
            f"100 random complexes, every page against the oracle, in {elapsed:.1f}s")


def test_criterion_08_first_page_formula():
    for name, make in CATALOG_DESCRIPTORS.items():
        desc = make()
        fc = build_from_qmd(desc)
        expected = {}
        order = sorted(range(len(desc.pieces)),
                       key=lambda i: desc.pieces[i].action)
        for p, i in enumerate(order, start=1):
            piece = desc.pieces[i]
            for m, b in enumerate(piece.betti or ()):
                if b:
                    expected[(p, m + piece.iota - p)] = b
        if all(piece.betti is not None for piece in desc.pieces):
            assert page(fc, 1).dims() == expected, name
        actions = sorted(p.action for p in desc.pieces)
        cuts = [actions[0] + 1e-9, actions[len(actions) // 2] + 1e-9, float("inf")]
        assert directed_limit_check(desc, cuts), name
    _report("first-page formula",
            f"{len(CATALOG_DESCRIPTORS)} descriptors + directed limits")


def test_criterion_09_maslov_axioms():
    # the dedicated module tests run >=100 random pairs per axiom; this
    # criterion re-runs them as one gate
    from test_maslov import (test_additivity_under_concatenation,
                             test_constant_conjugation_invariance_rotation,
                             test_constant_intersection_dimension_vanishes,
                             test_conjugation_invariance_random,
                             test_endpoint_parity_relation,
                             test_index_shift_integrality_on_coherent_inputs,
                             test_reparameterization_invariance)
    test_additivity_under_concatenation()
    test_endpoint_parity_relation()
    test_constant_intersection_dimension_vanishes()
    test_reparameterization_invariance()
    test_constant_conjugation_invariance_rotation()
    test_conjugation_invariance_random()
    test_index_shift_integrality_on_coherent_inputs()
    _report("maslov axioms", "additivity, parity, vanishing, conjugation, "
                             "reparameterization, integer shift")


def test_criterion_10_isolation_scan():
    cases = []
    f = field_1d_quartic()
    crit = detect_critical_set(f, TOLS.grad_tol)
    cases.append(("quartic", f, tau_1d_quartic(), crit,
                  SubmanifoldChart(axes=(), base=(16,)), 0))
    f = field_saddle()
    crit = detect_critical_set(f, TOLS.grad_tol)
    cases.append(("saddle", f, tau_saddle(), crit,
                  SubmanifoldChart(axes=(0,), base=(16, 16)), 0))
    f = field_torus_height()
    crit = detect_critical_set(f, TOLS.grad_tol)
    _, i_min = torus_circle_indices()
    comp = next(i for i, c in enumerate(crit.components) if c.cells[i_min, 0])
    chart = SubmanifoldChart(axes=(0, 1), base=(0, 0))
    cases.append(("torus-min", f,
                  construct_tau(f, crit, chart, TOLS, component=comp),
                  crit, chart, comp))
    for name, f, tau, crit, chart, comp in cases:
        assert check_qmd(f, tau, crit, chart, TOLS, component=comp).passed, name
        report = isolation_scan(f, tau, crit, chart, steps=64, component=comp)
        assert report.isolated_on_scan, name
        assert report.t1_contained_in_chart, name
    _report("isolation scan", f"{len(cases)} pairs, 64 steps each")
