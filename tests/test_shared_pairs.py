"""One pair pass per crystal: an EquilibriumResult keeps its Coulomb z block
and pair distances, and every layer that reads them gives the same bits as
on the raw coordinates, which are computed afresh on each call."""

import dataclasses
import math

import numpy as np
import pytest

import cavitrap as cv
from cavitrap import cli
from cavitrap import equilibrium as eqm


@pytest.fixture(scope="module")
def crystals(bare_trap_100, species):
    return {n: cv.find_equilibria(n, bare_trap_100, species, n_restarts=2, seed=0)[0]
            for n in (2, 5, 30, 120)}


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except cv.CavitrapError as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 5, 30, 120])
def test_cached_pair_pass_is_bitwise_the_raw_one(n, crystals, bare_trap_100, species):
    eq = dataclasses.replace(crystals[n])  # a copy with nothing computed yet
    raw = eq.xy.copy()
    assert np.array_equal(eqm._coulomb_z(eq), cv.coulomb_z_block(raw))
    # the (N, N, 2) norm fit_beta used to build
    iu = np.triu_indices(n, 1)
    assert np.array_equal(
        eqm._pair_r(eq), np.linalg.norm(raw[:, None, :] - raw[None, :, :], axis=-1)[iu])
    assert np.array_equal(eqm._pair_r(eq), eqm._pair_r(raw))

    # find_alpha_tr reads the crystal's stability, so the reference is a
    # fresh copy per waist, each computing its own z block
    waists = [f * eq.r_max for f in (1.5, 3.0, 6.0)]
    points = [cv.find_alpha_tr(eq, bare_trap_100.with_waist(w0), species) for w0 in waists]
    for w0, point in zip(waists, points):
        fresh = cv.find_alpha_tr(dataclasses.replace(eq), bare_trap_100.with_waist(w0), species)
        assert point == fresh
    assert (cv.alpha_tr_uniform(eq, bare_trap_100, species)
            == cv.alpha_tr_uniform(raw, bare_trap_100, species))

    trap_w = bare_trap_100.with_waist(waists[-1])
    deep = trap_w.with_depth(cv.depth_for_aspect(trap_w, species, 1.1 * points[-1].alpha_tr))
    spectrum = cv.normal_modes(eq, deep, species)
    spectrum_raw = cv.normal_modes(raw, deep, species)
    assert np.array_equal(spectrum.omega_sq, spectrum_raw.omega_sq)
    assert np.array_equal(spectrum.vectors, spectrum_raw.vectors)

    # couplings falling as an irregular power of distance; N = 2 and the N = 5
    # ring have too few distinct distances, and must fail the same way
    rng = np.random.default_rng(n)
    r = np.linalg.norm(raw[:, None, :] - raw[None, :, :], axis=-1)
    np.fill_diagonal(r, 1.0)
    j = r**-2.5 * (1.0 + 0.1 * rng.random((n, n)))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    graph = cv.SpinGraph(j=j, af_fraction=1.0)
    assert _same(_outcome(cv.fit_beta, graph, eq), _outcome(cv.fit_beta, graph, raw))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(eqm, name)

    def counted(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(eqm, name, counted)
    return calls


def test_waist_rule_and_modes_run_one_z_block(crystals, bare_trap_100, species, monkeypatch):
    eq = dataclasses.replace(crystals[30])
    calls = _count_calls(monkeypatch, "coulomb_z_block")
    w0 = cli._select_waist(eq, bare_trap_100, species)
    trap_w = bare_trap_100.with_waist(w0)
    alpha = cv.find_alpha_tr(eq, trap_w, species).alpha_tr
    cv.normal_modes(eq, trap_w.with_depth(cv.depth_for_aspect(trap_w, species, 1.1 * alpha)),
                    species)
    assert len(calls) == 1


def test_beta_sweep_runs_one_pair_pass(crystals, bare_trap_100, species, monkeypatch):
    eq = dataclasses.replace(crystals[30])
    trap = bare_trap_100.with_depth(cv.depth_for_aspect(bare_trap_100, species, 4.0))
    spectrum = cv.normal_modes(eq, trap, species)
    z_max = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    drive = cv.uniform_drive(30, 1.1 * z_max, 2.0 * math.pi * 50e3,
                             cv.photon_recoil(355e-9, species))
    calls = _count_calls(monkeypatch, "_pair_distances")
    records = cv.beta_sweep(spectrum, eq, [f * z_max for f in (1.01, 1.1, 1.5, 2.0, 10.0)],
                            drive)
    assert [rec["error"] for rec in records] == [None] * 5
    assert len(calls) == 1


def test_crystal_arrays_are_read_only(crystals):
    eq = crystals[5]
    for array in (eq.positions, eq.xy, eqm._coulomb_z(eq), eqm._pair_r(eq)):
        with pytest.raises(ValueError):
            array[0] = 1.0
    # positions is a copy: the caller's array stays the caller's
    coords = eq.positions.copy()
    copy = dataclasses.replace(eq, positions=coords)
    coords[0] += 1.0
    assert copy.positions[0] == eq.positions[0]
