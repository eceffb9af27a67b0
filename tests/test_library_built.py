"""What the library builds from checked parts is not checked again.

These tests rebuild each such output through the public, checking
constructors: every rebuild must pass and store the same array.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fermibundle.bundles import Bundle, double_bundle, make_sphere_grid
from fermibundle.nambu import CliffordSet, Generator, _unchecked, make_nambu
from fermibundle.planes import Plane
from fermibundle.suspension import (_diii_equator_frame, example_dIII,
                                    example_kitaev_chain)
from fermibundle.symmetry import (CLASS_TABLE, double_one_one,
                                  imaginary_realization, kitaev_generators)

_WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
              / "workloads.py")


def _assert_same_stored_array(rebuilt, built):
    assert rebuilt.dtype == built.dtype == complex
    assert rebuilt.shape == built.shape
    assert rebuilt.tobytes() == built.tobytes()
    for a in (rebuilt, built):
        assert a.flags.c_contiguous and not a.flags.writeable


def _assert_generators_rebuild(cset):
    for g in cset.generators:
        _assert_same_stored_array(Generator(g.matrix, g.parity).matrix,
                                  g.matrix)


def _sets():
    """(id, Clifford set) of every class at its smallest admissible n and
    at twice that n, and of both imaginary realizations at n = 1 and 2."""
    for label, info in CLASS_TABLE.items():
        for n in (info.n_multiple, 2 * info.n_multiple):
            yield f"{label}-n{n}", lambda n=n, label=label: kitaev_generators(
                make_nambu(n), label)
    for label in ("BDI", "AI"):
        for n in (1, 2):
            yield f"imaginary-{label}-n{n}", lambda n=n, label=label: (
                imaginary_realization(make_nambu(n), label))


_SETS = dict(_sets())


@pytest.mark.parametrize("make", _SETS.values(), ids=list(_SETS))
def test_library_generators_pass_the_generator_checks(make):
    cset = make()
    _assert_generators_rebuild(cset)
    doubled, big = double_one_one(cset.space, cset)
    assert len(big) == len(cset) + 2
    _assert_generators_rebuild(big)


def test_example_diii_generators_pass_the_generator_checks():
    _assert_generators_rebuild(example_dIII(8).cset)


@pytest.mark.parametrize("N", [2, 4, 16, 64, 256])
def test_the_diii_equator_passes_the_bundle_checks(N):
    sp = make_nambu(2)
    grid = make_sphere_grid(1, N)
    frames = _diii_equator_frame(grid.points[:, 0])
    cset = CliffordSet(sp, ())
    b = Bundle(sp, cset, grid, frames, "D")
    np.testing.assert_array_equal(b.frames, frames)


def _circles():
    spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3, 4, 5):
        for gauge in (True, False):
            _, diii, chain = workloads.seeded_circles(seed, gauge)
            tag = f"seed{seed}{'' if gauge else '-plain'}"
            yield f"{tag}/diii", diii
            yield f"{tag}/chain", chain
    for n_plus in (0, 3, 8):
        yield f"chain8-{n_plus}", example_kitaev_chain(8, n_plus, N=128)


def test_doubled_bundles_pass_the_bundle_checks():
    names = []
    for name, b in _circles():
        d = double_bundle(b)
        rebuilt = Bundle(d.space, d.cset, d.grid, d.frames, d.label)
        _assert_same_stored_array(rebuilt.frames, d.frames)
        _assert_generators_rebuild(d.cset)
        names.append(name)
    assert len(names) == 23


def test_unchecked_sets_the_fields_and_runs_no_check():
    sp = make_nambu(1)
    skew = np.ones((2, 1), dtype=complex)
    skew.setflags(write=False)
    A = _unchecked(Plane, sp, skew)
    assert A.space is sp and A.frame is skew
    with pytest.raises(ValueError):     # every field must be given
        _unchecked(Plane, sp)
