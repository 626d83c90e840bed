import json
from fractions import Fraction

import pytest

from plattice import cli, cusps, tree
from plattice.arith import gamma0_index
from plattice.cusps import cusps_of_gamma0
from plattice.descriptors import GroupDescriptor, width_at_infinity
from plattice.lattice import L1, act
from plattice.tree import hypercircle

from .helpers import (
    cusp_count,
    cusp_report_from_json,
    lattice,
    orbit_cusp_outputs,
    printed_json,
    scanned_width_at_infinity,
    translation,
    translation_orbits,
)
from .test_groupsys import CATALOG_48


class TestWidthAtInfinity:
    def test_modular_group(self):
        assert width_at_infinity(GroupDescriptor.gamma0(1)) == (1, 1)

    def test_scaled_base_group(self):
        assert width_at_infinity(GroupDescriptor(2, 4)) == (1, 2)

    def test_doubled_kernel_has_width_one(self):
        assert width_at_infinity(GroupDescriptor.kernel(2, 4, {2})) == (1, 1)

    def test_three_kernel_has_width_one(self):
        assert width_at_infinity(GroupDescriptor.kernel(3, 3)) == (1, 1)

    def test_gamma0_always_one(self):
        for n in range(1, 31):
            assert width_at_infinity(GroupDescriptor.gamma0(n)) == (1, 1)

    def test_closed_form_matches_the_shear_scan(self):
        assert len(CATALOG_48) == 395
        for desc in CATALOG_48:
            assert width_at_infinity(desc) == scanned_width_at_infinity(desc), desc.display


class TestGamma0Cusps:
    def test_level_one(self):
        report = cusps_of_gamma0(1)
        assert len(report.cusps) == 1
        assert report.total_width == 1

    def test_level_nine(self):
        report = cusps_of_gamma0(9)
        widths = sorted(w for _, w in report.cusps)
        assert widths == [1, 1, 1, 9]
        assert len(report.cusps) == 4
        assert report.total_width == 12

    def test_level_four(self):
        report = cusps_of_gamma0(4)
        widths = sorted(w for _, w in report.cusps)
        assert widths == [1, 1, 4]

    def test_width_sum_is_index(self):
        for n in range(1, 31):
            assert cusps_of_gamma0(n).total_width == gamma0_index(n)

    def test_infinity_and_zero_cusps(self):
        # the orbit of L_n is the width-1 infinity cusp; the orbit through
        # L_{1/n} has size n (the zero cusp)
        for n in range(2, 31):
            for cusp in printed_json(cusps_of_gamma0(n).to_json())["cusps"]:
                if str(lattice(n)) in cusp["orbit"]:
                    assert cusp["width"] == "1"
                if str(lattice(Fraction(1, n))) in cusp["orbit"]:
                    assert cusp["width"] == str(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cusps_of_gamma0(0)


class TestCuspCount:
    def test_single_point(self):
        assert cusp_count(GroupDescriptor.gamma0(1), [L1]) == 1

    def test_level_two(self):
        assert cusp_count(GroupDescriptor.gamma0(1), hypercircle(L1, 2).members) == 2

    def test_level_six(self):
        assert cusp_count(GroupDescriptor.gamma0(1), hypercircle(L1, 6).members) == 4


def matrix_orbits(points, amount: Fraction) -> list[tuple]:
    """Shear orbits by the matrix action, as found before the closed form."""
    shear = translation(amount)
    remaining = sorted(points)
    orbits = []
    while remaining:
        start = remaining[0]
        orbit = [start]
        cur = act(start, shear)
        while cur != start:
            orbit.append(cur)
            cur = act(cur, shear)
        orbits.append(tuple(orbit))
        taken = set(orbit)
        remaining = [x for x in remaining if x not in taken]
    return orbits


class TestOrbits:
    def test_orbit_partition(self):
        points = hypercircle(L1, 12).members
        orbits = translation_orbits(points, Fraction(1))
        flat = [x for orbit in orbits for x in orbit]
        assert sorted(flat) == sorted(points)

    def test_json_shape(self):
        data = printed_json(cusps_of_gamma0(6).to_json())
        assert data["group"]["display"] == "6"
        assert len(data["cusps"]) == 4

    def test_json_round_trip(self):
        assert cusps_of_gamma0(9).level == 9
        for n in range(1, 61):
            report = cusps_of_gamma0(n)
            assert cusp_report_from_json(printed_json(report.to_json())) == report

    @pytest.mark.parametrize(
        "amount", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(3)], ids=str
    )
    def test_closed_form_matches_matrix_action(self, amount):
        for n in range(1, 201):
            points = hypercircle(L1, n).members
            assert translation_orbits(points, amount) == matrix_orbits(points, amount)
        points = hypercircle(lattice(Fraction(2, 3), Fraction(1, 5)), 12).members
        assert translation_orbits(points, amount) == matrix_orbits(points, amount)


class TestClosedForm:
    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_command_prints_the_walked_report(self, capsys, fmt):
        for n in range(1, 401):
            assert cli.main(["cusps", str(n), "--format", fmt]) == 0
            text, payload = orbit_cusp_outputs(n)
            if fmt == "json":
                text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert capsys.readouterr().out == text, n

    @pytest.mark.parametrize("fmt", ["text", "dot", "json"])
    def test_command_walks_no_hypercircle(self, capsys, monkeypatch, fmt):
        def refuse(*args):
            raise AssertionError("the hypercircle was built")

        monkeypatch.setattr(tree, "hypercircle", refuse)
        monkeypatch.setattr(tree.HyperCircle, "__iter__", refuse)
        if fmt != "json":
            # text and DOT print representatives and widths alone
            monkeypatch.setattr(cusps, "name_text", refuse)
        assert cli.main(["cusps", "3218", "--format", fmt]) == 0
        assert capsys.readouterr().out.endswith("cusps: 4  total width: 4830\n" if fmt != "json" else "}\n")
