"""Document formats and CSV writers round-trip losslessly."""

import json
import math

import numpy as np
import pytest

from kamconj import ConfigError, PeriodicField, TorusMapLift, convex_hull
from kamconj.io import (
    SCHEMA_VERSION,
    TRACE_HEADER,
    _coeffs_to_doc,
    chain_from_doc,
    chain_to_doc,
    hull_to_csv,
    load_chain,
    load_json,
    load_map,
    map_from_doc,
    map_to_doc,
    save_chain,
    save_map,
    trace_to_csv,
)

from conftest import GOLDEN, seeded_field

# values with no short decimal representation
AWKWARD = [0.1 + 0.2, 1.0 / 3.0, math.pi * 1e-17, -0.0, 5e-324]


def field_map(u: PeriodicField) -> TorusMapLift:
    """The map at rho = 0 whose every displacement component is u, its mean folded into rho."""
    return TorusMapLift(np.zeros(u.dim), (u,) * u.dim)


def same_map(a: TorusMapLift, b: TorusMapLift) -> bool:
    return a.rho.tobytes() == b.rho.tobytes() and all(
        x.degree == y.degree and x.coeffs.tobytes() == y.coeffs.tobytes()
        for x, y in zip(a.displacement, b.displacement)
    )


class TestFieldDocs:
    """A field's coefficient list, as each displacement component of a map document carries it."""

    def test_round_trip_exact(self):
        f = field_map(seeded_field(2, 3, 1.0, seed=100))
        assert same_map(map_from_doc(map_to_doc(f)), f)

    def test_awkward_floats_survive_json(self):
        entries = [((k + 1,), complex(v, -v)) for k, v in enumerate(AWKWARD[:3])]
        f = field_map(PeriodicField.from_entries(1, 3, entries))
        text = json.dumps(map_to_doc(f))
        assert same_map(map_from_doc(json.loads(text)), f)

    def test_doc_shape(self):
        doc = map_to_doc(field_map(PeriodicField.from_entries(1, 1, [((1,), 0.5j)])))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "torus_map"
        assert doc["coeffs"] == [[[[1], 0.0, 0.5]]]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_doc_holds_the_mean_and_the_half_spectrum(self, dim):
        f = seeded_field(dim, 4, 1.0, seed=119) + 0.25
        half = [[list(k), c.real, c.imag] for k, c in f.entries() if k >= (0,) * dim]
        assert half[0] == [[0] * dim, 0.25, 0.0]
        assert _coeffs_to_doc(f) == half
        assert _coeffs_to_doc(f - 0.25) == half[1:]
        # a map's components are written zero-mean; a listed mean loads into rho
        doc = map_to_doc(field_map(f))
        assert doc["coeffs"] == [half[1:]] * dim and doc["rho"] == [0.25] * dim
        doc["coeffs"], doc["rho"] = [half] * dim, [0.0] * dim
        assert same_map(map_from_doc(doc), field_map(f))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_save_load_save_is_byte_identical(self, tmp_path, dim):
        # signed zeros, an (even) subnormal and the awkward floats
        values = [complex(AWKWARD[0], -0.0), complex(-0.0, AWKWARD[1]),
                  complex(AWKWARD[2], AWKWARD[3]), complex(8 * AWKWARD[4], -AWKWARD[0])]
        ks = [(1,), (2,), (3,), (4,)] if dim == 1 else [(0, 1), (1, -2), (1, 1), (2, 2)]
        u = PeriodicField.from_entries(dim, 4, zip(ks, values))
        assert [u.coefficient(k) for k in ks] == values
        f = TorusMapLift(np.full(dim, 0.75), (u,) * dim)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_map(f, first)
        g = load_map(first)
        save_map(g, second)
        assert same_map(g, f)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "coeffs, match",
        [
            ([[[1, 0], 1.0, 2.0], [[-1, 0], 5.0, 0.0]], "Hermitian"),
            ([[[2, 1], 1.0, 0.0]], "ball"),
            ([[[1, 0, 0], 1.0, 0.0]], "dimension"),
        ],
    )
    def test_bad_spectrum_rejected(self, coeffs, match):
        doc = {"schema_version": SCHEMA_VERSION, "kind": "torus_map", "dim": 2, "degree": 2,
               "rho": [0.0, 0.0], "coeffs": [coeffs, []]}
        with pytest.raises(ConfigError, match=match):
            map_from_doc(doc)

    def test_schema_version_enforced(self):
        doc = map_to_doc(field_map(PeriodicField.zeros(1, 1)))
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            map_from_doc(doc)

    def test_kind_mismatch_rejected(self):
        doc = map_to_doc(field_map(PeriodicField.zeros(1, 1)))
        doc["kind"] = "field"  # no longer a document kind
        with pytest.raises(ConfigError, match="kind"):
            map_from_doc(doc)

    def test_missing_kind_tolerated(self):
        f = field_map(seeded_field(1, 2, 1.0, seed=101))
        doc = map_to_doc(f)
        del doc["kind"]
        assert same_map(map_from_doc(doc), f)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            map_from_doc([1, 2])


class TestMapDocs:
    def test_round_trip_exact(self, tmp_path):
        u = (seeded_field(2, 2, 0.01, seed=102), seeded_field(2, 2, 0.01, seed=103))
        f = TorusMapLift(np.array([GOLDEN, 1.0 / 7.0]), u)
        path = tmp_path / "map.json"
        save_map(f, path)
        g = load_map(path)
        assert np.array_equal(g.rho, f.rho)
        for a, b in zip(g.displacement, f.displacement):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_box_past_the_live_shell_round_trips(self, tmp_path):
        # the box keeps the nominal band 48; only the live shell (radius 5) is written
        u = tuple(seeded_field(2, 5, 0.01, seed=s) for s in (110, 111))
        f = TorusMapLift(np.array([GOLDEN, 0.2]), tuple(PeriodicField(2, 48, c._embed(48)) for c in u))
        assert (f.degree, f.live_degree) == (48, 5)
        path = tmp_path / "map.json"
        save_map(f, path)
        g = load_map(path)
        assert (g.degree, g.live_degree) == (48, 5)
        for a, b in zip(g.displacement, f.displacement):
            assert np.array_equal(a.coeffs, b.coeffs)
        written = json.loads(path.read_text())["coeffs"]
        for comp, c in zip(written, u):
            flat = c.coeffs.ravel()
            assert len(comp) == np.count_nonzero(flat[flat.size // 2:])
            assert max(abs(k1) + abs(k2) for (k1, k2), _, _ in comp) == 5

    def test_component_count_checked(self):
        f = TorusMapLift(np.array([0.1]), (seeded_field(1, 2, 0.1, seed=104),))
        doc = map_to_doc(f)
        doc["dim"] = 2
        with pytest.raises(ConfigError, match="component"):
            map_from_doc(doc)

    def test_one_coefficient_list_per_component(self):
        u = (seeded_field(2, 2, 0.01, seed=105), seeded_field(2, 2, 0.01, seed=106))
        doc = map_to_doc(TorusMapLift(np.zeros(2), u))
        assert len(doc["coeffs"]) == 2
        assert doc["kind"] == "torus_map"

    def test_indented_file_loads_identically(self, tmp_path):
        # maps written before output went compact used json.dump(doc, fh, indent=1)
        u = (seeded_field(2, 3, 0.01, seed=111), seeded_field(2, 3, 0.01, seed=112))
        f = TorusMapLift(np.array([AWKWARD[0], AWKWARD[1]]), u)
        path = tmp_path / "indented.json"
        with open(path, "w") as fh:
            json.dump(map_to_doc(f), fh, indent=1)
            fh.write("\n")
        g = load_map(path)
        assert np.array_equal(g.rho, f.rho)
        for a, b in zip(g.displacement, f.displacement):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        u = (seeded_field(2, 3, 0.01, seed=113), seeded_field(2, 3, 0.01, seed=114))
        f = TorusMapLift(np.array([GOLDEN, AWKWARD[2]]), u)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_map(f, first)
        save_map(load_map(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert b"\n " not in first.read_bytes()  # compact: one line

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        f = TorusMapLift(np.array([0.1]), (seeded_field(1, 2, 0.01, seed=115),))
        doc = map_to_doc(f)
        doc["coeffs"][0][0][1] = float(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert bad in path.read_text()
        with pytest.raises(ConfigError, match="finite"):
            load_map(path)
        doc = map_to_doc(f)
        doc["rho"] = [float(bad)]
        with pytest.raises(ConfigError, match="finite"):
            map_from_doc(doc)
        doc = map_to_doc(f)
        doc["coeffs"][0][0][2] = float(bad)
        with pytest.raises(ConfigError, match="finite"):
            map_from_doc(doc)

    def test_awkward_rho_round_trips(self, tmp_path):
        f = TorusMapLift(np.array([AWKWARD[0]]), (seeded_field(1, 1, 0.01, seed=107),))
        path = tmp_path / "awkward.json"
        save_map(f, path)
        assert load_map(path).rho[0] == f.rho[0]


class TestChainDocs:
    def test_round_trip(self, tmp_path):
        chain = [
            TorusMapLift(np.zeros(1), (seeded_field(1, 2, 0.01, seed=s),))
            for s in (108, 109)
        ]
        composed = TorusMapLift(np.zeros(1), (seeded_field(1, 3, 0.02, seed=110),))
        path = tmp_path / "chain.json"
        save_chain(chain, [GOLDEN], path, composed)
        loaded, alpha, loaded_comp = load_chain(path)
        assert alpha[0] == GOLDEN
        assert len(loaded) == 2
        for a, b in zip(loaded, chain):
            assert np.array_equal(a.displacement[0].coeffs, b.displacement[0].coeffs)
        assert np.array_equal(
            loaded_comp.displacement[0].coeffs, composed.displacement[0].coeffs
        )

    def test_save_load_save_is_byte_identical(self, tmp_path):
        chain = [TorusMapLift(np.zeros(2), (seeded_field(2, 2, 0.01, seed=s),) * 2) for s in (116, 117)]
        composed = TorusMapLift(np.array([AWKWARD[1], 0.0]), (seeded_field(2, 4, 0.02, seed=118),) * 2)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_chain(chain, [GOLDEN, AWKWARD[0]], first, composed)
        loaded, alpha, loaded_comp = load_chain(first)
        save_chain(loaded, alpha, second, loaded_comp)
        assert first.read_bytes() == second.read_bytes()

    def test_composed_optional(self):
        doc = chain_to_doc([], [0.5])
        assert "composed" not in doc
        chain, alpha, composed = chain_from_doc(doc)
        assert chain == [] and composed is None


def full_spectrum(u: PeriodicField) -> list:
    """A coefficient list as earlier versions wrote it: every nonzero entry, both halves."""
    return [[list(k), c.real, c.imag] for k, c in u.entries()]


def seeded_map(dim: int, seed: int) -> TorusMapLift:
    u = tuple(seeded_field(dim, 3, 0.01, seed=seed + i) for i in range(dim))
    return TorusMapLift(np.array([GOLDEN, AWKWARD[1]][:dim]), u)


class TestFullSpectrumDocs:
    @pytest.mark.parametrize("indent", [None, 1])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_loads_bit_identical(self, tmp_path, dim, indent):
        def reread(doc):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc, indent=indent) + "\n")
            return load_json(path)

        def full_map_doc(f):
            doc = map_to_doc(f)
            doc["coeffs"] = [full_spectrum(u) for u in f.displacement]
            return doc

        # a full list with a mean, which loads into rho
        field = seeded_field(dim, 3, 1.0, seed=125) + 0.5
        doc = map_to_doc(field_map(field))
        doc["coeffs"], doc["rho"] = [full_spectrum(field)] * dim, [0.0] * dim
        assert len(doc["coeffs"][0]) == np.count_nonzero(field.coeffs)
        assert same_map(map_from_doc(reread(doc)), field_map(field))

        f = seeded_map(dim, 126)
        assert same_map(map_from_doc(reread(full_map_doc(f))), f)

        steps = [seeded_map(dim, 130), seeded_map(dim, 132)]
        doc = chain_to_doc([], [GOLDEN, AWKWARD[0]][:dim])
        doc["steps"] = [full_map_doc(phi) for phi in steps]
        doc["composed"] = full_map_doc(f)
        chain, _, composed = chain_from_doc(reread(doc))
        assert all(same_map(a, b) for a, b in zip(chain, steps)) and same_map(composed, f)


# one malformed edit of a 2D map document per case, and the message it must give
SPOILED = {
    "missing rho": (lambda d: d.pop("rho"), "missing key 'rho'"),
    "scalar k in 2D": (lambda d: d["coeffs"][0].append([1, 0.1, 0.0]), "dimension"),
    "string value": (lambda d: d["coeffs"][0][0].__setitem__(1, "x"), "numbers"),
    "scalar rho": (lambda d: d.__setitem__("rho", 0.5), "not iterable"),
}


def _set_k(value):
    """An edit that makes the first frequency of the first coefficient list [value]."""
    return lambda d: d["coeffs"][0][0].__setitem__(0, [value])


# one edit of a 1D map document per number a run config refuses, and the message it must give
LOOSE = {
    "frequency 1.5": (_set_k(1.5), "frequency component 1.5 is not an integer"),
    "frequency 1.9999": (_set_k(1.9999), "frequency component 1.9999 is not an integer"),
    "frequency true": (_set_k(True), "frequencies must be integer tuples matching dimension 1"),
    "frequency string": (_set_k("1"), "frequencies must be integer tuples matching dimension 1"),
    "degree 2.7": (lambda d: d.__setitem__("degree", 2.7), "expected an integer, got 2.7 in degree"),
    "dim 1.5": (lambda d: d.__setitem__("dim", 1.5), "expected an integer, got 1.5 in dim"),
    "dim true": (lambda d: d.__setitem__("dim", True), "expected an integer, got True in dim"),
    "rho true": (lambda d: d.__setitem__("rho", [True]), "rho must be numbers"),
    "value true": (lambda d: d["coeffs"][0][0].__setitem__(1, True), "coefficient values must be numbers"),
}


# one edit of a 1D chain document, with a step and a composed map, per field that must match its dim
_ALPHA_DIM = "alpha must be dim finite numbers, dim 1 or 2"
CHAIN_SPOILED = {
    "alpha of two": (lambda d: d.__setitem__("alpha", [0.1, 0.2]), f"{_ALPHA_DIM}, got [0.1, 0.2] and dim 1"),
    "alpha inf": (lambda d: d.__setitem__("alpha", [math.inf]), f"{_ALPHA_DIM}, got [inf] and dim 1"),
    "alpha empty": (lambda d: d.__setitem__("alpha", []), f"{_ALPHA_DIM}, got [] and dim 1"),
    "2D step": (lambda d: d["steps"].append(map_to_doc(seeded_map(2, 153))), "a map in steps does not match dim = 1"),
    "2D composed": (lambda d: d.__setitem__("composed", map_to_doc(seeded_map(2, 154))),
                    "a map in composed does not match dim = 1"),
    "dim 3": (lambda d: d.update(dim=3, alpha=[0.1, 0.2, 0.3]), f"{_ALPHA_DIM}, got [0.1, 0.2, 0.3] and dim 3"),
    "dim missing": (lambda d: d.pop("dim"), "missing key 'dim'"),
}


class TestMalformedDocs:
    @pytest.mark.parametrize("case", sorted(SPOILED))
    def test_map_and_chain(self, case):
        spoil, match = SPOILED[case]
        doc = map_to_doc(seeded_map(2, 140))
        spoil(doc)
        with pytest.raises(ConfigError, match=f"invalid map document: .*{match}"):
            map_from_doc(doc)
        chain = chain_to_doc([], [GOLDEN, 0.3])
        chain["steps"] = [doc]
        with pytest.raises(ConfigError, match="invalid map document"):
            chain_from_doc(chain)

    @pytest.mark.parametrize("case", ["scalar k in 2D", "string value"])
    def test_field(self, case):
        # a spoiled coefficient list is named by the map document that carries it
        spoil, match = SPOILED[case]
        doc = map_to_doc(seeded_map(2, 142))
        spoil(doc)
        with pytest.raises(ConfigError, match=f"invalid map document: .*{match}"):
            map_from_doc(doc)
        del doc["coeffs"]
        with pytest.raises(ConfigError, match="invalid map document: missing key 'coeffs'"):
            map_from_doc(doc)

    @pytest.mark.parametrize("case", sorted(LOOSE))
    def test_a_number_a_config_refuses(self, case):
        spoil, match = LOOSE[case]
        doc = map_to_doc(seeded_map(1, 150))
        spoil(doc)
        with pytest.raises(ConfigError, match=f"^invalid map document: {match}$"):
            map_from_doc(doc)

    def test_integral_floats_read_as_integers(self):
        doc = map_to_doc(seeded_map(1, 150))
        doc["dim"], doc["degree"] = 1.0, 3.0
        for entry in doc["coeffs"][0]:
            entry[0] = [float(entry[0][0])]
        f = map_from_doc(doc)
        assert same_map(f, seeded_map(1, 150)) and type(f.degree) is int

    def test_chain_alpha_refuses_a_bool(self):
        doc = chain_to_doc([], [GOLDEN])
        doc["alpha"] = [True]
        with pytest.raises(ConfigError, match="^invalid chain document: alpha must be numbers$"):
            chain_from_doc(doc)

    @pytest.mark.parametrize("case", sorted(CHAIN_SPOILED))
    def test_chain_fields_match_its_dim(self, case):
        # each of these once loaded: the chain's dim was written and never read
        spoil, message = CHAIN_SPOILED[case]
        doc = chain_to_doc([seeded_map(1, 151)], [GOLDEN], composed=seeded_map(1, 152))
        spoil(doc)
        with pytest.raises(ConfigError) as info:
            chain_from_doc(doc)
        assert str(info.value) == f"invalid chain document: {message}"

    # the first degree past the 2**24-coefficient box in each dimension, and negative ones
    @pytest.mark.parametrize("dim, degree", [(1, 2 ** 23), (2, 2048), (2, 10 ** 6), (1, -1), (2, -3)])
    def test_box_is_checked_before_it_is_allocated(self, dim, degree):
        doc = map_to_doc(seeded_map(dim, 144))
        doc["degree"] = degree
        match = f"degree {degree} is negative or gives a box of more than 2\\*\\*24"
        with pytest.raises(ConfigError, match=f"invalid map document: {match}"):
            map_from_doc(doc)
        chain = chain_to_doc([], [GOLDEN, 0.3][:dim])
        chain["steps"] = [doc]
        with pytest.raises(ConfigError, match=f"invalid map document: {match}"):
            chain_from_doc(chain)

    def test_chain_keys(self):
        doc = chain_to_doc([seeded_map(1, 143)], [GOLDEN])
        doc["alpha"] = GOLDEN
        with pytest.raises(ConfigError, match="invalid chain document"):
            chain_from_doc(doc)
        del doc["steps"]
        with pytest.raises(ConfigError, match="invalid chain document: missing key 'steps'"):
            chain_from_doc(doc)


class TestTraceCsv:
    def test_golden_output(self, tmp_path):
        rows = [
            (1, 8, 0.01, 2.5, 1e-12, 2e-12, 1e-24, 1e16, 0.003, 1),
            (2, 23, 1.0 / 3.0, 0.1, 0.0, 0.0, 1e-36, 1e24, 0.0001, 0),
        ]
        path = tmp_path / "trace.csv"
        trace_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == "1,8,0.01,2.5,1e-12,2e-12,1e-24,1e+16,0.003,1"
        assert lines[2] == "2,23,0.3333333333333333,0.1,0.0,0.0,1e-36,1e+24,0.0001,0"

    def test_floats_parse_back_exactly(self, tmp_path):
        rows = [(1, 8, *AWKWARD[:3], 0.0, 0.0, 0.0, 0.0, 1)]
        path = tmp_path / "trace.csv"
        trace_to_csv(rows, path)
        cells = path.read_text().splitlines()[1].split(",")
        assert float(cells[2]) == AWKWARD[0]
        assert float(cells[3]) == AWKWARD[1]
        assert float(cells[4]) == AWKWARD[2]

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        trace_to_csv([], path)
        assert path.read_text() == TRACE_HEADER + "\n"


class TestHullCsv:
    def test_1d(self, tmp_path):
        hull = convex_hull([[0.25], [0.75]])
        path = tmp_path / "hull.csv"
        hull_to_csv(hull, path)
        assert path.read_text() == "x1\n0.25\n0.75\n"

    def test_2d(self, tmp_path):
        hull = convex_hull([[0, 0], [1, 0], [0, 1]])
        path = tmp_path / "hull2.csv"
        hull_to_csv(hull, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 4
