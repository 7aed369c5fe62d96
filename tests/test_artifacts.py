import csv
import io
import json
import warnings

import numpy as np
import pytest

from tanhom.artifacts import BLOCK_ROWS, read_csv, write_columns, write_json
from tanhom.cell import CellProblemSpec, CorrectorField, solve_cell, write_corrector_csv
from tanhom.density import CoefficientLattice, DensityTable, TfOptions, build_density_table
from tanhom.errors import MalformedArtifact, ShapeMismatch
from tanhom.manifold import circle_point

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize(
    "text",
    ["", "a,b\n1,2\n3\n", "a,b\n1,2\n3,x\n", "a,b\n1,2#\n", "a,b\n1,2,3\n4,5,6\n"],
    ids=["empty", "short-row", "non-numeric", "hash-cell", "rows-wider-than-header"],
)
def test_read_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MalformedArtifact):
        read_csv(path)


@pytest.mark.parametrize("text", ["a,b,c\n", "a,b,c\n\n\n"], ids=["header-only", "blank-lines"])
def test_read_csv_header_only(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        header, data = read_csv(path)
    assert header == ["a", "b", "c"]
    assert data.shape == (0, 3)


def test_empty_lattice_table_round_trips(tmp_path, s1, laminate1):
    table = build_density_table(
        laminate1, s1, 4, CoefficientLattice(-1.0, 1.0, 0), TfOptions(t_list=(1,), n=16)
    )
    first = (tmp_path / "table.csv", tmp_path / "table.json")
    again = (tmp_path / "table2.csv", tmp_path / "table2.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table.save(*first)
        DensityTable.load(*first).save(*again)
    assert first[0].read_text() == "s0,s1,z0,value,converged\n"
    assert first[0].read_bytes() == again[0].read_bytes()
    assert first[1].read_bytes() == again[1].read_bytes()


def bits(pattern: int) -> float:
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


# Both zeros, NaNs of both signs and with a non-default payload, both
# infinities, the smallest subnormal, and short beside 17-digit texts.
EDGES = [0.0, -0.0, np.nan, -np.nan, bits(0x7FF8_0000_0000_0123), bits(0xFFF0_0000_0000_0001)]
EDGES += [np.inf, -np.inf, 5e-324, 2.0, 0.5, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_write_columns_matches_per_value_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = np.resize(np.array(SPECIAL), rows)
    edges = rng.choice(np.array(EDGES), rows)
    spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    repeated = np.full(rows, -1.0 / 7.0)
    ints = np.arange(rows) - rows // 2
    small = rng.integers(-(2**31), 2**31, rows, dtype=np.int32)
    flags = rng.random(rows) < 0.5
    # Int columns with a range wider than the column, negative, at the int64
    # and uint64 extremes, and int8 over its full range (offsets wrap in int8).
    wide = np.resize(np.array([0, 10**6]), rows)
    negative = -(np.arange(rows) % 5) - 3
    int64 = np.iinfo(np.int64)
    extremes = np.resize(np.array([int64.min, int64.max, -1, 0]), rows)
    near_min = int64.min + np.arange(rows) % 3
    huge = np.resize(np.array([2**63, 2**64 - 1, 2**63 + 5], dtype=np.uint64), rows)
    top = np.resize(np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64), rows)
    int8 = np.resize(np.arange(-128, 128).astype(np.int8), rows)
    int32 = (np.arange(rows) % 3 - 1).astype(np.int32)
    one_flag = np.ones(rows, dtype=bool)
    columns = [special, edges, spread, repeated, ints, small, flags, wide, negative, extremes]
    columns += [near_min, huge, top, int8, int32, one_flag]
    names = [f"x{k}" for k in range(len(columns))]
    path = tmp_path / "cols.csv"
    write_columns(path, names, columns)

    expected = [",".join(names)] + [
        ",".join(
            [f"{col[r]:.17g}" for col in columns[:4]] + [f"{int(col[r])}" for col in columns[4:]]
        )
        for r in range(rows)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
    header, data = read_csv(path)
    assert header == names and data.shape == (rows, len(columns))
    for col, ref in zip(data.T, columns):
        np.testing.assert_array_equal(col, ref.astype(float))
    signed = np.stack([special, edges], axis=1)
    numbers = ~np.isnan(signed)  # "%.17g" writes every NaN as "nan"
    assert np.array_equal(np.signbit(data[:, :2])[numbers], np.signbit(signed)[numbers])


@pytest.mark.parametrize(
    "header, columns",
    [
        (["f", "i"], [np.zeros(5), np.arange(3)]),
        (["a", "b", "c"], [np.zeros(2), np.arange(2)]),
        (["m"], [np.zeros((2, 3))]),
    ],
    ids=["ragged-lengths", "header-wider-than-columns", "2d-column"],
)
def test_write_columns_rejects_malformed_columns(tmp_path, header, columns):
    path = tmp_path / "bad.csv"
    with pytest.raises(ShapeMismatch):
        write_columns(path, header, columns)
    assert not path.exists()


def per_node_corrector_csv(phi) -> str:
    """The corrector dump as the per-node generator through ``csv.writer`` wrote it."""
    m = phi.coeffs.shape[0]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"i{k}" for k in range(phi.ndim)] + [f"c{k}" for k in range(m)])
    writer.writerows(
        [str(i) for i in idx] + [f"{phi.coeffs[(ch,) + idx]:.17g}" for ch in range(m)]
        for idx in np.ndindex(phi.coeffs.shape[1:])
    )
    return out.getvalue()


def test_corrector_csv_matches_per_node_writer(tmp_path, s1, laminate2):
    s = circle_point(0.7)
    xi = s1.tangent_from_coeffs(s, np.array([[0.4, -1.3]]))
    for n, boundary, nodes in [(8, "dirichlet0", (9, 9)), (64, "periodic", (64, 64))]:
        spec = CellProblemSpec(s1, s, xi, t=1, nodes_per_period=n, boundary=boundary)
        phi = solve_cell(laminate2, spec).corrector
        assert phi.coeffs.shape[1:] == nodes and np.any(phi.coeffs != 0.0)
        path = tmp_path / f"corrector-{boundary}.csv"
        write_corrector_csv(phi, path)
        assert path.read_text() == per_node_corrector_csv(phi)
    # the laminate varies along y1 only, so the periodic corrector repeats along y2
    assert np.all(phi.coeffs == phi.coeffs[:, :, :1])


def test_corrector_csv_of_a_general_field_matches_per_node_writer(tmp_path):
    # Laminate correctors hold a few hundred distinct values; this field varies
    # in both directions, repeats some values, holds both zeros and texts of
    # every width, over a row count that ends inside a block.
    rng = np.random.default_rng(5)
    nodes = (37, 41)
    assert (nodes[0] * nodes[1]) % BLOCK_ROWS != 0 and nodes[0] * nodes[1] > BLOCK_ROWS
    coeffs = rng.standard_normal((2,) + nodes) * 10.0 ** rng.integers(-300, 300, (2,) + nodes)
    pool = np.array([-0.0, 0.0, 0.5, -1.0, 1.0 / 3.0, 5e-324, 1e300, 7.0])
    repeated = rng.random(coeffs.shape) < 0.4
    coeffs[repeated] = rng.choice(pool, size=int(repeated.sum()))
    phi = CorrectorField(coeffs, np.eye(2), "periodic", 1, nodes[0])
    assert len(np.unique(coeffs.view(np.uint64))) > BLOCK_ROWS
    negative_zeros = np.signbit(coeffs[coeffs == 0.0])
    assert negative_zeros.any() and not negative_zeros.all()
    path = tmp_path / "corrector.csv"
    write_corrector_csv(phi, path)
    assert path.read_text() == per_node_corrector_csv(phi)


def test_rewrite_with_shorter_content_leaves_only_new_bytes(tmp_path):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    write_columns(csv_path, ["i", "v"], [np.arange(500), np.linspace(0.0, 1.0, 500)])
    write_json(json_path, {"rows": list(range(200))})
    write_columns(csv_path, ["i", "v"], [np.arange(2), np.array([0.5, -0.0])])
    write_json(json_path, {"rows": [1]})
    assert csv_path.read_bytes() == b"i,v\n0,0.5\n1,-0\n"
    assert json_path.read_bytes() == b'{\n  "rows": [\n    1\n  ]\n}\n'


def test_write_json_matches_streamed_dump(tmp_path):
    payload = {
        "z": [[1.0, [2, [3.5, None]]], []],
        "a": {"y": float("nan"), "b": -0.0, "inf": float("inf"), "x": [True, False]},
        "m": "text",
        "e": {},
    }
    path = tmp_path / "p.json"
    write_json(path, payload)
    expected = io.StringIO()
    json.dump(payload, expected, indent=2, sort_keys=True)
    expected.write("\n")
    assert path.read_bytes() == expected.getvalue().encode()
