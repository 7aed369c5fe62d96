import csv
import io
import warnings

import numpy as np
import pytest

from tanhom.artifacts import BLOCK_ROWS, read_csv, write_columns
from tanhom.cell import CellProblemSpec, solve_cell, write_corrector_csv
from tanhom.density import CoefficientLattice, DensityTable, TfOptions, build_density_table
from tanhom.errors import MalformedArtifact
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


@pytest.mark.parametrize("rows", [0, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_write_columns_matches_per_value_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = np.resize(np.array(SPECIAL), rows)
    spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    ints = np.arange(rows) - rows // 2
    flags = rng.random(rows) < 0.5
    path = tmp_path / "cols.csv"
    write_columns(path, ["f", "g", "i", "b"], [special, spread, ints, flags])

    expected = ["f,g,i,b"] + [
        f"{special[r]:.17g},{spread[r]:.17g},{ints[r]},{int(flags[r])}" for r in range(rows)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
    header, data = read_csv(path)
    assert header == ["f", "g", "i", "b"] and data.shape == (rows, 4)
    for col, ref in zip(data.T, (special, spread, ints, flags)):
        np.testing.assert_array_equal(col, ref)
    assert np.array_equal(np.signbit(data[:, 0]), np.signbit(special))


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
    spec = CellProblemSpec(s1, s, xi, t=1, nodes_per_period=8, boundary="dirichlet0")
    phi = solve_cell(laminate2, spec).corrector
    assert phi.coeffs.shape[1:] == (9, 9) and np.any(phi.coeffs != 0.0)
    path = tmp_path / "corrector.csv"
    write_corrector_csv(phi, path)
    assert path.read_text() == per_node_corrector_csv(phi)
