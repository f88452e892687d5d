import numpy as np
import pytest

from semimarket.paths import SamplePath


def test_sample_path_basics():
    path = SamplePath(dt=0.5, values=np.array([0.0, 1.0, 4.0]))
    assert path.n == 3
    assert path.horizon == pytest.approx(1.0)
    np.testing.assert_allclose(path.times, [0.0, 0.5, 1.0])


def test_sample_path_rejects_bad_input():
    with pytest.raises(ValueError, match="two samples"):
        SamplePath(dt=0.5, values=np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        SamplePath(dt=0.5, values=np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="dt"):
        SamplePath(dt=0.0, values=np.array([0.0, 1.0]))


def test_sample_path_at_matches_interp():
    rng = np.random.default_rng(9)
    path = SamplePath(dt=0.1, values=rng.normal(size=51))
    ts = np.concatenate([rng.uniform(-1.0, 6.0, 40), path.times[::7]])
    np.testing.assert_array_equal(path.at(ts), np.interp(ts, path.times, path.values))
    assert path.at(2.35) == np.interp(2.35, path.times, path.values)
    assert path.at(path.times[12]) == path.values[12]


def test_sample_path_csv(tmp_path):
    path = SamplePath(dt=0.25, values=np.array([0.0, 2.0, -1.0]))
    out = tmp_path / "path.csv"
    path.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    grid = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(grid[:, 0], path.times)
    np.testing.assert_allclose(grid[:, 1], path.values)


def test_sample_path_csv_bytes_match_savetxt(tmp_path):
    # the writer keeps np.savetxt's default format byte for byte
    rng = np.random.default_rng(3)
    path = SamplePath(dt=1.0 / 3.0, values=np.concatenate([[0.0, -0.0, 1e-300, -2.5e17],
                                                            rng.standard_normal(500)]))
    out, ref = tmp_path / "path.csv", tmp_path / "ref.csv"
    path.to_csv(out)
    np.savetxt(ref, np.column_stack([path.times, path.values]), delimiter=",",
               header="t,value", comments="")
    assert out.read_bytes() == ref.read_bytes()
