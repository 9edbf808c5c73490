import numpy as np
import pytest

from mgrl.trajectory import (
    CSV_HEADER,
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)


def make_trajectory(steps=6, seed=0):
    rng = np.random.default_rng(seed)
    flows = rng.uniform(0.0, 30.0, (steps, 2))
    surplus = rng.random(steps) < 0.5
    p_ch = np.where(surplus, flows[:, 0], 0.0)
    p_dis = np.where(surplus, 0.0, flows[:, 1])
    loads = rng.uniform(0.0, 60.0, (steps, 3))
    p_re = rng.uniform(0.0, 150.0, steps)
    p_supply = p_re + p_dis - p_ch
    alloc = p_supply[:, None] * np.array([0.5, 0.3, 0.2])
    imb = alloc - loads
    return Trajectory(
        soc=rng.uniform(0.2, 0.9, steps), p_re=p_re, loads=loads,
        p_ch=p_ch, p_dis=p_dis, p_supply=p_supply, allocations=alloc,
        imbalances=imb, shortages=np.maximum(0.0, -imb),
        reward=rng.uniform(0.0, 1.0, steps))


class TestTrajectory:
    def test_len_matches_rows(self):
        assert len(make_trajectory(steps=9)) == 9

    def test_states_layout(self):
        traj = make_trajectory()
        s = traj.states()
        assert s.shape == (6, 6)
        np.testing.assert_array_equal(s[:, 0], traj.soc)
        np.testing.assert_array_equal(s[:, 1:4], traj.loads)
        np.testing.assert_array_equal(s[:, 4], traj.p_re)
        np.testing.assert_allclose(
            s[:, 5], traj.p_re - traj.loads.sum(axis=1), atol=1e-12)

    def test_mode_classification(self):
        traj = make_trajectory()
        traj.p_ch[:] = [5.0, 0.0, 0.0, 1e-9, 0.0, 0.0]
        traj.p_dis[:] = [0.0, 3.0, 0.0, 0.0, 1e-9, 0.0]
        modes = [traj.mode_at(t) for t in range(6)]
        assert modes == ["charge", "discharge", "idle", "idle", "idle",
                         "idle"]

    def test_find_mode_step(self):
        traj = make_trajectory()
        traj.p_ch[:] = [0.0, 0.0, 7.0, 7.0, 0.0, 0.0]
        traj.p_dis[:] = [0.0, 0.0, 0.0, 0.0, 9.0, 0.0]
        assert traj.find_mode_step("charge") == 2
        assert traj.find_mode_step("discharge") == 4
        assert traj.find_mode_step("idle") == 0
        traj.p_dis[:] = 0.0
        traj.p_ch[:] = 1.0
        assert traj.find_mode_step("discharge") == -1

    def test_find_mode_step_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            make_trajectory().find_mode_step("standby")


class TestTrajectoryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        traj = make_trajectory(steps=11, seed=3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        for name in ("soc", "p_re", "loads", "p_ch", "p_dis", "p_supply",
                     "allocations", "imbalances", "shortages", "reward"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(traj, name), err_msg=name)

    def test_header_written_verbatim(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(make_trajectory(), path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_t_column_is_integer_index(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(make_trajectory(steps=4), path)
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["0", "1", "2", "3"]

    def test_no_numpy_scalar_reprs_leak(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(make_trajectory(), path)
        assert "np.float64" not in path.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,soc,wrong\n0,0.5,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory_csv(path)

    @staticmethod
    def write_with_row(path, n, edit):
        """Valid 3-step file whose 1-based data row n is edited."""
        write_trajectory_csv(make_trajectory(steps=3), path)
        lines = path.read_text().splitlines()
        lines[n] = ",".join(edit(lines[n].split(",")))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit, detail", [
        (lambda f: [*f[:2], "abc", *f[3:]],
         "data row 2, column p_re: not a number: 'abc'"),
        (lambda f: [*f[:2], "inf", *f[3:]],
         "data row 2, column p_re: non-finite value inf"),
        (lambda f: [*f, "0.0"],
         "data row 2: extra fields after column reward"),
    ], ids=["non-numeric", "non-finite", "extra-field"])
    def test_bad_row_names_row_and_column(self, tmp_path, edit, detail):
        path = tmp_path / "traj.csv"
        self.write_with_row(path, 2, edit)
        with pytest.raises(ValueError, match=f"traj.csv: {detail}"):
            read_trajectory_csv(path)

    def test_empty_body_round_trips(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        assert len(read_trajectory_csv(path)) == 0

    def test_states_survive_round_trip(self, tmp_path):
        traj = make_trajectory(steps=7, seed=5)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        np.testing.assert_array_equal(read_trajectory_csv(path).states(),
                                      traj.states())
