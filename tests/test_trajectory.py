import numpy as np
import pytest

from mgrl.env import EnvConfig
from mgrl.ppo import evaluate_actions
from mgrl.scenario import ScenarioConfig, synth_cyclone_scenario
from mgrl.trajectory import (
    CSV_HEADER,
    MODES,
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)


def make_trajectory(steps=6, seed=0):
    rng = np.random.default_rng(seed)
    flows = rng.uniform(0.0, 30.0, (steps, 2))
    surplus = rng.random(steps) < 0.5
    loads = rng.uniform(0.0, 60.0, (steps, 3))
    p_re = rng.uniform(0.0, 150.0, steps)
    # Charging never exceeds generation, so supply stays non-negative.
    p_ch = np.where(surplus, np.minimum(flows[:, 0], p_re), 0.0)
    p_dis = np.where(surplus, 0.0, flows[:, 1])
    p_supply = p_re + p_dis - p_ch
    alloc = p_supply[:, None] * np.array([0.5, 0.3, 0.2])
    imb = alloc - loads
    traj = Trajectory(np.full((steps, len(CSV_HEADER) - 1), np.nan))
    traj.soc[:] = rng.uniform(0.2, 0.9, steps)
    traj.p_re[:], traj.loads[:] = p_re, loads
    traj.p_ch[:], traj.p_dis[:], traj.p_supply[:] = p_ch, p_dis, p_supply
    traj.allocations[:], traj.imbalances[:] = alloc, imb
    traj.shortages[:] = np.maximum(0.0, -imb)
    traj.reward[:] = rng.uniform(0.0, 1.0, steps)
    assert not np.isnan(traj.table).any()  # every column written
    return traj


# Each field and the trajectory CSV columns it holds, in order.
FIELD_COLUMNS = {
    "soc": ("soc",), "p_re": ("p_re",), "loads": ("l1", "l2", "l3"),
    "p_ch": ("p_ch",), "p_dis": ("p_dis",), "p_supply": ("p_supply",),
    "allocations": ("alloc1", "alloc2", "alloc3"),
    "imbalances": ("imb1", "imb2", "imb3"), "shortages": ("sh1", "sh2", "sh3"),
    "reward": ("reward",),
}


def evaluated_trajectory():
    """Episode 0 of a 2-episode eval of random actions over 30 hours."""
    scn = synth_cyclone_scenario(ScenarioConfig(horizon_steps=30,
                                                cyclone_window=(10, 16)))
    return evaluate_actions(
        lambda t, soc, rng: rng.uniform(-1.0, 1.0, (1, 5)), EnvConfig(), scn,
        n_episodes=2, seed=6).trajectory


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

    def test_modes_are_what_mode_at_returns(self):
        traj = make_trajectory()
        traj.p_ch[:] = [5.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        traj.p_dis[:] = [0.0, 3.0, 0.0, 0.0, 0.0, 0.0]
        assert {traj.mode_at(t) for t in range(6)} == set(MODES)
        assert [traj.find_mode_step(m) for m in MODES] == [2, 0, 1]

    @pytest.mark.parametrize("source", ["evaluated", "read-back"])
    def test_fields_are_views_of_the_one_table(self, tmp_path, source):
        traj = evaluated_trajectory()
        if source == "read-back":
            write_trajectory_csv(traj, tmp_path / "traj.csv")
            traj = read_trajectory_csv(tmp_path / "traj.csv")
        assert traj.table.shape == (30, len(CSV_HEADER) - 1)
        for name in FIELD_COLUMNS:
            assert np.shares_memory(getattr(traj, name), traj.table), name

    def test_fields_are_their_named_csv_columns(self, tmp_path):
        traj = make_trajectory(steps=5, seed=4)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        file_columns = dict(zip(CSV_HEADER, np.loadtxt(
            path, delimiter=",", skiprows=1, ndmin=2).T))
        for name, columns in FIELD_COLUMNS.items():
            want = np.column_stack([file_columns[c] for c in columns])
            np.testing.assert_array_equal(
                getattr(traj, name).reshape(5, -1), want, err_msg=name)
        assert set(CSV_HEADER) == {"t"}.union(*FIELD_COLUMNS.values())


class TestTrajectoryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        traj = make_trajectory(steps=11, seed=3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        for name in FIELD_COLUMNS:
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(traj, name), err_msg=name)

    def test_rewriting_a_read_back_reproduces_the_file(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(evaluated_trajectory(), first)
        write_trajectory_csv(read_trajectory_csv(first), second)
        assert second.read_bytes() == first.read_bytes()

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
        # The battery-life estimate relies on flows being read >= 0
        (lambda f: [*f[:6], "-1.5", *f[7:]],
         "data row 2, column p_ch: negative value -1.5"),
        (lambda f: [*f[:7], "-0.25", *f[8:]],
         "data row 2, column p_dis: negative value -0.25"),
    ], ids=["non-numeric", "non-finite", "extra-field", "negative-p_ch",
            "negative-p_dis"])
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
