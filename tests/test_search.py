"""Grid searches: exhaustive enumeration, hill climbing, checkpointing."""

import itertools
import json
from fractions import Fraction

import pytest

import linespectra.search as search_mod
from linespectra.constructions import grid
from linespectra.projective import spectrum
from linespectra.search import SearchError, exhaustive_search, local_search


def test_exhaustive_forced_value():
    # with no three collinear every pair spans its own line, so all
    # placements of 4 points score the same
    r = exhaustive_search(4, 3, 2)
    assert r.best_value == 12
    assert r.objective == Fraction(3, 4)
    assert r.method == "exhaustive"
    assert r.objective_kind == "incidences"
    assert r.constraint == 2
    assert r.best_config.n == 4


def test_exhaustive_known_minimum():
    r = exhaustive_search(6, 4, 3)
    assert r.best_value == 21
    assert r.objective == Fraction(7, 12)


def test_exhaustive_lines_objective():
    r = exhaustive_search(6, 4, 3, objective="lines")
    assert r.best_value == 9
    assert r.objective == Fraction(1, 4)
    assert r.objective_kind == "lines"
    s = spectrum(r.best_config)
    assert s.total_lines == 9


def test_pruning_changes_work_not_answers():
    fast = exhaustive_search(6, 4, 3)
    slow = exhaustive_search(6, 4, 3, prune=False)
    assert fast.best_value == slow.best_value
    assert fast.objective == slow.objective
    assert fast.best_config.points == slow.best_config.points
    assert fast.iterations < slow.iterations


def test_exhaustive_result_recomputes():
    r = exhaustive_search(6, 4, 3)
    s = spectrum(r.best_config)
    assert s.incidences == r.best_value
    assert s.max_collinear <= 3


def _point_images(g, subset):
    # the 8 images of a point tuple under the explicit swap and flip maps
    for swap, fx, fy in itertools.product((False, True), repeat=3):
        image = []
        for p in subset:
            x, y = (p[1], p[0]) if swap else p
            image.append((g - 1 - x if fx else x, g - 1 - y if fy else y))
        yield tuple(sorted(image))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_index_canonicity_matches_point_orbit_minimum(g):
    symmetries = search_mod._symmetries(g)
    assert len({tuple(s) for s in symmetries}) == 8
    assert all(sorted(s) == list(range(g * g)) for s in symmetries)
    grid_points = [(x, y) for x in range(g) for y in range(g)]
    for n in range(1, 5):
        for subset in itertools.combinations(range(g * g), n):
            pts = tuple(grid_points[k] for k in subset)
            expected = min(_point_images(g, pts)) == pts
            assert search_mod._is_canonical(subset, symmetries) == expected, subset


def test_exhaustive_is_deterministic():
    assert exhaustive_search(5, 3, 3) == exhaustive_search(5, 3, 3)


def test_local_search_is_deterministic():
    a = local_search(9, iterations=120, seed=7, restarts=2)
    b = local_search(9, iterations=120, seed=7, restarts=2)
    assert a == b


def test_local_search_history_tracks_the_best():
    r = local_search(10, iterations=250, seed=1, restarts=3)
    values = [v for _, v in r.history]
    assert values, "at least the first feasible start must be recorded"
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == r.objective
    assert r.objective == Fraction(r.best_value, 100)
    iters = [i for i, _ in r.history]
    assert iters == sorted(iters)
    assert iters[-1] <= r.iterations
    # each restart evaluates its start and then 250 proposals
    assert r.iterations == 3 * (250 + 1)


def test_local_search_result_recomputes_and_respects_cap():
    r = local_search(8, cap=3, iterations=200, seed=4, restarts=2)
    s = spectrum(r.best_config)
    assert s.incidences == r.best_value
    assert s.max_collinear <= 3
    assert r.constraint == 3


def test_local_search_lines_objective():
    r = local_search(8, iterations=150, seed=2, restarts=2, objective="lines")
    s = spectrum(r.best_config)
    assert s.total_lines == r.best_value


def test_checkpoint_interrupt_and_resume(tmp_path, monkeypatch):
    path = tmp_path / "search.ckpt"
    args = dict(n=8, iterations=150, seed=5, restarts=3)
    baseline = local_search(**args)

    real_save = search_mod._save_checkpoint
    calls = {"n": 0}

    def save_then_interrupt_once(*a, **k):
        real_save(*a, **k)
        calls["n"] += 1
        if calls["n"] == 1:
            raise KeyboardInterrupt

    monkeypatch.setattr(search_mod, "_save_checkpoint", save_then_interrupt_once)
    with pytest.raises(KeyboardInterrupt):
        local_search(**args, checkpoint=str(path))
    assert path.exists()

    resumed = local_search(**args, checkpoint=str(path))
    assert resumed == baseline
    data = json.loads(path.read_text())
    assert data["kind"] == "local-search-checkpoint"
    assert data["completed_restarts"] == 3


# a checkpoint written after the first of two restarts by the format that
# also stored an evaluation counter, which is now derived and ignored
OLD_CHECKPOINT = {
    "kind": "local-search-checkpoint",
    "fingerprint": {"n": 8, "bound": 32, "cap": 4, "iterations": 50,
                    "restarts": 2, "seed": 5, "objective": "incidences"},
    "completed_restarts": 1,
    "evaluations": 51,
    "best": {"points": [[0, 13], [2, 9], [7, 13], [14, 13], [15, 10], [16, 23],
                        [21, 19], [25, 25]],
             "value": 50},
    "history": [[1, "7/8"], [6, "53/64"], [17, "25/32"]],
}


def test_checkpoint_with_evaluation_counter_resumes(tmp_path):
    path = tmp_path / "search.ckpt"
    path.write_text(json.dumps(OLD_CHECKPOINT))
    args = dict(n=8, cap=4, iterations=50, seed=5, restarts=2)
    assert local_search(**args, checkpoint=str(path)) == local_search(**args)
    data = json.loads(path.read_text())
    assert data["completed_restarts"] == 2
    assert "evaluations" not in data


def test_checkpoint_from_other_search_is_rejected(tmp_path):
    path = tmp_path / "search.ckpt"
    local_search(8, iterations=40, seed=1, restarts=1, checkpoint=str(path))
    with pytest.raises(SearchError):
        local_search(8, iterations=40, seed=2, restarts=1, checkpoint=str(path))


def test_checkpoint_junk_file_is_rejected(tmp_path):
    path = tmp_path / "search.ckpt"
    path.write_text(json.dumps({"kind": "grocery-list"}))
    with pytest.raises(SearchError):
        local_search(8, iterations=40, seed=1, restarts=1, checkpoint=str(path))


@pytest.mark.parametrize(
    "call",
    [
        lambda: exhaustive_search(9, 3, 2),
        lambda: exhaustive_search(4, 6, 2),
        lambda: exhaustive_search(4, 3, 1),
        lambda: exhaustive_search(5, 2, 3),
        lambda: exhaustive_search(4, 3, 2, objective="nonsense"),
        lambda: local_search(3),
        lambda: local_search(8, iterations=-1),
        lambda: local_search(8, restarts=0),
        lambda: local_search(8, cap=1),
        lambda: local_search(8, objective="nonsense"),
        lambda: local_search(10, bound=3),
        lambda: local_search(4, bound=-2),
    ],
)
def test_invalid_search_parameters(call):
    with pytest.raises(SearchError):
        call()


def test_local_search_fits_more_points_than_the_bound():
    # [0, bound)^2 holds bound^2 points, so n may exceed bound
    record = local_search(12, bound=5, cap=5, iterations=30, seed=3, restarts=1)
    assert record.best_config.n == 12
    assert set(record.best_config.points) <= set(grid(5, 5).points)


def test_search_error_is_a_value_error():
    assert issubclass(SearchError, ValueError)
