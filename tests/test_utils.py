"""Utility substrate: RNG discipline, tables, serialization, validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import (
    RETRY_EPOCH_STRIDE,
    STREAM_TAGS,
    make_rng,
    rng_for,
    spawn_rngs,
)
from repro.utils.serialization import load_json, save_json, to_jsonable
from repro.utils.tables import Table, format_mean_std, render_matrix
from repro.utils.validation import (
    check_array,
    check_fraction,
    check_in,
    check_non_negative,
    check_positive,
    check_square_matrix,
)


class TestRng:
    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_rng_for_stateless_and_keyed(self):
        a1 = rng_for(7, 1, 2).standard_normal(4)
        a2 = rng_for(7, 1, 2).standard_normal(4)
        b = rng_for(7, 1, 3).standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_spawn_rngs_independent(self):
        r1, r2 = spawn_rngs(0, 2)
        assert not np.array_equal(r1.standard_normal(8), r2.standard_normal(8))

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_stream_tags_are_distinct(self):
        tags = list(STREAM_TAGS.values())
        assert len(set(tags)) == len(tags)
        # No tag reaches the retry stride (epochs are keys, not tags, but
        # the table stays small integers).
        assert max(tags) < RETRY_EPOCH_STRIDE

    def test_public_tag_names_read_the_table(self):
        from repro.fl.defense import CORRUPTION_TAG
        from repro.fl.rounds import (
            BUDGET_TAG,
            DURATION_TAG,
            FAILURE_TAG,
            STRAGGLER_TAG,
        )

        # The values seeded pins were drawn from.
        assert (
            FAILURE_TAG,
            STRAGGLER_TAG,
            BUDGET_TAG,
            DURATION_TAG,
            CORRUPTION_TAG,
        ) == (13, 17, 19, 23, 29)
        assert STREAM_TAGS["failure"] == FAILURE_TAG
        assert STREAM_TAGS["corruption"] == CORRUPTION_TAG


class TestTables:
    def test_render_alignment(self):
        t = Table(title="demo", columns=["Method", "Acc"])
        t.add_row(["fedavg", "38.25 ± 2.98"])
        t.add_row(["fedclust", "60.25 ± 0.58"])
        text = t.render()
        assert "demo" in text
        lines = text.splitlines()
        assert len({len(line) for line in lines[1:4]}) <= 2  # aligned rules

    def test_row_width_mismatch_raises(self):
        t = Table(title="x", columns=["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            t.add_row(["only-one"])

    def test_format_mean_std(self):
        assert format_mean_std(60.254, 0.579) == "60.25 ± 0.58"

    def test_render_matrix_values(self):
        text = render_matrix(np.array([[0.0, 1.5], [1.5, 0.0]]), digits=1)
        assert "1.5" in text

    def test_render_matrix_shade(self):
        text = render_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), shade=True)
        assert "█" in text  # small distances shaded dark

    def test_render_matrix_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            render_matrix(np.zeros(3))
        with pytest.raises(ValueError, match="row_labels"):
            render_matrix(np.zeros((2, 2)), row_labels=["a"])


class TestSerialization:
    def test_to_jsonable_numpy(self):
        payload = to_jsonable(
            {"a": np.float32(1.5), "b": np.arange(3), "c": [np.int64(2)], "d": None}
        )
        assert json.dumps(payload)  # round-trippable
        assert payload["a"] == 1.5
        assert payload["b"] == [0, 1, 2]

    def test_to_jsonable_rejects_unknown(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_json_roundtrip(self, tmp_path):
        path = save_json(tmp_path / "out" / "r.json", {"x": np.float64(2.5)})
        assert load_json(path) == {"x": 2.5}


class TestValidation:
    def test_positive(self):
        assert check_positive("x", 3) == 3
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_fraction(self):
        assert check_fraction("", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("", 0.0)
        assert check_fraction("", 0.0, inclusive_low=True) == 0.0

    def test_check_in(self):
        assert check_in("m", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError, match="one of"):
            check_in("m", "c", ("a", "b"))

    def test_check_array(self):
        with pytest.raises(ValueError, match="2-D"):
            check_array("x", np.zeros(3), ndim=2)
        with pytest.raises(ValueError, match="empty"):
            check_array("x", np.zeros(0))
        with pytest.raises(ValueError, match="dtype"):
            check_array("x", np.zeros(3, dtype=int), dtype_kind="")

    def test_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            check_square_matrix("m", np.zeros((2, 3)))


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("fl").name == "repro.fl"
        assert get_logger().name == "repro"

    def test_enable_console_idempotent(self):
        logger = enable_console_logging()
        n = len(logger.handlers)
        enable_console_logging()
        assert len(logger.handlers) == n
