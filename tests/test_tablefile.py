"""Table files: every row fault is named with the index of the first row that has one."""

import gc
import json
import random

import pytest

from padic_kas import CylinderFunction, TableFormatError, load_table_json, parse_padic, tablefile

from helpers import table_keys


def first_row_fault(rows, n, codomain):
    """The fault of the first bad row, checking one row after another.

    The reference for the reader's bulk checks: rows are read in order,
    each through every rule in turn, and the first rule a row breaks is
    its fault.
    """
    seen = set()
    for idx, entry in enumerate(rows):
        if not isinstance(entry, dict) or "x" not in entry or "value" not in entry:
            return f"entry {idx} needs fields 'x' and 'value'"
        x = entry["x"]
        if not isinstance(x, list) or len(x) != n:
            return f"entry {idx} field 'x' must list {n} coordinates"
        if not all(isinstance(coord, list) for coord in x):
            return f"entry {idx} field 'x' has a coordinate that is not a list"
        key = tuple(map(tuple, x))
        if not all(type(d) is int for coord in key for d in coord):
            return f"entry {idx} field 'x' has non-integer digits"
        if key in seen:
            return f"entry {idx} duplicates key {x}"
        value = entry["value"]
        if codomain == "real":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"entry {idx} field 'value' must be a number"
        elif not isinstance(value, str):
            return f"entry {idx} field 'value' must be a p-adic literal string"
        else:
            try:
                parse_padic(value)
            except ValueError as exc:
                return f"entry {idx} field 'value': {exc}"
        seen.add(key)
    return None


def rows_of(p, n, K, codomain):
    value = float if codomain == "real" else lambda i: f"{p}:{K}:" + ",".join(["1"] * K)
    return [
        {"x": [list(c) for c in key], "value": value(i)}
        for i, key in enumerate(table_keys(p, n, K))
    ]


def write(tmp_path, rows, codomain, p=2, n=2, K=2):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"p": p, "n": n, "K": K, "codomain": codomain, "entries": rows}))
    return path


# Each breaks one row in one way: (row, rows) -> the broken row.
BREAKS = [
    lambda row, rows: 5,
    lambda row, rows: "row",
    lambda row, rows: None,
    lambda row, rows: [row["x"], row["value"]],
    lambda row, rows: {"x": row["x"]},
    lambda row, rows: {"value": row["value"]},
    lambda row, rows: {**row, "x": None},
    lambda row, rows: {**row, "x": "ab"},
    lambda row, rows: {**row, "x": {"a": 1, "b": 2}},
    lambda row, rows: {**row, "x": row["x"][:1]},
    lambda row, rows: {**row, "x": row["x"] + [[0, 0]]},
    lambda row, rows: {**row, "x": [row["x"][0], 0]},
    lambda row, rows: {**row, "x": [row["x"][0], "01"]},
    lambda row, rows: {**row, "x": [[1.5, 0], row["x"][1]]},
    lambda row, rows: {**row, "x": [[True, 0], row["x"][1]]},
    lambda row, rows: {**row, "x": [row["x"][0], [0, "1"]]},
    lambda row, rows: {**row, "x": [row["x"][0], [None, 0]]},
    lambda row, rows: {**row, "x": [row["x"][0], [[0], 0]]},
    lambda row, rows: {**row, "x": rows[0]["x"]},
    lambda row, rows: {**row, "value": True},
    lambda row, rows: {**row, "value": "1.5"},
    lambda row, rows: {**row, "value": None},
    lambda row, rows: {**row, "value": [1]},
    lambda row, rows: {**row, "value": 7},
    lambda row, rows: {**row, "value": "2:2:1,9"},
    lambda row, rows: {**row, "value": "not-a-literal"},
]


class TestRowFaults:
    @pytest.mark.parametrize("codomain", ["real", "padic"])
    def test_each_break_in_the_last_row_is_named(self, tmp_path, codomain):
        for break_row in BREAKS:
            rows = rows_of(2, 2, 2, codomain)
            rows[-1] = break_row(rows[-1], rows)
            fault = first_row_fault(rows, 2, codomain)
            path = write(tmp_path, rows, codomain)
            if fault is None:
                # A 7 is a real value and may be a p-adic one only by name.
                load_table_json(str(path))
                continue
            with pytest.raises(TableFormatError) as err:
                load_table_json(str(path))
            assert str(err.value) == f"{path}: {fault}"

    @pytest.mark.parametrize("seed", range(40))
    def test_the_first_bad_row_is_named(self, tmp_path, seed):
        # Several rows broken: a later row's earlier rule must not be named
        # before an earlier row's later rule.
        rng = random.Random(seed)
        codomain = rng.choice(["real", "padic"])
        rows = rows_of(2, 2, 2, codomain)
        for idx in rng.sample(range(1, len(rows)), rng.randint(1, 4)):
            rows[idx] = rng.choice(BREAKS)(rows[idx], rows)
        fault = first_row_fault(rows, 2, codomain)
        path = write(tmp_path, rows, codomain)
        if fault is None:
            load_table_json(str(path))
            return
        with pytest.raises(TableFormatError) as err:
            load_table_json(str(path))
        assert str(err.value) == f"{path}: {fault}"

    @pytest.mark.parametrize("seed", range(8))
    def test_the_first_bad_row_is_named_across_blocks(self, tmp_path, seed):
        # 4096 rows, more than one bulk pass reads: a row may duplicate a
        # key of an earlier pass, and a later pass may hold the first fault.
        rng = random.Random(seed)
        codomain = rng.choice(["real", "padic"])
        rows = rows_of(2, 1, 12, codomain)
        dup = rng.randrange(1024, len(rows))
        rows[dup] = {**rows[dup], "x": rows[rng.randrange(1024)]["x"]}
        for idx in rng.sample(range(1, len(rows)), rng.randint(0, 2)):
            if idx != dup:
                rows[idx] = rng.choice(BREAKS)(rows[idx], rows)
        fault = first_row_fault(rows, 1, codomain)
        path = write(tmp_path, rows, codomain, n=1, K=12)
        with pytest.raises(TableFormatError) as err:
            load_table_json(str(path))
        assert str(err.value) == f"{path}: {fault}"

    def test_a_duplicate_is_named_before_its_bad_value(self, tmp_path):
        rows = rows_of(2, 1, 1, "real")
        rows.append({"x": rows[0]["x"], "value": "0.5"})
        path = write(tmp_path, rows, "real", n=1, K=1)
        with pytest.raises(TableFormatError) as err:
            load_table_json(str(path))
        assert str(err.value) == f"{path}: entry 2 duplicates key [[0]]"

    def test_an_earlier_row_with_a_later_rule_is_named_first(self, tmp_path):
        rows = rows_of(2, 1, 1, "real")
        rows[0]["value"] = "0.5"
        rows[1] = 5
        path = write(tmp_path, rows, "real", n=1, K=1)
        with pytest.raises(TableFormatError) as err:
            load_table_json(str(path))
        assert str(err.value) == f"{path}: entry 0 field 'value' must be a number"

    @pytest.mark.parametrize(
        "K, codomain, idx, change, fault",
        [
            (1, "real", 2, {"x": [[1], [5]]}, "key ((1,), (5,)) digit 5 not in [0, 1]"),
            (2, "real", 0, {"x": [[0, 0], [0]]},
             "key ((0, 0), (0,)) has a 1-digit coordinate, expected 2"),
            (1, "padic", 0, {"value": "3:1:0"},
             "p-adic table value has (p=3, K=1), expected (p=2, K=1)"),
            (1, "real", 1, {"value": 10**400}, "real table value is too large for a float"),
        ],
        ids=["digit-out-of-range", "short-coordinate", "padic-value-elsewhere", "huge-real"],
    )
    def test_a_fault_the_table_finds_names_its_row(self, tmp_path, K, codomain, idx, change, fault):
        # These rows pass the reader's own checks; from_table finds the fault.
        rows = rows_of(2, 2, K, codomain)
        rows[idx] = {**rows[idx], **change}
        path = write(tmp_path, rows, codomain, K=K)
        with pytest.raises(TableFormatError) as err:
            load_table_json(str(path))
        assert str(err.value) == f"{path}: entry {idx} {fault}"

    def test_missing_entries_name_no_row(self, tmp_path):
        path = write(tmp_path, rows_of(2, 2, 2, "real")[1:], "real")
        with pytest.raises(TableFormatError) as err:
            load_table_json(str(path))
        assert str(err.value) == f"{path}: table has 15 entries, expected 16"

    def test_keys_reach_the_table_as_exact_int_tuples(self, tmp_path, monkeypatch):
        rows = rows_of(3, 2, 1, "padic")
        received = []
        from_table = CylinderFunction.from_table

        def spy(p, n, K, codomain, entries, **kwargs):
            received.append(entries)
            return from_table(p, n, K, codomain, entries, **kwargs)

        monkeypatch.setattr(CylinderFunction, "from_table", spy)
        f = load_table_json(str(write(tmp_path, rows, "padic", p=3, n=2, K=1)))
        [entries] = received
        assert list(entries) == table_keys(3, 2, 1)
        for key in entries:
            assert {type(d) for coord in key for d in coord} == {int}
        assert f.values == [parse_padic("3:1:1")] * 9


class TestCollectorPause:
    @pytest.mark.parametrize("good", [True, False], ids=["good-file", "bad-file"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["from-enabled", "from-disabled"])
    def test_the_callers_collector_state_is_restored(self, tmp_path, monkeypatch, good, enabled):
        rows = rows_of(2, 2, 2, "real")
        if not good:
            rows[-1] = {**rows[-1], "value": None}
        path = write(tmp_path, rows, "real")
        during = []
        add_rows = tablefile._add_rows

        def spy(*args):
            during.append(gc.isenabled())
            return add_rows(*args)

        monkeypatch.setattr(tablefile, "_add_rows", spy)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if good:
                assert sorted(load_table_json(str(path)).values) == list(map(float, range(16)))
            else:
                with pytest.raises(TableFormatError) as err:
                    load_table_json(str(path))
                assert str(err.value) == f"{path}: entry 15 field 'value' must be a number"
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert during and not any(during)
        assert after == enabled
