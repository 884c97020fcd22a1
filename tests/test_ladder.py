"""The rows of the scale ladder (``scripts/ladder.py``) against the newest
committed ``BENCH_<n>.json``: every row under 1 s there still reports its
exit code, stdout digest and reduction steps, and the two newest tables
agree on the exit code and digest of every row they share.  No time is
pinned; the CI workflow checks every row."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))

import ladder  # noqa: E402

TABLE = ladder.committed_tables()[-1]
FAST = [row for row in TABLE if row["seconds"] < 1]


def test_the_table_has_every_row_once():
    assert [row["name"] for row in TABLE] == list(ladder.ROWS)
    assert all(row["code"] == 0 for row in TABLE)


@pytest.mark.parametrize("row", FAST, ids=[row["name"] for row in FAST])
def test_row_matches_the_table(row):
    assert ladder.check([row]) == []


def test_the_newest_tables_agree_on_every_shared_row():
    # a table rendered from changed reports would pin the change; steps are
    # not compared, since a new reduction scheme may re-pin them
    older, newer = ({row["name"]: (row["code"], row["stdout_sha256"]) for row in rows}
                    for rows in ladder.committed_tables()[-2:])
    shared = older.keys() & newer.keys()
    assert shared
    assert {name: newer[name] for name in shared} == {name: older[name] for name in shared}


def test_check_reports_a_changed_row():
    row = min(FAST, key=lambda row: row["seconds"])
    changed = [dict(row, steps=row["steps"] + 1), dict(row, stdout_sha256="0" * 64)]
    assert [line.split(":")[0] for line in ladder.check(changed)] == [row["name"]] * 2


def test_a_command_that_makes_no_budget_reports_no_steps(monkeypatch):
    monkeypatch.setitem(ladder.ROWS, "unparsable", (ladder.PLAIN, "garbage ("))
    assert ladder.run_row(FAST[0]["name"])[2] == FAST[0]["steps"]
    code, _, steps = ladder.run_row("unparsable")
    assert (code, steps) == (2, None)
