"""The SQL-ish session layer: parsing and execution of the paper's statements."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.iotdb import IoTDBConfig, StorageEngine
from repro.iotdb.session import Session, parse


@pytest.fixture
def session():
    engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=10_000))
    s = Session(engine)
    for t in range(100):
        s.insert("root.sg.d1", "s1", t, float(t))
    return s


class TestParsing:
    def test_select_star(self):
        parsed = parse("SELECT * FROM root.sg.d1.s1")
        assert parsed.device == "root.sg.d1"
        assert parsed.sensor == "s1"
        assert parsed.aggregation is None
        assert parsed.start == 0

    def test_paper_statement(self):
        # The literal query shape of §VI-D.
        parsed = parse("SELECT * FROM data.s WHERE time > current - 500")
        assert parsed.start_is_current_minus == 499
        assert parsed.group_window is None

    def test_range_predicates(self):
        parsed = parse("select * from d.s where time >= 10 and time < 20")
        assert parsed.start == 10
        assert parsed.end == 20

    def test_inclusive_bounds(self):
        parsed = parse("select * from d.s where time > 10 and time <= 20")
        assert parsed.start == 11
        assert parsed.end == 21

    def test_aggregations(self):
        assert parse("select count(*) from d.s").aggregation == "count"
        assert parse("select avg(v) from d.s").aggregation == "avg"
        assert parse("select min(v) from d.s").aggregation == "min_value"
        assert parse("select last(v) from d.s").aggregation == "last"

    def test_group_by(self):
        parsed = parse("select avg(v) from d.s where time < 60 group by (10)")
        assert parsed.group_window == 10

    def test_repeated_current_upper_bounds_intersect(self):
        for where in (
            "time < current - 10 and time <= current - 3",
            "time <= current - 3 and time < current - 10",
        ):
            assert parse(f"select * from d.s where {where}").end_is_current_minus == 10

    @pytest.mark.parametrize(
        "bad",
        [
            "DELETE FROM d.s",
            "select * from nodots",
            "select median(v) from d.s",
            "select v from d.s",
            "select * from d.s where humidity > 3",
            "select * from d.s group by (10)",  # GROUP BY needs aggregation
            "select * from d.s where time ~ 5",
        ],
    )
    def test_rejects_bad_statements(self, bad):
        with pytest.raises(QueryError):
            parse(bad)


class TestExecution:
    def test_select_star_range(self, session):
        result = session.execute(
            "SELECT * FROM root.sg.d1.s1 WHERE time >= 10 AND time < 15"
        )
        assert result.timestamps == [10, 11, 12, 13, 14]

    def test_paper_tail_query(self, session):
        result = session.execute(
            "SELECT * FROM root.sg.d1.s1 WHERE time > current - 10"
        )
        assert result.timestamps == list(range(90, 100))

    def test_count_and_avg(self, session):
        assert session.execute("select count(*) from root.sg.d1.s1") == 100
        avg = session.execute(
            "select avg(v) from root.sg.d1.s1 where time < 10"
        )
        assert avg == pytest.approx(4.5)

    def test_group_by_windows(self, session):
        rows = session.execute(
            "select count(*) from root.sg.d1.s1 where time < 40 group by (10)"
        )
        assert rows == [(0, 10), (10, 10), (20, 10), (30, 10)]

    @pytest.mark.parametrize(
        "where",
        [
            "time > current - 5 and time > current - 10",
            "time > current - 10 and time > current - 5",
        ],
    )
    def test_repeated_current_predicates_intersect(self, session, where):
        assert session.execute(f"select count(*) from root.sg.d1.s1 where {where}") == 5

    def test_group_by_without_upper_bound_ends_at_current(self, session):
        # The paper's statement shape: the range is checked before anything
        # is bucketed, so a regression fails here instead of building
        # 2**62 / 5 windows.
        parsed = parse(
            "select count(*) from root.sg.d1.s1 where time > current - 10 group by (5)"
        )
        assert session._resolve_range(parsed) == (90, 100)
        assert session.execute(
            "select count(*) from root.sg.d1.s1 where time > current - 10 group by (5)"
        ) == [(90, 5), (95, 5)]

    def test_current_on_empty_column(self, session):
        with pytest.raises(QueryError):
            session.execute("select * from ghost.s1 where time > current - 5")

    def test_empty_resolved_range(self, session):
        with pytest.raises(QueryError):
            session.execute(
                "select * from root.sg.d1.s1 where time >= 50 and time < 50"
            )

    def test_semicolon_and_case_insensitive(self, session):
        result = session.execute("sElEcT * fRoM root.sg.d1.s1 WhErE tImE < 3;")
        assert result.timestamps == [0, 1, 2]

    def test_multiline_paper_format(self, session):
        # The statement exactly as typeset in the paper.
        result = session.execute(
            """SELECT *
            FROM root.sg.d1.s1
            WHERE time > current - 500"""
        )
        assert len(result) == 100


class TestValuePredicates:
    def test_parse_value_predicate(self):
        parsed = parse("select * from d.s where v > 3.5")
        assert parsed.value_predicates == ((">", 3.5),)
        parsed = parse("select * from d.s where time >= 1 and value <= -2")
        assert parsed.value_predicates == (("<=", -2.0),)
        assert parsed.start == 1

    def test_select_star_with_value_filter(self, session):
        result = session.execute(
            "select * from root.sg.d1.s1 where time < 20 and v >= 15"
        )
        assert result.timestamps == [15, 16, 17, 18, 19]

    def test_equality_and_inequality(self, session):
        result = session.execute("select * from root.sg.d1.s1 where v = 42")
        assert result.values == [42.0]
        result = session.execute(
            "select * from root.sg.d1.s1 where time < 3 and v != 1"
        )
        assert result.values == [0.0, 2.0]

    def test_aggregation_over_filtered_values(self, session):
        count = session.execute("select count(*) from root.sg.d1.s1 where v >= 90")
        assert count == 10
        avg = session.execute("select avg(v) from root.sg.d1.s1 where v < 4")
        assert avg == pytest.approx(1.5)

    def test_group_by_with_value_filter(self, session):
        rows = session.execute(
            "select count(*) from root.sg.d1.s1 where time < 40 and v >= 35 group by (10)"
        )
        assert rows == [(0, 0), (10, 0), (20, 0), (30, 5)]

    def test_conjunction_of_value_predicates(self, session):
        result = session.execute(
            "select * from root.sg.d1.s1 where v >= 10 and v < 13"
        )
        assert result.values == [10.0, 11.0, 12.0]
