"""Backend registry behaviour: discovery, gating, lifecycle."""

import os

import pytest

from repro.backends import (
    BackendUnavailable,
    DbApiBackend,
    DuckDbBackend,
    SqliteFileBackend,
    available_backends,
    backend_info,
    create_backend,
    load_backend,
    register_backend,
    registered_backends,
)
from repro.backends.registry import _REGISTRY
from repro.common.values import NULL
from repro.relational.instance import Database
from repro.relational.schema import Relation, RelationalSchema


@pytest.fixture
def schema() -> RelationalSchema:
    return RelationalSchema.of([Relation("t", ("a", "b"))])


@pytest.fixture
def database(schema) -> Database:
    return Database.of(schema, t=[(1, "x"), (2, NULL), (3, "y")])


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"sqlite-memory", "sqlite-file", "duckdb"} <= set(registered_backends())

    def test_sqlite_backends_always_available(self):
        assert {"sqlite-memory", "sqlite-file"} <= set(available_backends())

    def test_unknown_backend_raises_with_known_names(self, schema):
        with pytest.raises(BackendUnavailable, match="sqlite-memory"):
            create_backend("postgres-17", schema)

    def test_duckdb_gated_on_import(self, schema):
        info = backend_info("duckdb")
        assert info.backend_class is DuckDbBackend
        if not DuckDbBackend.is_available():
            with pytest.raises(BackendUnavailable, match="duckdb"):
                create_backend("duckdb", schema)
        else:
            with create_backend("duckdb", schema) as backend:
                assert backend.execute("SELECT 1 AS one").rows == [(1,)]

    def test_register_custom_backend(self, schema):
        class NeverBackend(DbApiBackend):
            name = "test-never"

            @classmethod
            def is_available(cls):
                return False

            def _open_connection(self):  # pragma: no cover - gated off
                raise AssertionError

        register_backend(NeverBackend, description="always-unavailable test engine")
        try:
            assert "test-never" in registered_backends()
            assert "test-never" not in available_backends()
            with pytest.raises(BackendUnavailable):
                create_backend("test-never", schema)
        finally:
            _REGISTRY.pop("test-never", None)

    def test_abstract_name_rejected(self):
        class Nameless(DbApiBackend):
            def _open_connection(self):  # pragma: no cover
                raise AssertionError

        with pytest.raises(ValueError):
            register_backend(Nameless)


class TestLoadBackend:
    @pytest.mark.parametrize("name", ["sqlite-memory", "sqlite-file"])
    def test_load_executes_end_to_end(self, name, database):
        with load_backend(name, database) as backend:
            result = backend.execute('SELECT "a" FROM "t" WHERE "b" IS NOT NULL')
            assert sorted(result.rows) == [(1,), (3,)]

    def test_null_roundtrip(self, database):
        with load_backend("sqlite-memory", database) as backend:
            result = backend.execute('SELECT "b" FROM "t" WHERE "a" = 2')
            assert result.rows == [(NULL,)]

    def test_batched_loading_matches_unbatched(self, schema):
        big = Database.of(schema, t=[(i, f"v{i}") for i in range(257)])
        with load_backend("sqlite-memory", big, batch_size=16) as backend:
            count = backend.execute('SELECT COUNT(*) AS c FROM "t"')
            assert count.rows == [(257,)]

    def test_file_backend_cleans_up_tempfile(self, database):
        backend = load_backend("sqlite-file", database)
        assert isinstance(backend, SqliteFileBackend)
        path = backend.path
        assert os.path.exists(path)
        backend.close()
        assert not os.path.exists(path)

    @pytest.mark.parametrize("name", ["sqlite-memory", "sqlite-file"])
    def test_context_manager_closes_connection(self, name, database):
        with load_backend(name, database) as backend:
            assert backend.execute("SELECT 1 AS one").rows == [(1,)]
        assert backend.connection is None
        assert not backend.ping()

    def test_create_indexes_without_declared_keys_is_a_no_op(self, database):
        with load_backend("sqlite-memory", database, indexes=False) as backend:
            backend.create_indexes()  # no key constraints declared
            backend.create_indexes()  # and idempotent
            result = backend.execute('SELECT COUNT(*) AS c FROM "t"')
            assert result.rows == [(3,)]

    def test_explain_returns_plan_text(self, database):
        with load_backend("sqlite-memory", database) as backend:
            plan = backend.explain('SELECT "a" FROM "t"')
            assert "t" in plan

    def test_time_returns_seconds(self, database):
        with load_backend("sqlite-memory", database) as backend:
            seconds = backend.time('SELECT COUNT(*) AS c FROM "t"', repeats=3)
            assert seconds >= 0.0


class TestInferColumnTypes:
    def test_unifies_over_all_values(self, schema):
        from repro.backends import infer_column_types
        from repro.sql.dialect import DUCKDB

        mixed = Database.of(
            schema,
            t=[(1, 10), (2, "late-string"), (NULL, 2.5)],
        )
        hints = infer_column_types(mixed, DUCKDB)
        # Column a: int + NULL -> integer; column b: int then string -> text.
        assert hints["t"]["a"] == DUCKDB.integer_type
        assert hints["t"]["b"] == DUCKDB.text_type

    def test_int_float_mix_widens_to_real(self, schema):
        from repro.backends import infer_column_types
        from repro.sql.dialect import DUCKDB

        numeric = Database.of(schema, t=[(1, 1), (2, 2.5)])
        hints = infer_column_types(numeric, DUCKDB)
        assert hints["t"]["b"] == DUCKDB.real_type

    def test_all_null_column_uses_default(self, schema):
        from repro.backends import infer_column_types
        from repro.sql.dialect import DUCKDB

        empty = Database.of(schema, t=[(NULL, NULL)])
        hints = infer_column_types(empty, DUCKDB)
        assert hints["t"]["a"] == DUCKDB.default_column_type
