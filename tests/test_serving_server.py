"""The socket front end: protocol framing, the TCP server, the
blocking client, the load generator, and the shell's ``\\serve``
meta-command."""

import io
import json

import pytest

from repro.cli import Shell
from repro.serve import RemoteError, RuleServer, ServiceClient
from repro.serve import loadgen, protocol


@pytest.fixture()
def server():
    rule_server = RuleServer(db=loadgen.demo_database(rows=20))
    rule_server.start()
    yield rule_server
    rule_server.stop(close_db=True)


def _client(server):
    host, port = server.address
    return ServiceClient(host, port, timeout=30.0)


# ----------------------------------------------------------------------
# protocol framing
# ----------------------------------------------------------------------

def test_protocol_round_trip():
    message = {"id": 1, "op": "execute", "text": "retrieve …"}
    encoded = protocol.encode_message(message)
    assert encoded.endswith(b"\n")
    assert protocol.read_message(io.BytesIO(encoded)) == message


def test_protocol_eof_blank_and_oversize():
    assert protocol.read_message(io.BytesIO(b"")) is None
    assert protocol.read_message(io.BytesIO(b"\n")) == {}
    with pytest.raises(ValueError):
        protocol.read_message(io.BytesIO(b"{nope\n"))
    with pytest.raises(ValueError, match="JSON objects"):
        protocol.read_message(io.BytesIO(b"[1, 2]\n"))
    with pytest.raises(ValueError, match="exceeds"):
        long_line = b"x" * (protocol.MAX_LINE + 1) + b"\n"
        protocol.read_message(io.BytesIO(long_line))


def test_encode_result_shapes():
    from repro.executor.executor import DmlResult
    assert protocol.encode_result(None) == {"type": "ok"}
    assert protocol.encode_result("plan text") == \
        {"type": "text", "text": "plan text"}
    dml = protocol.encode_result(DmlResult(3))
    assert dml["type"] == "dml" and dml["count"] == 3


# ----------------------------------------------------------------------
# server + client
# ----------------------------------------------------------------------

def test_client_round_trip(server):
    with _client(server) as client:
        assert client.ping()
        assert client.session_id() >= 1
        rows = client.rows("retrieve (e.name) from e in emp "
                           "where e.id = 1")
        assert rows == [["emp0001"]]
        result = client.execute(
            "replace e (sal = 260.0) from e in emp where e.id = 1")
        assert result == {"type": "dml", "count": 1}
        assert client.rows("retrieve (a.tag) from a in audit "
                           "where a.who = \"emp0001\"") == [["band0"]]


def test_client_prepared_statements(server):
    with _client(server) as client:
        signature = client.prepare("probe", loadgen.READ_STATEMENT)
        assert signature == ["id"]
        out = client.exec_prepared("probe", {"id": 2})
        assert out["type"] == "rows"
        assert out["rows"] == [["emp0002", 2250.0]]
        with pytest.raises(RemoteError) as excinfo:
            client.exec_prepared("nope")
        assert excinfo.value.kind == "SessionError"


def test_remote_errors_carry_the_engine_class(server):
    with _client(server) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.execute("retrieve (x.a) from x in missing")
        assert excinfo.value.kind == "CatalogError"
        # the connection survives an engine error
        assert client.ping()


def test_transaction_denial_over_the_wire(server):
    with _client(server) as one, _client(server) as two:
        one.begin()
        with pytest.raises(RemoteError) as excinfo:
            two.begin()
        assert excinfo.value.kind == "TransactionError"
        one.execute('append emp(id = 100, name = "x", sal = 1.0)')
        one.commit()
        assert len(two.rows("retrieve (e.name) from e in emp "
                            "where e.id = 100")) == 1


def test_dropped_connection_aborts_its_transaction(server):
    client = _client(server)
    client.begin()
    client.execute('append emp(id = 200, name = "y", sal = 1.0)')
    client.close()          # server aborts the session's transaction
    with _client(server) as other:
        # the gate is free and the append rolled back
        other.begin()
        other.abort()
        assert other.rows("retrieve (e.name) from e in emp "
                          "where e.id = 200") == []


def test_unknown_op_and_missing_field(server):
    with _client(server) as client:
        with pytest.raises(RemoteError, match="unknown op"):
            client._call("bogus")
        with pytest.raises(RemoteError, match="missing"):
            client._call("execute")


def test_status_endpoint(server):
    with _client(server) as client:
        status = client.status()
        assert status["sessions"] == 1
        assert status["transaction_owner"] is None
        assert not status["stopped"]


def test_stop_returns_promptly():
    import time
    from repro import Database
    from repro.serve import RuleService
    service = RuleService(db=Database())
    rule_server = RuleServer(service=service)
    try:
        start = time.perf_counter()
        for _ in range(5):
            rule_server.start()
            rule_server.stop()
        elapsed = time.perf_counter() - start
    finally:
        service.shutdown(close_db=True)
    assert elapsed < 1.0, f"five start/stop cycles took {elapsed:.2f}s"


def test_sessions_close_with_connections(server):
    with _client(server) as client:
        client.ping()
    # allow the handler thread to finish tearing the session down
    import time
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if server.service.session_count() == 0:
            break
        time.sleep(0.01)
    assert server.service.session_count() == 0


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------

def test_run_load_mixed_workload(server):
    host, port = server.address
    summary = loadgen.run_load(host, port, clients=2, duration=0.4,
                               rows=20, write_ratio=0.25)
    assert summary["errors"] == []
    assert summary["ops"] > 0
    assert summary["reads"] > 0 and summary["writes"] > 0
    assert summary["ops"] == summary["reads"] + summary["writes"]
    assert len(summary["per_client"]) == 2


def test_loadgen_main_standalone(tmp_path, capsys):
    out_path = tmp_path / "summary.json"
    code = loadgen.main([
        "--standalone", "--clients", "2", "--duration", "0.4",
        "--rows", "20", "--write-ratio", "0.1",
        "--json", str(out_path)])
    assert code == 0
    summary = json.loads(out_path.read_text())
    assert summary["ops"] > 0 and summary["errors"] == []
    assert "evaluations/sec" in capsys.readouterr().out


def test_loadgen_main_requires_a_target():
    with pytest.raises(SystemExit):
        loadgen.main(["--clients", "1"])


# ----------------------------------------------------------------------
# the shell's \serve meta-command
# ----------------------------------------------------------------------

def _shell():
    out = io.StringIO()
    shell = Shell(out=out)
    shell.feed("create emp (id = int4, name = text, sal = float8);")
    shell.feed('append emp(id = 1, name = "a", sal = 10.0);')
    return shell, out


def _served_port(out):
    line = [l for l in out.getvalue().splitlines()
            if l.startswith("serving the session database")][0]
    return int(line.split(":")[-1].split()[0])


def test_cli_serve_round_trip():
    shell, out = _shell()
    shell.feed("\\serve")
    try:
        port = _served_port(out)
        with ServiceClient("127.0.0.1", port) as client:
            assert client.rows("retrieve (e.name) from e in emp") \
                == [["a"]]
            client.execute('append emp(id = 2, name = "b", '
                           'sal = 20.0)')
        # the server mutated the shell's own database
        assert len(shell.db.relation_rows("emp")) == 2
    finally:
        shell.feed("\\serve stop")
    text = out.getvalue()
    assert "rule server stopped" in text
    # the shell still owns an open database after stopping
    shell.feed('append emp(id = 3, name = "c", sal = 30.0);')
    assert len(shell.db.relation_rows("emp")) == 3


def test_cli_serve_status_and_double_start():
    shell, out = _shell()
    shell.feed("\\serve")
    try:
        shell.feed("\\serve status")
        shell.feed("\\serve")
    finally:
        shell.feed("\\serve stop")
    text = out.getvalue()
    assert "sessions" in text
    assert "already serving" in text


def test_cli_serve_errors():
    shell, out = _shell()
    shell.feed("\\serve stop")
    shell.feed("\\serve status")
    shell.feed("\\serve host:notaport")
    text = out.getvalue()
    assert text.count("no rule server is running") == 2
    assert "usage: \\serve" in text
