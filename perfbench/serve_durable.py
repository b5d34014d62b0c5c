"""Workload ``serve_durable``: the rule service over a durable database.

A ``RuleService`` runs in the benchmark's process over a rule base
shaped like the ``loadgen`` demo: 5000 indexed rows and 8 range rules,
one per salary band, that fire when a replace moves a row into their
band.  The database has ``durable_path`` and the pinned WAL settings of
:data:`common.DURABLE_KWARGS`.  Two sessions, each with ``loadgen``'s
read and write statements prepared, take turns at random in one closed
loop: 90% prepared indexed reads, which run on the service's concurrent
read path in the calling thread, and 10% prepared replaces, which go
through the single-consumer write queue to the writer thread and each
fire one rule.  This exercises sessions, the write queue and its
hand-off, prepared plans, the WAL and its checkpoints, with reads beside
writes; the rule network does little and the statement working set fits
every cache.

Each rule records the last employee written into its band in the
8-row ``audit`` relation (the demo appends an audit row per firing
instead).  So the database keeps its size while the run goes, and a
checkpoint, which dumps the whole database, costs the same at the end
of the run as at the start and the same whatever the engine's speed.

Recovery is measured on a WAL of fixed length: after the timed phase
the database checkpoints, TAIL_WRITES more writes go through the
service (one WAL transition each), the service stops and the database
closes, and ``Database.recover`` is timed on a copy of its directory.

Checks: every read returns the row the generator's shadow table holds
at that point of the stream; ``audit`` names the last writer of each
band and the firing count equals the writes; a serial replay of the
service's history equals the live database; the recovered database
equals it too.
"""

from __future__ import annotations

import pathlib
import random
import shutil
import tempfile
import time

from common import DURABLE_KWARGS, ENGINE_KWARGS, WORK_DIR

SESSIONS = 2
WRITE_SHARE = 0.10
ROWS = 5000
RULES = 8
#: writes sent after the checkpoint that ends the timed phase; recovery
#: replays exactly these
TAIL_WRITES = 400
#: ops generated per second of run time (about three times the seed
#: engine's fastest rate on the reference host)
OPS_PER_SECOND = 40000
#: relations compared between the live, replayed and recovered databases
RELATIONS = ("emp", "audit")

READ, WRITE = "probe", "bump"


def rule_base(**database_kwargs):
    """Relations, data, then the rules (a user adding rules to a
    populated database)."""
    from repro import Database

    db = Database(**database_kwargs)
    db.execute("create emp (id = int4, name = text, sal = float8)")
    db.execute("create audit (tag = text, who = text)")
    db.execute("define index emp_id on emp (id) using hash")
    db.bulk_append("emp", [(eid, f"emp{eid:04d}", initial_salary(eid))
                           for eid in range(ROWS)])
    db.bulk_append("audit", [(f"band{i}", "") for i in range(RULES)])
    for i in range(RULES):
        low = 1000.0 * i
        db.execute(
            f"define rule audit_{i} on replace emp "
            f"if {low} < emp.sal and emp.sal <= {low + 500.0} "
            f'then replace audit (who = emp.name) '
            f'where audit.tag = "band{i}"')
    return db


def initial_salary(eid: int) -> float:
    """The salary row ``eid`` starts with (as in the ``loadgen`` demo)."""
    return 1000.0 * (eid % RULES) + 250.0


class Stream:
    """The op stream and the tail, with the generator's shadow table.

    Calls are numbered ``2 * session + (0 read | 1 write)``.  Every
    written salary lies inside some rule's band and differs from every
    salary the row has held, so every write fires exactly one rule.
    """

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        sal = {eid: initial_salary(eid) for eid in range(ROWS)}
        #: every salary written so far and every initial one: a write
        #: never repeats one, so it always changes its row (a replace
        #: that changes nothing fires no rule)
        self.used = set(sal.values())
        # one parameter dict per row, shared by all reads of it
        probe = [{"id": eid} for eid in range(ROWS)]
        #: (kind, call, params) for drive()
        self.ops: list[tuple] = []
        #: per op: the salary a read must return, or the band tag and
        #: name a write records in audit
        self.expect: list = []
        for _ in range(int(OPS_PER_SECOND * seconds)):
            session = rng.randrange(SESSIONS)
            eid = rng.randrange(ROWS)
            if rng.random() < WRITE_SHARE:
                params, audit = self._write(rng, eid)
                sal[eid] = params["sal"]
                self.ops.append(("write", 2 * session + 1, params))
                self.expect.append(audit)
            else:
                self.ops.append(("read", 2 * session, probe[eid]))
                self.expect.append(sal[eid])
        self.tail = [self._write(rng, rng.randrange(ROWS))
                     for _ in range(TAIL_WRITES)]

    def _write(self, rng: random.Random, eid: int) -> tuple[dict, tuple]:
        while True:
            band = rng.randrange(RULES)
            sal = round(1000.0 * band + rng.uniform(1.0, 499.0), 2)
            if sal not in self.used:
                break
        self.used.add(sal)
        return {"id": eid, "sal": sal}, (f"band{band}", f"emp{eid:04d}")


class Served:
    """One durable database, the service over it and its sessions."""

    def __init__(self):
        from repro.serve.loadgen import READ_STATEMENT, WRITE_STATEMENT
        from repro.serve.service import RuleService

        WORK_DIR.mkdir(exist_ok=True)
        self.directory = pathlib.Path(
            tempfile.mkdtemp(prefix="serve_durable-", dir=WORK_DIR))
        self.db = rule_base(durable_path=self.directory,
                            **ENGINE_KWARGS, **DURABLE_KWARGS)
        self.service = RuleService(self.db)
        self.sessions = [self.service.open_session()
                         for _ in range(SESSIONS)]
        for session in self.sessions:
            self.service.prepare(session, READ, READ_STATEMENT)
            self.service.prepare(session, WRITE, WRITE_STATEMENT)
        #: (seconds, records replayed), set by check()
        self.recovery: tuple[float, int] | None = None

    def close(self) -> None:
        self.service.shutdown()
        if not self.db.closed:
            self.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def build(stream: Stream) -> Served:
    return Served()


def close(state: Served) -> None:
    state.close()


def calls(state: Served) -> list:
    execute = state.service.execute_prepared
    out = []
    for session in state.sessions:
        out.append(lambda params, s=session: execute(s, READ, params))
        out.append(lambda params, s=session: execute(s, WRITE, params))
    return out


def relation_rows(db) -> dict[str, list]:
    return {name: sorted(db.relation_rows(name)) for name in RELATIONS}


def check(state: Served, stream: Stream, executed: int, reads,
          firings: int) -> list[str]:
    """Check the timed phase against the shadow model, then run the
    tail, stop the service, replay its history serially and recover
    the database from its directory (timed; kept on ``state``)."""
    from repro import Database
    from repro.errors import ArielError
    from repro.serve.service import replay_serial

    problems = []
    wrong = [i for i, result in reads
             if list(result.rows) != [(f"emp{stream.ops[i][2]['id']:04d}",
                                       stream.expect[i])]]
    if wrong:
        problems.append(f"{len(wrong)} reads returned wrong rows "
                        f"(first at op {wrong[0]})")
    writes = [stream.expect[i] for i in range(executed)
              if stream.ops[i][0] == "write"]
    if firings != len(writes):
        problems.append(f"{firings} firings, expected {len(writes)}")

    db, service = state.db, state.service
    db.checkpoint()
    session = state.sessions[0]
    for params, audit in stream.tail:
        try:
            service.execute_prepared(session, WRITE, params)
            writes.append(audit)
        except ArielError as exc:
            problems.append(f"tail write failed: {type(exc).__name__}: "
                            f"{exc}")
            break
    service.shutdown()
    live = relation_rows(db)
    last = {f"band{i}": "" for i in range(RULES)}
    last.update(writes)
    if live["audit"] != sorted(last.items()):
        problems.append("audit does not name the last writer of each "
                        "band")
    db.close()

    replayed = rule_base(**ENGINE_KWARGS)
    replay_serial(replayed, service.serial_history())
    if relation_rows(replayed) != live:
        problems.append("serial replay of the service history differs "
                        "from the live database")
    if replayed.firings != db.firings:
        problems.append(f"serial replay fired {replayed.firings} times, "
                        f"the live database {db.firings}")
    del replayed

    copy = state.directory.with_name(state.directory.name + "-recovered")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(state.directory, copy)
    try:
        start = time.perf_counter()
        recovered = Database.recover(copy, **DURABLE_KWARGS,
                                     **ENGINE_KWARGS)
        seconds = time.perf_counter() - start
    except ArielError as exc:
        problems.append(f"recovery failed: {type(exc).__name__}: {exc}")
    else:
        state.recovery = (seconds,
                          recovered.stats.get("recovery.replayed"))
        if relation_rows(recovered) != live:
            problems.append("the recovered database differs from the "
                            "live one")
        recovered.close()
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return problems
