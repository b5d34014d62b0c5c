"""Workload ``join_cascade``: join matching and action cascades.

24 two-variable and 24 three-variable range rules (the Fig. 10/11
shapes: ``emp`` joined to ``dept`` and ``job`` by equi-join) write to
``flag``; two lower-priority rules carry kind-3 flags on to ``ledger``
and some ledger rows on to ``audit`` (a two-level cascade); one cyclic
triangle rule over ``link`` appends every new triangle to ``tri`` and is
planned by the worst-case-optimal multiway join.  5000 ``emp`` rows and
a sliding window of LINK_WINDOW ``link`` rows, in memory.  The ops:
62.5% 20-row ``bulk_append`` to ``emp`` (a batched Δ-set), 25% prepared
single-row ``replace`` of a salary, 2.5% link ops (a 10-row
``bulk_append`` to ``link``, then a prepared delete of the oldest 10
rows, which keeps the window's size fixed) and 10% prepared indexed
``retrieve`` of one employee (so read latency is measured on this
workload too).  Statement text never changes, so parsing is nearly
absent and the rule network and the actions take the time.

Set-up loads every relation, then defines the rules, as a user who
adds rules to a populated database would.  With ``link`` rows present
at activation, the automatic α-memory policy makes the triangle rule's
``link`` memories virtual, so every link op scans the window; that
cost is part of what this workload measures.

The generator keeps a shadow model: it knows which rules each write
wakes and which link combinations each link op closes, so the
benchmark recomputes ``flag``, ``ledger``, ``audit`` and ``tri`` and
the firing count naively and compares.
"""

from __future__ import annotations

import random
from collections import Counter

from common import ENGINE_KWARGS

EMP_ROWS = 5000
DEPTS = 20
JOBS = 10
RANGE_RULES = 24
#: rule i (both shapes) watches (SPACING*i + LOW, SPACING*i + HIGH]
SPACING, LOW, HIGH = 1000, 100, 300
SAL_MAX = 100_000.0
#: ledger rows of rules below this index go on to audit
AUDIT_BELOW = 12
BULK_ROWS = 20
#: rows per link op, and the link ops the window spans
LINK_ROWS = 10
LINK_GROUPS = 30
LINK_WINDOW = LINK_ROWS * LINK_GROUPS
#: link endpoints are drawn from this many nodes: dense enough that a
#: link op closes a triangle now and then
NODES = 200
#: op mix per block of 40 ops, shuffled within the block: every stretch
#: of the stream has the same mix, so how many slow link ops a run or a
#: window holds does not vary with the seed
BLOCK = ("bulk",) * 25 + ("replace",) * 10 + ("link",) + ("read",) * 4
#: share of written salaries aimed into some interval
HIT_RATE = 0.05
#: ops generated per second of run time (several times the seed rate)
OPS_PER_SECOND = 3000

SCHEMA = """
create emp (id = int4, name = text, sal = float8, dno = int4, jno = int4)
create dept (dno = int4, name = text)
create job (jno = int4, title = text)
create flag (kind = int4, rid = int4, eid = int4, ref = int4)
create ledger (rid = int4, eid = int4, ref = int4)
create audit (rid = int4, eid = int4)
create link (grp = int4, src = int4, dst = int4)
create tri (x = int4, y = int4, z = int4)
define index emp_id on emp (id) using hash
define index link_grp on link (grp) using hash
"""

REPLACE = "replace e (sal = $sal) from e in emp where e.id = $id"
READ = "retrieve (e.name, e.sal) from e in emp where e.id = $id"
RETIRE = "delete l from l in link where l.grp = $grp"


def rule_texts() -> list[str]:
    texts = []
    for i in range(RANGE_RULES):
        low, high = SPACING * i + LOW, SPACING * i + HIGH
        band = f"{low} < emp.sal and emp.sal <= {high}"
        texts.append(
            f"define rule pair_{i} if {band} and emp.dno = dept.dno "
            f"then append to flag(kind = 2, rid = {i}, eid = emp.id, "
            f"ref = dept.dno)")
        texts.append(
            f"define rule triple_{i} if {band} and emp.dno = dept.dno "
            f"and emp.jno = job.jno then append to flag(kind = 3, "
            f"rid = {i}, eid = emp.id, ref = job.jno)")
    texts.append(
        "define rule to_ledger priority -1 on append flag "
        "if flag.kind = 3 then append to ledger(rid = flag.rid, "
        "eid = flag.eid, ref = flag.ref)")
    texts.append(
        f"define rule to_audit priority -2 on append ledger "
        f"if ledger.rid < {AUDIT_BELOW} then append to "
        f"audit(rid = ledger.rid, eid = ledger.eid)")
    texts.append(
        "define rule triangle if a.dst = b.src and b.dst = c.src and "
        "c.dst = a.src from a in link, b in link, c in link "
        "then append to tri(x = a.src, y = b.src, z = c.src)")
    return texts


def band_of(sal: float) -> int | None:
    i, offset = divmod(sal, SPACING)
    if LOW < offset <= HIGH and 0 <= i < RANGE_RULES:
        return int(i)
    return None


class Links:
    """The generator's copy of the link window, indexed both ways."""

    def __init__(self):
        self.rows: dict[int, tuple[int, int]] = {}
        self.out: dict[int, set[int]] = {}
        self.into: dict[int, set[int]] = {}
        self.next_id = 0

    def add(self, src: int, dst: int) -> int:
        rid, self.next_id = self.next_id, self.next_id + 1
        self.rows[rid] = (src, dst)
        self.out.setdefault(src, set()).add(rid)
        self.into.setdefault(dst, set()).add(rid)
        return rid

    def remove(self, rid: int) -> None:
        src, dst = self.rows.pop(rid)
        self.out[src].discard(rid)
        self.into[dst].discard(rid)

    def combinations(self, new) -> list[tuple[int, int, int]]:
        """The ``tri`` rows of every (a, b, c) combination of window
        rows with a.dst = b.src, b.dst = c.src and c.dst = a.src that
        uses at least one row of ``new`` (ids already in the window)."""
        rows, out, into = self.rows, self.out, self.into
        found = set()
        for r in new:
            x, y = rows[r]
            for b in out.get(y, ()):          # r as a
                for c in out.get(rows[b][1], ()):
                    if rows[c][1] == x:
                        found.add((r, b, c))
            for a in into.get(x, ()):         # r as b
                for c in out.get(y, ()):
                    if rows[c][1] == rows[a][0]:
                        found.add((a, r, c))
            for a in out.get(y, ()):          # r as c
                for b in out.get(rows[a][1], ()):
                    if rows[b][1] == x:
                        found.add((a, b, r))
        return [(rows[a][0], rows[b][0], rows[c][0])
                for a, b, c in found]


class Stream:
    """The seeded inputs and the generator's expectations."""

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        self.rng = rng
        self.initial_emp = [self._emp(i, self._outside()) for i in
                            range(EMP_ROWS)]
        links = Links()
        groups: list[list[int]] = []
        #: initial window: LINK_GROUPS groups that close no triangle, so
        #: activation finds no match
        self.initial_links = []
        for grp in range(LINK_GROUPS):
            ids = []
            while len(ids) < LINK_ROWS:
                rid = links.add(*self._link())
                if links.combinations([rid]):
                    links.remove(rid)
                    continue
                ids.append(rid)
                self.initial_links.append((grp,) + links.rows[rid])
            groups.append(ids)
        #: (kind, call, payload) for drive(); calls: 0 bulk emp,
        #: 1 prepared replace, 2 link op, 3 prepared read
        self.ops: list[tuple] = []
        #: per op: the bands its write moves rows into (emp writes),
        #: the tri rows it adds (link ops), or the expected rows (reads)
        self.expect: list = []
        sal = {row[0]: row[2] for row in self.initial_emp}
        ids = list(sal)
        kinds = []
        while len(kinds) < int(OPS_PER_SECOND * seconds):
            block = list(BLOCK)
            rng.shuffle(block)
            kinds.extend(block)
        for kind in kinds:
            if kind == "bulk":
                rows = []
                for _ in range(BULK_ROWS):
                    eid = len(ids)
                    row = self._emp(eid, self._value(None))
                    ids.append(eid)
                    sal[eid] = row[2]
                    rows.append(row)
                self._add("write", 0, rows,
                          [(band_of(r[2]), r) for r in rows
                           if band_of(r[2]) is not None])
            elif kind == "replace":
                eid = ids[rng.randrange(len(ids))]
                new = self._value(sal[eid])
                sal[eid] = new
                band = band_of(new)
                row = self._emp(eid, new)
                self._add("write", 1, {"id": eid, "sal": new},
                          [] if band is None else [(band, row)])
            elif kind == "link":
                grp = len(groups)
                new = [links.add(*self._link()) for _ in range(LINK_ROWS)]
                rows = [(grp,) + links.rows[rid] for rid in new]
                closed = links.combinations(new)
                groups.append(new)
                retired = grp - LINK_GROUPS
                for rid in groups[retired]:
                    links.remove(rid)
                groups[retired] = []
                self._add("write", 2, (rows, {"grp": retired}), closed)
            else:
                eid = ids[rng.randrange(len(ids))]
                self._add("read", 3, {"id": eid},
                          [(f"emp{eid}", sal[eid])])
        del self.rng

    def _add(self, kind, call, payload, expect) -> None:
        self.ops.append((kind, call, payload))
        self.expect.append(expect)

    @staticmethod
    def _emp(eid: int, sal: float) -> tuple:
        return (eid, f"emp{eid}", sal, eid % DEPTS, eid % JOBS)

    def _link(self) -> tuple[int, int]:
        return (self.rng.randrange(NODES), self.rng.randrange(NODES))

    def _outside(self) -> float:
        while True:
            sal = round(self.rng.uniform(0.0, SAL_MAX), 2)
            if band_of(sal) is None:
                return sal

    def _value(self, current: float | None) -> float:
        """Inside some interval with probability HIT_RATE, unless the
        row already sits inside one (keeps expected firings exact)."""
        if self.rng.random() < HIT_RATE and (
                current is None or band_of(current) is None):
            band = self.rng.randrange(RANGE_RULES)
            return round(SPACING * band + self.rng.uniform(LOW + 0.5,
                                                           HIGH - 0.5), 2)
        return self._outside()


def build(stream: Stream):
    """Schema and data, then the rules.  Activation primes them against
    ``emp``, whose salaries sit outside every interval, and ``link``,
    whose initial window holds no triangle, so nothing fires."""
    from repro import Database

    db = Database(**ENGINE_KWARGS)
    db.execute_script(SCHEMA)
    db.bulk_append("dept", [(d, f"dept{d}") for d in range(DEPTS)])
    db.bulk_append("job", [(j, f"job{j}") for j in range(JOBS)])
    db.bulk_append("emp", stream.initial_emp)
    db.bulk_append("link", stream.initial_links)
    for text in rule_texts():
        db.execute(text)
    return db


def calls(db) -> list:
    replace, read = db.prepare(REPLACE), db.prepare(READ)
    retire = db.prepare(RETIRE)

    def link_op(payload):
        rows, oldest = payload
        db.bulk_append("link", rows)
        retire.execute_with(oldest)

    return [lambda rows: db.bulk_append("emp", rows),
            replace.execute_with, link_op, read.execute_with]


def expected_firings(stream: Stream, executed: int) -> int:
    """Firings the executed prefix must cause.  Within one transition
    every woken range rule fires once (its P-node is consumed whole),
    then ``to_ledger`` once, then ``to_audit`` once if a woken band is
    below AUDIT_BELOW; a link op fires ``triangle`` once if it closes
    a triangle (retiring the oldest links fires nothing)."""
    total = 0
    for (_, call, _), expect in zip(stream.ops[:executed],
                                    stream.expect[:executed]):
        if call == 2:
            total += bool(expect)
        elif call in (0, 1) and expect:
            bands = {band for band, _ in expect}
            total += 2 * len(bands) + 1 + any(b < AUDIT_BELOW
                                              for b in bands)
    return total


def check(db, stream: Stream, executed: int, reads, firings: int
          ) -> list[str]:
    problems = []
    flags, ledger, audit, tri = Counter(), Counter(), Counter(), Counter()
    for (_, call, _), expect in zip(stream.ops[:executed],
                                    stream.expect[:executed]):
        if call == 2:
            tri.update(expect)
        elif call in (0, 1):
            for band, (eid, _, _, dno, jno) in expect:
                flags[(2, band, eid, dno)] += 1
                flags[(3, band, eid, jno)] += 1
                ledger[(band, eid, jno)] += 1
                if band < AUDIT_BELOW:
                    audit[(band, eid)] += 1
    for name, want in (("flag", flags), ("ledger", ledger),
                       ("audit", audit), ("tri", tri)):
        got = Counter(db.relation_rows(name))
        if got != want:
            problems.append(f"{name} holds {sum(got.values())} rows, "
                            f"expected {sum(want.values())}")
    want_firings = expected_firings(stream, executed)
    if firings != want_firings:
        problems.append(f"{firings} firings, expected {want_firings}")
    wrong = [i for i, result in reads
             if list(result.rows) != stream.expect[i]]
    if wrong:
        problems.append(f"{len(wrong)} retrieves returned wrong rows "
                        f"(first at op {wrong[0]})")
    return problems
