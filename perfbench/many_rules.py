"""Workload ``many_rules``: the paper's scalability claim at 5x its
largest rule count.

1000 single-variable range rules (the Fig. 9 shape) watch one
2000-row relation.  One in-memory client sends ad-hoc statement text
with literals: 60% ``replace``, 10% ``append``, 10% ``delete`` (of rows
the workload appended) and 20% indexed ``retrieve``.  About 2% of the
writes move a row into some rule's interval, and that rule appends one
``alert`` row.  Every text is distinct, so the 128-entry statement
cache misses and each op pays parse, analysis and planning; the
per-transition loops over all rules dominate the rest.

The generator keeps a shadow copy of the table and the rule intervals:
it knows each read's answer and each alert a write must raise.  To keep
the expected firings unambiguous it never moves a row that sits inside
an interval to another value inside one.
"""

from __future__ import annotations

import random

from common import ENGINE_KWARGS

RULES = 1000
ROWS = 2000
#: rule i watches (SPACING*i, SPACING*i + WIDTH]
SPACING = 1000
WIDTH = 20
#: share of writes aimed into some rule's interval
HIT_RATE = 0.02
#: ops generated per second of run time; several times what the seed
#: engine completes, so a faster engine still measures the full time
OPS_PER_SECOND = 5000

SCHEMA = """
create emp (id = int4, name = text, sal = float8)
create alert (rid = int4, eid = int4, sal = float8)
define index emp_id on emp (id) using hash
"""


def rule_text(i: int) -> str:
    low = SPACING * i
    return (f"define rule watch_{i} if {low} < emp.sal and "
            f"emp.sal <= {low + WIDTH} then append to "
            f"alert(rid = {i}, eid = emp.id, sal = emp.sal)")


def rule_of(sal: float) -> int | None:
    """The rule whose interval holds ``sal``, if any."""
    i, offset = divmod(sal, SPACING)
    if 0 < offset <= WIDTH and 0 <= i < RULES:
        return int(i)
    return None


class Pool:
    """A set with O(1) add, remove and seeded random pick."""

    def __init__(self, items):
        self.items = list(items)
        self.where = {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, item) -> None:
        self.where[item] = len(self.items)
        self.items.append(item)

    def remove(self, item) -> None:
        i = self.where.pop(item)
        last = self.items.pop()
        if last != item:
            self.items[i] = last
            self.where[last] = i

    def pick(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


class Stream:
    """The seeded inputs: the initial table and the op stream, with the
    effect the generator expects of each op."""

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        self.initial = [(i, f"emp{i}", self._outside(rng))
                        for i in range(ROWS)]
        #: (kind, call, text) for drive()
        self.ops: list[tuple[str, int, str]] = []
        #: per op: ("set", id, name, sal) | ("del", id) | ("read", id,
        #: expected rows); alerts[i] is the alert row op i raises
        self.effects: list[tuple] = []
        self.alerts: list[tuple | None] = []
        sal = {i: s for i, _, s in self.initial}
        live = Pool(sal)
        appended = Pool(())
        next_id = ROWS
        for _ in range(int(OPS_PER_SECOND * seconds)):
            roll = rng.random()
            if 0.7 <= roll < 0.8 and appended:
                victim = appended.pick(rng)
                appended.remove(victim)
                live.remove(victim)
                del sal[victim]
                self._add("write", f"delete e from e in emp where "
                                   f"e.id = {victim}", ("del", victim))
            elif 0.6 <= roll < 0.8:
                new = self._value(rng, None)
                eid, next_id = next_id, next_id + 1
                sal[eid] = new
                live.add(eid)
                appended.add(eid)
                self._add("write", f'append emp(id = {eid}, '
                                   f'name = "emp{eid}", sal = {new!r})',
                          ("set", eid, f"emp{eid}", new), new)
            elif roll < 0.6:
                eid = live.pick(rng)
                new = self._value(rng, sal[eid])
                sal[eid] = new
                self._add("write", f"replace e (sal = {new!r}) from e "
                                   f"in emp where e.id = {eid}",
                          ("set", eid, f"emp{eid}", new), new)
            else:
                eid = live.pick(rng)
                self._add("read", f"retrieve (e.name, e.sal) from e in "
                                  f"emp where e.id = {eid}",
                          ("read", eid, [(f"emp{eid}", sal[eid])]))

    def _add(self, kind: str, text: str, effect: tuple,
             new_sal: float | None = None) -> None:
        self.ops.append((kind, 0, text))
        self.effects.append(effect)
        rule = rule_of(new_sal) if new_sal is not None else None
        self.alerts.append(None if rule is None
                           else (rule, effect[1], new_sal))

    @staticmethod
    def _outside(rng: random.Random) -> float:
        band = rng.randrange(RULES)
        return round(SPACING * band + rng.uniform(WIDTH + 1,
                                                  SPACING - 1), 2)

    def _value(self, rng: random.Random, current: float | None) -> float:
        """A new salary: inside some interval with probability
        HIT_RATE, unless the row already sits inside one."""
        if rng.random() < HIT_RATE and (current is None
                                        or rule_of(current) is None):
            band = rng.randrange(RULES)
            return round(SPACING * band + rng.uniform(0.5, WIDTH - 0.5),
                         2)
        return self._outside(rng)


def build(stream: Stream):
    """Schema, rules (installed and activated on the empty relation),
    then the initial rows in one bulk append."""
    from repro import Database

    db = Database(**ENGINE_KWARGS)
    db.execute_script(SCHEMA)
    for i in range(RULES):
        db.execute(rule_text(i))
    db.bulk_append("emp", stream.initial)
    return db


def calls(db) -> list:
    return [db.execute]


def check(db, stream: Stream, executed: int, reads, firings: int
          ) -> list[str]:
    """Compare the engine's tables, reads and firing count with the
    generator's shadow model of the executed prefix."""
    problems = []
    table = {i: (name, s) for i, name, s in stream.initial}
    for effect in stream.effects[:executed]:
        if effect[0] == "set":
            table[effect[1]] = (effect[2], effect[3])
        elif effect[0] == "del":
            del table[effect[1]]
    got = sorted(db.relation_rows("emp"))
    want = sorted((i, name, s) for i, (name, s) in table.items())
    if got != want:
        problems.append(f"emp differs from the shadow table "
                        f"({len(got)} rows vs {len(want)})")
    expected_alerts = [a for a in stream.alerts[:executed] if a]
    if sorted(db.relation_rows("alert")) != sorted(expected_alerts):
        problems.append(f"alert holds {len(db.relation_rows('alert'))} "
                        f"rows, expected {len(expected_alerts)}")
    if firings != len(expected_alerts):
        problems.append(f"{firings} firings, expected "
                        f"{len(expected_alerts)}")
    wrong = [i for i, result in reads
             if list(result.rows) != stream.effects[i][2]]
    if wrong:
        problems.append(f"{len(wrong)} retrieves returned wrong rows "
                        f"(first at op {wrong[0]})")
    return problems
