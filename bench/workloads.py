"""Seeded workload generators with independent reference answers.

Each generator returns a Workload: one or more ldlog program texts, the
`ldlog run` flags the batch uses, and for every query the answer set
computed in plain Python (transitive closure, rung arithmetic or table
filters), never with the engine. An answer is a frozenset of
(placeholder, rendered value) pairs, as `ldlog run` prints them; a ground
query that holds has the single empty answer, and a query with no answer
is expected to be reported unprovable.

The seed picks labels, fact order, query order and query targets. The
shape that sets the cost (sizes, answer counts per query, proof heights,
the positions queries start from) is fixed by the parameters, so runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

Answer = FrozenSet[Tuple[str, str]]


@dataclass
class Program:
    name: str
    text: str
    expected: Dict[str, List[Answer]]  # query name -> answers; empty means unprovable


@dataclass
class Workload:
    name: str
    seed: int
    params: dict
    max_depth: int
    programs: List[Program]
    check: bool = False
    json: bool = False
    oracle: bool = False
    max_height: int = 0  # tallest minimal proof among the expected answers

    def cli_args(self, path: str) -> List[str]:
        """Arguments of the `ldlog run` invocation this batch stands for."""
        args = ["run", path, "--all"]
        if self.oracle:
            return args + ["--oracle"]
        args += ["--max-depth", str(self.max_depth)]
        if self.check:
            args.append("--check")
        if self.json:
            args.append("--json")
        return args

    @property
    def query_count(self) -> int:
        return sum(len(p.expected) for p in self.programs)

    @property
    def answer_count(self) -> int:
        return sum(len(a) for p in self.programs for a in p.expected.values())


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"{kind}:{seed}")


def _labels(rng: random.Random, n: int) -> List[str]:
    return [f"n{v}" for v in rng.sample(range(100000, 1000000), n)]


def _quote(label: str) -> str:
    return f'"{label}"'


def _answer(**bindings) -> Answer:
    return frozenset((f"{k}?", v) for k, v in bindings.items())


def _spaced(n: int, k: int) -> List[int]:
    """k evenly spaced positions in range(n), first and last included."""
    return [round(i * (n - 1) / (k - 1)) for i in range(k)]


_REACH_RIGHT = "r1: path(x, y) :- edge(x, y).\nr2: path(x, y) :- edge(x, z), path(z, y).\n"
_REACH_LEFT = "r1: path(x, y) :- edge(x, y).\nr2: path(x, y) :- path(x, z), edge(z, y).\n"


def _chain_program(name: str, rng: random.Random, n: int, queries: int) -> Tuple[Program, int]:
    """Right-recursive reachability over a chain of n shuffled labels."""
    labels = _labels(rng, n)
    edges = [f"edge({_quote(labels[i])}, {_quote(labels[i + 1])})." for i in range(n - 1)]
    rng.shuffle(edges)
    starts = _spaced(n, queries)
    rng.shuffle(starts)
    lines = [f"// {name}: chain of {n} nodes", _REACH_RIGHT] + edges
    expected = {}
    height = 0
    for i, pos in enumerate(starts):
        qname = f"q{i}"
        lines.append(f"{qname}: path({_quote(labels[pos])}, m?)?")
        expected[qname] = [_answer(m=_quote(labels[j])) for j in range(pos + 1, n)]
        if pos + 1 < n:
            height = max(height, n - pos)  # distance d needs height d + 1
    return Program(name, "\n".join(lines) + "\n", expected), height


def chain(seed: int, n: int = 32, queries: int = 16) -> Workload:
    prog, height = _chain_program("chain", _rng("chain", seed), n, queries)
    return Workload(
        "chain", seed, {"nodes": n, "queries": queries}, max_depth=n, programs=[prog],
        check=True, json=True, max_height=height,
    )


def oracle(seed: int, n: int = 16, queries: int = 12) -> Workload:
    prog, height = _chain_program("oracle", _rng("oracle", seed), n, queries)
    return Workload(
        "oracle", seed, {"nodes": n, "queries": queries}, max_depth=n, programs=[prog],
        oracle=True, max_height=height,
    )


def ladder(seed: int, rungs: int = 6) -> Workload:
    """Left-recursive diamond ladder: r_i -> a_i, b_i -> r_{i+1}.

    A query starts at some r_s and reaches the 3 * (rungs - s) nodes past
    it; there are 2 ** k paths to r_{s+k}, one proof shape each. Every pass
    starts once from each rung, in seeded order, plus once from the last
    join node, which reaches nothing.
    """
    rng = _rng("ladder", seed)
    labels = _labels(rng, 3 * rungs + 1)
    r = labels[: rungs + 1]
    a = labels[rungs + 1 : 2 * rungs + 1]
    b = labels[2 * rungs + 1 :]
    edges = []
    for i in range(rungs):
        edges += [(r[i], a[i]), (r[i], b[i]), (a[i], r[i + 1]), (b[i], r[i + 1])]
    rng.shuffle(edges)
    starts = list(range(rungs + 1))
    rng.shuffle(starts)
    lines = [f"// ladder of {rungs} rungs", _REACH_LEFT]
    lines += [f"edge({_quote(x)}, {_quote(y)})." for x, y in edges]
    expected = {}
    for i, s in enumerate(starts):
        qname = f"q{i}"
        lines.append(f"{qname}: path({_quote(r[s])}, m?)?")
        reach = [a[j] for j in range(s, rungs)] + [b[j] for j in range(s, rungs)] + r[s + 1 :]
        expected[qname] = [_answer(m=_quote(x)) for x in reach]
    prog = Program("ladder", "\n".join(lines) + "\n", expected)
    depth = 2 * rungs + 1
    return Workload(
        "ladder", seed, {"rungs": rungs, "queries": rungs + 1}, max_depth=depth, programs=[prog],
        check=True, max_height=depth,
    )


# Fixed per-department value lists: every department holds one employee
# per entry, in seeded order, so every selection below has a fixed answer
# count whatever the seed.
_AGES = (24, 29, 33, 38, 42, 47, 51, 61, 64)
_SALARIES = (3100, 3800, 4400, 5200, 5900, 6600, 7300, 8100, 9400)
_SENIOR_AGE = 60
_HIGH_SALARY = 9000

_FACTS_RULES = f"""\
senior: senior(e, d) :- emp(e, d, s, a), (a >= {_SENIOR_AGE}).
peer: peer(e, p) :- emp(e, d, s, a), emp(p, d, t, b), (t > s).
high: high(e, f) :- dept(d, n, f), emp(e, d, s, a), (s >= {_HIGH_SALARY}).
"""


def _facts_program(name: str, rng: random.Random, depts: int, floors: int) -> Program:
    """Employee and department tables with three rules and ten queries."""
    per = len(_AGES)
    dept_ids = rng.sample(range(1, 10 * depts), depts)
    emp_ids = rng.sample(range(10000, 100000), depts * per)
    floor_of = [i % floors for i in range(depts)]
    rng.shuffle(floor_of)
    emps = []  # (id, dept, salary, age)
    by_dept: Dict[int, List[tuple]] = {}
    for k, d in enumerate(dept_ids):
        ages = list(_AGES)
        rng.shuffle(ages)
        salaries = list(_SALARIES)
        rng.shuffle(salaries)
        rows = [(emp_ids[k * per + j], d, salaries[j], ages[j]) for j in range(per)]
        emps += rows
        by_dept[d] = rows
    facts = [f"dept({d}, \"d{d}\", {f})." for d, f in zip(dept_ids, floor_of)]
    facts += [f"emp({e}, {d}, {s}, {a})." for e, d, s, a in emps]
    rng.shuffle(facts)

    queries: List[Tuple[str, List[Answer]]] = []
    for e, d, s, a in rng.sample(emps, 2):
        queries.append((f"emp({e}, d?, s?, a?)", [_answer(d=str(d), s=str(s), a=str(a))]))
    queries.append(("emp(7, d?, s?, a?)", []))  # ids start at 10000
    for d in rng.sample(dept_ids, 2):
        hits = [e for e, _, _, age in by_dept[d] if age >= _SENIOR_AGE]
        queries.append((f"senior(e?, {d})", [_answer(e=str(e)) for e in hits]))
    for rank in (2, 5):
        rows = sorted(by_dept[rng.choice(dept_ids)], key=lambda row: row[2])
        e, s = rows[rank][0], rows[rank][2]
        queries.append((f"peer({e}, p?)", [_answer(p=str(row[0])) for row in rows if row[2] > s]))
    for f in rng.sample(range(floors), 2):
        hits = [e for d, fl in zip(dept_ids, floor_of) if fl == f for e, _, s, _ in by_dept[d] if s >= _HIGH_SALARY]
        queries.append((f"high(e?, {f})", [_answer(e=str(e)) for e in hits]))
    rows = sorted(by_dept[rng.choice(dept_ids)], key=lambda row: row[2])
    queries.append((f"peer({rows[0][0]}, {rows[-1][0]})", [_answer()]))

    lines = [f"// {name}: {depts} departments, {len(emps)} employees", _FACTS_RULES] + facts
    expected = {}
    for i, (goal, answers) in enumerate(queries):
        lines.append(f"q{i}: {goal}?")
        expected[f"q{i}"] = answers
    return Program(name, "\n".join(lines) + "\n", expected)


def facts(seed: int, programs: int = 4, depts: int = 100, floors: int = 10) -> Workload:
    rng = _rng("facts", seed)
    progs = [_facts_program(f"facts{i}", rng, depts, floors) for i in range(programs)]
    return Workload(
        "facts", seed, {"programs": programs, "departments": depts, "employees_per_department": len(_AGES), "floors": floors},
        max_depth=3, programs=progs, check=True, max_height=2,
    )


GENERATORS = {"chain": chain, "ladder": ladder, "oracle": oracle, "facts": facts}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
