"""Items filed under atoms, by predicate symbol and by ground argument.

Both evaluators look candidates up here: `solve` files each clause under
its head, `saturate` files each (round, fact) pair under the fact. Every
item sits in its symbol's list. The first lookup that names a ground value
at some argument position builds a table for that (symbol, position),
keyed by the ground argument values; later `add` calls keep it current.

An atom whose argument at a position is not ground (a variable, or a
constructor term holding one) is *loose* there: it may unify with more
than one value, so it sits in every bucket of that position and in the
fallback list that serves values without a bucket. An atom too short to have the
position sits in no bucket of it, since it cannot match a goal that does.

Every list holds its items in insertion order, loose ones included, and
a lookup returns one of these lists, uncopied. So the callers' orders
survive: `solve` adds clauses in declaration order and tries candidates
in that order; `saturate` adds facts round by round, so the facts of the
rounds before any given one form a prefix of every list.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Generic, Iterable, List, Mapping, Tuple, TypeVar

from .terms import Pred, Term, is_ground

T = TypeVar("T")

_NO_TABLES: Mapping[int, "_Table"] = MappingProxyType({})


class _Table(Generic[T]):
    """Items of one symbol by their ground argument at one position."""

    def __init__(self) -> None:
        self.buckets: Dict[Term, List[T]] = {}
        self.loose: List[T] = []  # also the list for a value with no bucket

    def add(self, arg: Term, item: T) -> None:
        if is_ground(arg):
            bucket = self.buckets.get(arg)
            if bucket is None:
                bucket = self.buckets[arg] = list(self.loose)
            bucket.append(item)
        else:
            self.loose.append(item)
            for bucket in self.buckets.values():
                bucket.append(item)


class ArgIndex(Generic[T]):
    """Items by the symbol and the ground arguments of the atom filed with each."""

    def __init__(self) -> None:
        self._items: Dict[str, List[T]] = {}
        self._atoms: Dict[str, List[Pred]] = {}  # parallel to _items
        self._tables: Dict[str, Dict[int, _Table[T]]] = {}

    def add(self, atom: Pred, item: T) -> None:
        symbol = atom.symbol
        items = self._items.get(symbol)
        if items is None:
            self._items[symbol] = [item]
            self._atoms[symbol] = [atom]
        else:
            items.append(item)
            self._atoms[symbol].append(atom)
        tables = self._tables.get(symbol)
        if tables:
            for pos, table in tables.items():
                if pos < len(atom.args):
                    table.add(atom.args[pos], item)

    def candidates(self, symbol: str, keys: Iterable[Tuple[int, Term]]) -> List[T]:
        """The shortest of symbol's list and the lists for each (position, ground value).

        Every item left out was filed under an atom with another ground
        value at one of those positions, or with too few arguments.
        """
        best = self._items.get(symbol, [])
        tables = self._tables.get(symbol, _NO_TABLES)
        for pos, value in keys:
            table = tables.get(pos) or self._table(symbol, pos)  # built on the first lookup at pos
            entries = table.buckets.get(value, table.loose)
            if len(entries) < len(best):
                best = entries
        return best

    def _table(self, symbol: str, pos: int) -> _Table[T]:
        """symbol's new table at pos, filed as `_Table.add` would file its items one by one."""
        table: _Table[T] = _Table()
        buckets, loose = table.buckets, table.loose
        for atom, item in zip(self._atoms.get(symbol, ()), self._items.get(symbol, ())):
            if pos < len(atom.args):
                arg = atom.args[pos]
                if is_ground(arg):
                    bucket = buckets.get(arg)
                    if bucket is None:
                        bucket = buckets[arg] = list(loose)
                    bucket.append(item)
                else:
                    loose.append(item)
                    for bucket in buckets.values():
                        bucket.append(item)
        self._tables.setdefault(symbol, {})[pos] = table
        return table
