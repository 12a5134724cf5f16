"""Items filed under atoms, by predicate symbol and by ground argument.

Both evaluators look candidates up here: `solve` files each clause under
its head, `saturate` files each (round, fact) pair under the fact. `add`
appends each item to its symbol's list. The first lookup that names a ground
value at some argument position builds a table for that (symbol, position),
keyed by the ground argument values; a later lookup first files there the
items added since the table's last one.

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

from typing import Dict, Generic, Iterable, List, Tuple, TypeVar

from .kernel import Pred, Term, is_ground

T = TypeVar("T")


class _Table(Generic[T]):
    """Items of one symbol by their ground argument at one position: the first
    `filed` items of the symbol's list, those added before the table's last lookup."""

    def __init__(self) -> None:
        self.buckets: Dict[Term, List[T]] = {}
        self.loose: List[T] = []  # also the list for a value with no bucket
        self.filed = 0


class ArgIndex(Generic[T]):
    """Items by the symbol and the ground arguments of the atom filed with each."""

    def __init__(self) -> None:
        self._items: Dict[str, List[T]] = {}
        self._atoms: Dict[str, List[Pred]] = {}  # parallel to _items
        self._tables: Dict[str, Dict[int, _Table[T]]] = {}  # by symbol, then position

    def add(self, atom: Pred, item: T) -> None:
        symbol = atom.symbol
        items = self._items.get(symbol)
        if items is None:
            self._items[symbol] = [item]
            self._atoms[symbol] = [atom]
            self._tables[symbol] = {}
        else:
            items.append(item)
            self._atoms[symbol].append(atom)

    def candidates(self, symbol: str, keys: Iterable[Tuple[int, Term]]) -> List[T]:
        """The shortest of symbol's list and the lists for each (position, ground value).

        Every item left out was filed under an atom with another ground
        value at one of those positions, or with too few arguments. Each
        position's table is built on its first lookup, and files the items
        added since its last one before it is read.
        """
        best = items = self._items.get(symbol)
        if items is None:
            return []
        tables = self._tables[symbol]
        for pos, value in keys:
            table = tables.get(pos)
            if table is None:
                table = tables[pos] = _Table()
            start = table.filed
            if start < len(items):
                buckets, loose = table.buckets, table.loose
                for atom, item in zip(self._atoms[symbol][start:], items[start:]):
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
                table.filed = len(items)
            entries = table.buckets.get(value, table.loose)
            if len(entries) < len(best):
                best = entries
        return best
