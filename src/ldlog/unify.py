"""Syntactic unification and one-way matching.

unify maintains an idempotent substitution throughout: when a variable is
bound, the new binding is first applied to every stored range term, so no
key ever survives in the substitution's range. Var and Meta keys are
treated identically. The occurs check is always on.
"""

from __future__ import annotations

from typing import Optional

from .errors import LdlogError
from .terms import (
    App,
    Atom,
    Builtin,
    Key,
    Meta,
    Substitution,
    Term,
    apply_subst,
    free_vars,
    Var,
)


class BuiltinNotUnifiable(LdlogError):
    """Comparison atoms are evaluated, never unified."""


def unify(t1: Term, t2: Term, s: Optional[Substitution] = None) -> Optional[Substitution]:
    """Most general unifier of t1 and t2 extending s, or None.

    The result is idempotent and leaves s unmodified.
    """
    return _unify(dict(s) if s else {}, [(t1, t2)])


def _unify(out: Substitution, stack: list) -> Optional[Substitution]:
    # pairs are taken from the end of stack, each one's subterms before the next pair
    while stack:
        a, b = stack.pop()
        a = apply_subst(a, out)
        b = apply_subst(b, out)
        if a == b:
            continue
        if isinstance(a, (Var, Meta)):
            if a in free_vars(b):
                return None  # occurs check
            _bind(out, a, b)
        elif isinstance(b, (Var, Meta)):
            if b in free_vars(a):
                return None
            _bind(out, b, a)
        elif isinstance(a, App) and isinstance(b, App) and a.constructor == b.constructor and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return out


def _bind(out: Substitution, v: Key, t: Term) -> None:
    # t is already fully resolved against out and passed the occurs check,
    # so rewriting the stored ranges keeps out idempotent.
    one = {v: t}
    for k in out:
        out[k] = apply_subst(out[k], one)
    out[v] = t


def unify_atoms(a1: Atom, a2: Atom, s: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two predicate atoms argument by argument."""
    if isinstance(a1, Builtin) or isinstance(a2, Builtin):
        raise BuiltinNotUnifiable("comparison atoms cannot be unified")
    if a1.symbol != a2.symbol or len(a1.args) != len(a2.args):
        return None
    # left to right, as one unify call per argument would bind them
    return _unify(dict(s) if s else {}, list(zip(reversed(a1.args), reversed(a2.args))))


def match_one_way(pattern: Term, target: Term) -> Optional[Substitution]:
    """Bind pattern variables to make pattern equal target, or None.

    Variables on the target side are never bound; repeated pattern
    variables must match equal subterms.
    """
    return _match({}, [(pattern, target)])


def match_atoms(pattern: Atom, target: Atom) -> Optional[Substitution]:
    """One-way match of predicate atoms, sharing bindings across arguments."""
    if isinstance(pattern, Builtin) or isinstance(target, Builtin):
        raise BuiltinNotUnifiable("comparison atoms cannot be matched")
    if pattern.symbol != target.symbol or len(pattern.args) != len(target.args):
        return None
    return _match({}, list(zip(pattern.args, target.args)))


def _match(bindings: Substitution, stack: list) -> Optional[Substitution]:
    while stack:
        p, t = stack.pop()
        if isinstance(p, (Var, Meta)):
            if p in bindings:
                bound = bindings[p]
                if bound is not t and bound != t:
                    return None
            else:
                bindings[p] = t
        elif isinstance(p, App) and isinstance(t, App) and p.constructor == t.constructor and len(p.args) == len(t.args):
            stack.extend(zip(p.args, t.args))
        elif p is not t and p != t:
            return None
    return bindings
