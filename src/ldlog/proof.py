"""The public certificate check and the certificate output: render, JSON and bindings.

Nothing here is trusted. An answer's verdict rests on `ldlog.kernel`, which
defines the certificate types and decides each check; the kernel never
imports this module. `check_proof` runs the kernel's check and words the
detail of a failure: the kernel puts on its CheckError the atoms the detail
names, unprinted, and this module prints them. The rest only prints
certificates. `ProofTree` is re-exported because the benchmark
(bench/run.py) reads it here.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import List

from .errors import LdlogError
from .kernel import App, Builtin, BuiltinLeaf, CheckError, CheckReason, MalformedTerm, Meta, Pred, ProofNode, ProofTree
from .kernel import Substitution, Var, atom_is_ground, check, instantiates
from .terms import OP_TEXT, KnowledgeBase, Query, TypeMismatch, apply_subst_atom, atom_text, eval_builtin, term_text

__all__ = ["ProofTree", "check_proof", "proof_bindings", "render_proof", "serialize_proof"]


def check_proof(kb: KnowledgeBase, proof: ProofTree) -> None:
    """Validate a certificate against kb's clauses; raises CheckError.

    The verdict, the reason and the path are `kernel.check`'s, and so is
    every detail that names no term. A detail that does is written here,
    with the text `ldlog.kernel.CheckError` describes.
    """
    try:
        check(kb, proof)
    except CheckError as err:
        if err.detail or not err.parts:
            raise
        raise CheckError(err.path, err.reason, _detail(err)) from None


def _detail(err: CheckError) -> str:
    """The text of the kernel's parts of err. A comparison leaf the kernel found false or
    not covered reads as `eval_builtin` words it. A premise's instance is read as the
    kernel reads an atom, and one it would refuse is named as such instead of printed.
    Every other atom is one the kernel read, so it is well formed and prints."""
    if err.reason is CheckReason.BUILTIN_FALSE:
        try:
            eval_builtin(err.parts[0])
        except TypeMismatch as exc:
            return str(exc)
    texts = []
    for part in err.parts:
        if type(part) is tuple:  # (premise, substitution)
            part = apply_subst_atom(*part)
            name = part.symbol if type(part) is Pred else part.op
            if type(name) is not str or type(part) is Builtin and name not in OP_TEXT:
                return "the instantiated premise is not an atom"
            try:
                atom_is_ground(part)
            except MalformedTerm:
                return "the instantiated premise holds a malformed literal or name"
            except TypeError:
                return "the instantiated premise holds a non-term"
        texts.append(part if type(part) is str else atom_text(part))
    return "".join(texts)


def render_proof(node: ProofNode) -> str:
    """Compact clause-application form, e.g. r2 (r1 f1) f2.

    A stack holds, for each open parenthesis, the children still to render,
    so Python's recursion limit does not bound the proof's height.
    """
    if isinstance(node, BuiltinLeaf):
        return f"({atom_text(node.atom)})"
    out = [node.clause_name]
    stack = [iter(node.children)]
    while stack:
        for child in stack[-1]:
            if isinstance(child, BuiltinLeaf):
                out.append(f" ({atom_text(child.atom)})")
            elif child.children:
                out.append(f" ({child.clause_name}")
                stack.append(iter(child.children))
                break
            else:
                out.append(f" {child.clause_name}")
        else:
            stack.pop()
            if stack:
                out.append(")")
    return "".join(out)


def proof_bindings(proof: ProofTree, q: Query) -> Substitution:
    """Placeholder bindings read off a proof of q's goal.

    Each goal variable takes the term at its position in the conclusion,
    read with an explicit stack; `instantiates` then confirms that the
    goal under those bindings is the conclusion.
    """
    goal, conclusion = q.goal, proof.conclusion
    bindings: Substitution = {}
    if type(goal) is Pred and type(conclusion) is Pred:
        todo = [(goal.args, conclusion.args)]
        while todo:
            patterns, terms = todo.pop()
            for p, t in zip(patterns, terms):
                kind = type(p)
                if kind is Var or kind is Meta:
                    bindings[p] = t
                elif kind is App and type(t) is App:
                    todo.append((p.args, t.args))
    if not instantiates(goal, bindings, conclusion):
        raise LdlogError(f"proof concludes {atom_text(conclusion)}, not an instance of {atom_text(goal)}")
    return bindings


def serialize_proof(proof: ProofTree, q: Query) -> str:
    """One-line JSON document for a checked proof of q.

    The `tree` is written as text by an explicit stack, so Python's
    recursion limit does not bound the proof's height. Its bytes are those
    `json.dumps` gives for the nested document (a node is `{"clause",
    "conclusion", "children"}`, a builtin leaf `{"builtin"}`). A node
    keeps its own piece of that text after its first write (`ProofTree`),
    so a subtree the solver shares across answers has each node's
    conclusion written with `atom_text` once; the checker never reads the
    piece. A literal keeps its text once made, and the lexer makes equal
    literals of one parsed text one object, so each distinct literal of a
    program file is quoted once.
    """
    bindings = proof_bindings(proof, q)
    by_id = sorted(bindings.items(), key=lambda kv: kv[0].id)
    head = json.dumps(
        {
            "query": q.name,
            "goal": atom_text(q.goal),
            "bindings": {meta.source_name: term_text(value) for meta, value in by_id},
            "render": render_proof(proof),
        }
    )
    out = [head[:-1], ', "tree": ']
    _write_tree(proof, out)
    out.append("}")
    return "".join(out)


def _write_tree(proof: ProofNode, out: List[str]) -> None:
    """Append proof's `tree` document to out, one piece per node, made on its first write and kept."""
    stack = [enumerate((proof,))]
    while stack:
        for i, node in stack[-1]:
            if i:
                out.append(", ")
            piece = node._json
            if piece is None:
                if isinstance(node, BuiltinLeaf):
                    piece = f'{{"builtin": {_json_str(atom_text(node.atom))}}}'
                else:
                    conclusion = _json_str(atom_text(node.conclusion))
                    piece = f'{{"clause": {_json_str(node.clause_name)}, "conclusion": {conclusion}, "children": ['
                object.__setattr__(node, "_json", piece)
            out.append(piece)
            if isinstance(node, BuiltinLeaf):
                continue
            if node.children:
                stack.append(enumerate(node.children))
                break
            out.append("]}")
        else:
            stack.pop()
            if stack:
                out.append("]}")
