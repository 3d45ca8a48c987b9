"""Bounded-depth revision tree: a revisor model rewrites a candidate
temporal-logic formula, critic models judge each node, and every
disapproval spawns a revised child until all critics approve or the
depth budget runs out (fallback: the root revision).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import ltl
from .engine import pick
from .gateway import Backend, BackendSpec, ChatMessage, CriticEnsembleSpec, Session
from .record import Record

TEMPLATES = {
    # minimal-knowledge prompt variant
    "revisor_system": (
        "You translate natural-language decision descriptions into linear "
        "temporal logic using operators G, F, X, U, !, &, |, ->. Reply with "
        "the formula only."),
    "revisor_initial": (
        "Text: {text}\nCandidate formula: {initial}\n"
        "Revise the candidate so it captures the text exactly. Reply with "
        "the formula only."),
    "critic_system": (
        "You judge whether a temporal logic formula matches a text, both "
        "logically and against the allowed vocabulary: {atoms}. Reply "
        "exactly 'APPROVED' or 'REVISE: <feedback>'."),
    "critic_user": "Text: {text}\nFormula: {formula}",
    "feedback": "A critic rejected the formula: {feedback}\nRevise it. Reply with the formula only.",
}


class CriticVerdict(Record):
    __slots__ = ("approved", "feedback")

    def __init__(self, approved: bool, feedback: str = ""):
        if not approved and not feedback:
            raise ValueError("disapproval requires feedback")
        object.__setattr__(self, "approved", approved)
        object.__setattr__(self, "feedback", feedback)


class TreeNode:
    __slots__ = ("node_id", "formula_text", "context", "depth", "parent", "children",
                 "parse_ok", "verdicts")

    def __init__(self, node_id: int, formula_text: str, context: list[ChatMessage], depth: int,
                 parent: int | None = None, parse_ok: bool = True):
        self.node_id = node_id
        self.formula_text = formula_text
        self.context = context
        self.depth = depth
        self.parent = parent
        self.children: list[int] = []
        self.parse_ok = parse_ok
        self.verdicts: list[CriticVerdict] = []


@dataclass
class CriticTreeConfig:
    num_critics: int
    max_depth: int
    revisor: BackendSpec
    critics: CriticEnsembleSpec

    def __post_init__(self):
        if self.num_critics < 1:
            raise ValueError("num_critics must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


class TreeTrace:
    """The nodes in breadth-first creation order are the whole record; the
    call counters and the returned formula are derived from them."""

    __slots__ = ("nodes", "returned_node", "fallback")

    def __init__(self):
        self.nodes: list[TreeNode] = []
        self.returned_node: int | None = None
        self.fallback = False

    @property
    def returned(self) -> str:
        return "" if self.returned_node is None else self.nodes[self.returned_node].formula_text

    @property
    def revisor_calls(self) -> int:
        return len(self.nodes)  # one revision per node

    @property
    def critic_calls(self) -> int:
        return sum(len(n.verdicts) for n in self.nodes)

    def to_json(self) -> dict:
        return {
            "returned": self.returned,
            "returned_node": self.returned_node,
            "fallback": self.fallback,
            "revisor_calls": self.revisor_calls,
            "critic_calls": self.critic_calls,
            "nodes": [
                {
                    "id": n.node_id,
                    "formula": n.formula_text,
                    "depth": n.depth,
                    "parent": n.parent,
                    "children": list(n.children),
                    "parse_ok": n.parse_ok,
                    "verdicts": [{"approved": v.approved, "feedback": v.feedback}
                                 for v in n.verdicts],
                }
                for n in self.nodes
            ],
        }


def parse_verdict(reply: str) -> CriticVerdict:
    """Protocol: 'APPROVED' or 'REVISE: <feedback>'. Anything else is a
    disapproval carrying the raw reply."""
    text = reply.strip()
    if text == "APPROVED":
        return CriticVerdict(approved=True)
    if text.startswith("REVISE:"):
        feedback = text[len("REVISE:"):].strip()
        return CriticVerdict(approved=False, feedback=feedback or text)
    return CriticVerdict(approved=False, feedback=reply)


class CriticTree:
    def __init__(self, cfg: CriticTreeConfig, session: Session, kb_atoms: tuple[str, ...] = ()):
        self.cfg = cfg
        self.revisor: Backend = session.backend(cfg.revisor)
        self.critics = [session.backend(spec) for spec, _ in cfg.critics.members]
        self.weights = [p for _, p in cfg.critics.members]
        self.rng = random.Random(cfg.critics.seed)  # one draw per critic call
        self._revisor_system = ChatMessage("system", TEMPLATES["revisor_system"])
        atoms = ", ".join(kb_atoms) if kb_atoms else "(unrestricted)"
        self._critic_system = ChatMessage("system", TEMPLATES["critic_system"].format(atoms=atoms))
        self._parsed: dict[str, ltl.Ltl | ltl.ParseError] = {}

    def parse(self, formula_text: str) -> ltl.Ltl | ltl.ParseError:
        """`ltl.parse` of the text, or the ParseError it raised. Each
        distinct text is parsed once per `run`, and the memo is kept until
        the next `run` starts, so a caller parses the returned formula, or
        its grounding, through it."""
        result = self._parsed.get(formula_text)
        if result is None:
            try:
                result = ltl.parse(formula_text)
            except ltl.ParseError as e:
                # without its traceback, whose frames would tie this tree into a cycle
                result = e.with_traceback(None)
            self._parsed[formula_text] = result
        return result

    def _revise(self, context: list[ChatMessage]) -> tuple[str, list[ChatMessage]]:
        reply = self.revisor.complete(context)
        return reply.content.strip(), context + [reply]

    def _new_node(self, trace: TreeTrace, formula_text: str, context: list[ChatMessage],
                  depth: int, parent: int | None) -> TreeNode:
        ok = not isinstance(self.parse(formula_text), ltl.ParseError)
        node = TreeNode(node_id=len(trace.nodes), formula_text=formula_text,
                        context=context, depth=depth, parent=parent, parse_ok=ok)
        trace.nodes.append(node)
        if parent is not None:
            trace.nodes[parent].children.append(node.node_id)
        return node

    def judge(self, node: TreeNode, text: str) -> list[CriticVerdict]:
        messages = [
            self._critic_system,
            ChatMessage("user", TEMPLATES["critic_user"].format(
                text=text, formula=node.formula_text)),
        ]
        verdicts = []
        for _ in range(self.cfg.num_critics):
            critic = self.critics[pick(self.weights, self.rng)]
            verdicts.append(parse_verdict(critic.complete(messages).content))
        node.verdicts = verdicts
        return verdicts

    def run(self, text: str, initial: str) -> tuple[str, TreeTrace]:
        if not text:
            raise ValueError("text must be nonempty")
        trace = TreeTrace()
        self._parsed.clear()  # kept across runs, the memo would grow with the corpus for little reuse
        root_context = [
            self._revisor_system,
            ChatMessage("user", TEMPLATES["revisor_initial"].format(
                text=text, initial=initial)),
        ]
        root_formula, root_context = self._revise(root_context)
        root = self._new_node(trace, root_formula, root_context, depth=0, parent=None)

        for node in trace.nodes:  # breadth-first: children queue behind their parent's level
            if node.depth > self.cfg.max_depth:
                break
            verdicts = self.judge(node, text)
            if all(v.approved for v in verdicts):
                trace.returned_node = node.node_id
                return node.formula_text, trace
            for verdict in verdicts:
                if verdict.approved:
                    continue
                child_context = node.context + [
                    ChatMessage("user",
                                TEMPLATES["feedback"].format(feedback=verdict.feedback))
                ]
                formula, child_context = self._revise(child_context)
                self._new_node(trace, formula, child_context,
                               depth=node.depth + 1, parent=node.node_id)

        # depth budget exhausted without full approval
        trace.returned_node = root.node_id
        trace.fallback = True
        return root.formula_text, trace
